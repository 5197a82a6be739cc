#ifndef DDSGRAPH_UTIL_BUCKET_QUEUE_H_
#define DDSGRAPH_UTIL_BUCKET_QUEUE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/logging.h"

/// \file
/// Monotone bucket priority queue for peeling algorithms.
///
/// All peeling-style algorithms in this library (greedy approximation,
/// [x,y]-core fixpoints and decompositions) repeatedly extract an item of
/// minimum integer key while keys of the remaining items only *decrease*.
/// A bucket array gives O(1) operations plus a cursor scan that totals
/// O(max_key) per monotone phase, which is the standard trick behind O(m)
/// k-core decomposition (Batagelj-Zaversnik). The buckets are intrusive
/// doubly-linked lists threaded through per-item `next`/`prev` slots, so a
/// queue holds O(n + max_key) memory for its whole life and no operation
/// allocates.

namespace ddsgraph {

/// Min-priority queue over items {0..n-1} with integer keys in [0, max_key].
/// Keys may be decreased (or items removed) at any time; every operation is
/// O(1) except the cursor advance of PopMin/PeekMinKey, which totals
/// O(max_key) per monotone phase.
///
/// Within a bucket, items pop in the reverse order of their latest link
/// into it (Insert or a key-changing DecreaseKey links at the front). That
/// is the LIFO order LazyHeapQueue (util/peel_queue.h) reproduces, so the
/// two queues pop the same items under the same operation sequence.
class BucketQueue {
 public:
  /// Creates a queue for `n` items with keys bounded by `max_key`.
  /// All items start absent; call Insert for each.
  BucketQueue(uint32_t n, int64_t max_key)
      : key_(n, kAbsent),
        next_(n),
        prev_(n),
        head_(static_cast<size_t>(max_key) + 1, kNil) {}

  /// Inserts `item` with the given key. The item must be absent.
  void Insert(uint32_t item, int64_t key) {
    DCHECK_EQ(key_[item], kAbsent);
    DCHECK_GE(key, 0);
    DCHECK_LT(static_cast<size_t>(key), head_.size());
    key_[item] = key;
    Link(item, key);
    if (key < cursor_) cursor_ = key;
    ++size_;
  }

  /// Lowers the key of a present item. `new_key` must be <= current key.
  /// An equal key is a no-op: the item keeps its place in its bucket.
  void DecreaseKey(uint32_t item, int64_t new_key) {
    DCHECK_NE(key_[item], kAbsent);
    DCHECK_GE(new_key, 0);
    DCHECK_LE(new_key, key_[item]);
    if (new_key == key_[item]) return;
    Unlink(item);
    key_[item] = new_key;
    Link(item, new_key);
    if (new_key < cursor_) cursor_ = new_key;
  }

  /// Convenience: decrease the key by one.
  void Decrement(uint32_t item) { DecreaseKey(item, key_[item] - 1); }

  /// Removes an item from the queue.
  void Remove(uint32_t item) {
    DCHECK_NE(key_[item], kAbsent);
    Unlink(item);
    key_[item] = kAbsent;
    --size_;
  }

  /// True if `item` is currently in the queue.
  bool Contains(uint32_t item) const { return key_[item] != kAbsent; }

  /// Current key of a present item.
  int64_t KeyOf(uint32_t item) const {
    DCHECK_NE(key_[item], kAbsent);
    return key_[item];
  }

  bool Empty() const { return size_ == 0; }
  uint32_t Size() const { return size_; }

  /// Extracts an item with minimum key. Returns nullopt when empty.
  std::optional<std::pair<uint32_t, int64_t>> PopMin() {
    if (size_ == 0) return std::nullopt;
    AdvanceCursor();
    const uint32_t item = head_[static_cast<size_t>(cursor_)];
    Unlink(item);
    key_[item] = kAbsent;
    --size_;
    return std::make_pair(item, cursor_);
  }

  /// Key of the current minimum without extracting, or nullopt when empty.
  std::optional<int64_t> PeekMinKey() {
    if (size_ == 0) return std::nullopt;
    AdvanceCursor();
    return cursor_;
  }

 private:
  static constexpr int64_t kAbsent = -1;
  static constexpr uint32_t kNil = UINT32_MAX;

  // Moves the cursor to the lowest non-empty bucket. Requires size_ > 0,
  // and every present item's key is >= cursor_, so the scan stops in range.
  void AdvanceCursor() {
    while (head_[static_cast<size_t>(cursor_)] == kNil) ++cursor_;
  }

  // Links a present item at the front of bucket `key`.
  void Link(uint32_t item, int64_t key) {
    uint32_t& head = head_[static_cast<size_t>(key)];
    next_[item] = head;
    prev_[item] = kNil;
    if (head != kNil) prev_[head] = item;
    head = item;
  }

  // Unlinks a present item from the bucket of its current key.
  void Unlink(uint32_t item) {
    const uint32_t next = next_[item];
    const uint32_t prev = prev_[item];
    if (prev == kNil) {
      head_[static_cast<size_t>(key_[item])] = next;
    } else {
      next_[prev] = next;
    }
    if (next != kNil) prev_[next] = prev;
  }

  std::vector<int64_t> key_;
  std::vector<uint32_t> next_;
  std::vector<uint32_t> prev_;
  std::vector<uint32_t> head_;  ///< first item of each bucket, or kNil
  int64_t cursor_ = 0;
  uint32_t size_ = 0;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_UTIL_BUCKET_QUEUE_H_
