#include "serve/response_cache.h"

#include <cmath>
#include <limits>
#include <utility>

#include "dds/solver.h"
#include "util/logging.h"
#include "util/table.h"

namespace ddsgraph {

std::string CanonicalRequestKey(const DdsRequest& request) {
  std::string key = AlgorithmName(request.algorithm);
  key += ";threads=";
  key += std::to_string(request.threads);
  switch (request.algorithm) {
    case DdsAlgorithm::kNaiveExact:
    case DdsAlgorithm::kLpExact:
    case DdsAlgorithm::kCoreApprox:
      // No options consumed beyond the thread count.
      break;
    case DdsAlgorithm::kFlowExact:
    case DdsAlgorithm::kDcExact:
    case DdsAlgorithm::kCoreExact: {
      // Key on the options the solve actually runs with: the defining
      // ablation presets are folded in (ExactPresetFor), so e.g. a
      // flow-exact request keys identically whatever the caller left in
      // the flags the preset overrides.
      const ExactOptions o =
          ExactPresetFor(request.algorithm, request.exact);
      key += ";dc=";
      key += o.divide_and_conquer ? '1' : '0';
      key += ";core=";
      key += o.core_pruning ? '1' : '0';
      key += ";refine=";
      key += o.refine_cores_in_probe ? '1' : '0';
      key += ";warm=";
      key += o.approx_warm_start ? '1' : '0';
      key += ";incr=";
      key += o.incremental_probe ? '1' : '0';
      key += ";trace=";
      key += o.record_network_sizes ? '1' : '0';
      key += ";maxn=";
      key += std::to_string(o.max_exhaustive_n);
      break;
    }
    case DdsAlgorithm::kPeelApprox:
      key += ";eps=";
      key += FormatRoundTrip(request.peel.epsilon);
      break;
    case DdsAlgorithm::kBatchPeelApprox:
      key += ";leps=";
      key += FormatRoundTrip(request.batch_peel.ladder_epsilon);
      key += ";beps=";
      key += FormatRoundTrip(request.batch_peel.batch_epsilon);
      break;
  }
  return key;
}

bool IsCachableRequest(const DdsRequest& request) {
  // A deadline makes the answer a function of admission time (the
  // incumbent at interruption), and a progress callback can cancel or
  // observe — neither is a pure function of (graph, request), so neither
  // side of the cache may touch them.
  return request.progress == nullptr &&
         request.deadline_seconds ==
             std::numeric_limits<double>::infinity();
}

size_t ApproxSolutionBytes(const DdsSolution& solution) {
  return sizeof(DdsSolution) +
         (solution.pair.s.capacity() + solution.pair.t.capacity()) *
             sizeof(VertexId) +
         solution.stats.network_sizes.capacity() * sizeof(int64_t);
}

ResponseCache::ResponseCache(ResponseCacheOptions options)
    : options_(options) {
  CHECK(options.max_bytes > 0) << "response cache byte budget must be > 0";
}

std::string ResponseCache::CompositeKey(const std::string& graph,
                                        int64_t version,
                                        const std::string& request_key) {
  // \x1f (unit separator) cannot appear in catalog names or canonical
  // request keys, so the composite is unambiguous.
  std::string key = graph;
  key += '\x1f';
  key += std::to_string(version);
  key += '\x1f';
  key += request_key;
  return key;
}

std::optional<DdsSolution> ResponseCache::Lookup(
    const std::string& graph, int64_t version,
    const std::string& request_key) {
  const std::string key = CompositeKey(graph, version, request_key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->solution;
}

void ResponseCache::Insert(const std::string& graph, int64_t version,
                           const std::string& request_key,
                           const DdsSolution& solution) {
  std::string key = CompositeKey(graph, version, request_key);
  const size_t entry_bytes = key.size() + ApproxSolutionBytes(solution);
  std::lock_guard<std::mutex> lock(mu_);
  // A version reaching the cache proves every older version of this
  // graph is unreachable (versions only move forward), so reclaim those
  // eagerly rather than waiting for LRU pressure. Only *older*: a solve
  // that raced an update can insert late with a smaller version, and it
  // must not wipe the newer entries (its own entry is unreachable dead
  // weight either way, collected by the next insert or eviction).
  InvalidateLocked(graph, version);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent misses can race to insert the same triple; the values
    // are identical (deterministic solvers), keep the incumbent.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (entry_bytes > options_.max_bytes) return;  // would never fit
  RotateEvictionWindowLocked();
  while (bytes_ + entry_bytes > options_.max_bytes && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    ++evictions_;
    ++window_evictions_;
    index_.erase(victim.key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, graph, version, solution, entry_bytes});
  index_.emplace(std::move(key), lru_.begin());
  bytes_ += entry_bytes;
}

int64_t ResponseCache::InvalidateLocked(const std::string& graph,
                                        int64_t older_than) {
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->graph == graph && it->version < older_than) {
      bytes_ -= it->bytes;
      ++invalidations_;
      ++dropped;
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

int64_t ResponseCache::InvalidateGraph(const std::string& graph) {
  std::lock_guard<std::mutex> lock(mu_);
  return InvalidateLocked(graph, std::numeric_limits<int64_t>::max());
}

void ResponseCache::RotateEvictionWindowLocked() const {
  const double elapsed = eviction_window_.Seconds();
  if (elapsed < options_.eviction_window_s) return;
  // One whole window passed: the current bucket becomes "previous"; two
  // whole windows means even that is stale.
  prev_window_evictions_ =
      elapsed < 2 * options_.eviction_window_s ? window_evictions_ : 0;
  window_evictions_ = 0;
  eviction_window_.Reset();
}

ResponseCacheCounters ResponseCache::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  RotateEvictionWindowLocked();
  ResponseCacheCounters counters;
  counters.hits = hits_;
  counters.misses = misses_;
  counters.evictions = evictions_;
  counters.invalidations = invalidations_;
  counters.entries = static_cast<int64_t>(lru_.size());
  counters.bytes = static_cast<int64_t>(bytes_);
  counters.recent_evictions = window_evictions_ + prev_window_evictions_;
  return counters;
}

}  // namespace ddsgraph
