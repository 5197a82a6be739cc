#ifndef DDSGRAPH_SERVE_CATALOG_H_
#define DDSGRAPH_SERVE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "dds/engine.h"
#include "graph/digraph.h"
#include "serve/wal.h"
#include "stream/dynamic_digraph.h"
#include "stream/edge_stream.h"
#include "util/status.h"

/// \file
/// The serving daemon's graph catalog (DESIGN.md §13, §14, §16).
///
/// A `GraphCatalog` maps names to graphs loaded exactly once — from an
/// edge-list file through the shared `LoadEdgeListAuto` helper, or handed
/// in pre-built — and keeps one hot `DdsEngine` per graph. That engine
/// ownership is the point of the serving subsystem: repeat queries
/// against a graph amortize the engine's `ProbeWorkspace` (finalized CSR
/// flow arenas, epoch sets) instead of rebuilding them per request.
///
/// Every entry holds its graph inside a `DynamicDigraphT` overlay
/// (stream/dynamic_digraph.h) — the one way a graph changes — so catalog
/// graphs are *live*:
/// `ApplyEdgeBatch` buffers edge inserts/deletes on the entry and bumps
/// its `version()`. A solve first compacts the overlay (snapshot), and
/// rebinds the hot engine when a compaction has rebuilt the CSR since the
/// engine was created — a `ProbeWorkspace` is bound to one immutable
/// graph, so reusing it across versions would be unsound. Entries that
/// never see updates keep their engine (and its amortization) forever.
///
/// With `EnablePersistence` (DESIGN.md §16) every entry additionally owns
/// a write-ahead log and a snapshot file under one data directory, and
/// `ApplyEdgeBatch` runs the durability ordering: *append + fsync the
/// WAL record first, then apply the overlay, then publish the version
/// mirror* — so by the time the server can write an ack, the batch is on
/// disk (fsync policy permitting), and a crash at any instruction
/// recovers to a state at least as new as every ack ever sent.
/// `RecoverAll` rebuilds entries from snapshot + WAL tail on startup.
///
/// Concurrency contract: populate the catalog fully (Load/Add/Recover),
/// then share it — the name → entry map itself is immutable after
/// population (`Find`/`Entries` take no lock), while everything *inside*
/// an entry (overlay, engine, WAL, counters) is guarded by the entry
/// mutex, so solves and updates may be issued concurrently from any
/// threads: they serialize per entry, which is also the scheduler's
/// one-engine-per-graph discipline. The entry mutex is a timed mutex:
/// `ApplyEdgeBatch` takes it with a bounded wait and returns
/// `kUnavailable` (retryable) when a long solve or compaction holds the
/// entry, instead of wedging the connection reader thread.

namespace ddsgraph {

/// One named live graph with its long-lived engine and (optionally) its
/// durability pair (WAL + snapshot). Created by GraphCatalog;
/// address-stable for the catalog's lifetime.
class CatalogEntry {
 public:
  /// What ApplyEdgeBatch reports back (echoed by the wire `update` verb).
  struct UpdateResult {
    int64_t version = 0;  ///< entry version after the batch
    int64_t applied = 0;  ///< non-no-op ops
    uint32_t num_vertices = 0;
    int64_t num_edges = 0;
  };

  const std::string& name() const { return name_; }
  bool weighted() const {
    return std::holds_alternative<DynamicWeightedDigraph>(graph_);
  }
  /// Dense-id → original-file-label mapping (empty when identity).
  const std::vector<uint64_t>& labels() const { return labels_; }
  uint32_t num_vertices() const;
  int64_t num_edges() const;
  /// Applied update batches since the graph was first created (0 =
  /// pristine). Survives restarts: a recovered entry resumes the version
  /// sequence its snapshot + WAL captured, so acks stay comparable.
  int64_t version() const;
  /// Lock-free mirror of version(). The entry mutex is held for a
  /// solve's whole duration, so readers that must not stall behind
  /// solves — the scheduler's cache fast path on the connection reader
  /// thread — read this instead. Monotone; may briefly trail version()
  /// while an ApplyEdgeBatch is mid-flight, never lead it.
  int64_t cached_version() const {
    return version_mirror_.load(std::memory_order_acquire);
  }

  /// Runs one query on this entry's hot engine, serialized on the entry
  /// mutex so concurrent callers queue here rather than corrupt the
  /// shared workspace. Compacts the overlay and rebinds the engine first
  /// if updates have rebuilt the CSR since the engine was created. Const
  /// because a solve is logically a query; the engine/overlay mutation is
  /// an amortization detail hidden behind the entry mutex.
  /// `solved_version`, when non-null, receives the entry version the
  /// solve actually ran against — captured under the same critical
  /// section, which is what makes it sound as a response-cache key.
  Result<DdsSolution> Solve(const DdsRequest& request,
                            int64_t* solved_version = nullptr) const;

  /// Applies an edge batch: WAL append + fsync (when persistent), then
  /// the live overlay, then the version-mirror publish — in that order,
  /// so a caller that acks on OK has acked durable state. Rejected with
  /// InvalidArgument when the entry's graph was loaded with a label
  /// mapping (streamed vertex ids would be ambiguous against the file's
  /// labels — update targets must be identity-labeled), or when an
  /// insert weight is invalid for the entry's flavor (!= 1 unweighted,
  /// < 1 weighted). Self-loops and no-ops are skipped silently, matching
  /// static construction.
  ///
  /// `timeout_s > 0` bounds the wait for the entry mutex: when a solve
  /// or compaction holds the entry longer, returns kUnavailable
  /// (retryable) instead of blocking — the serve path's reader-thread
  /// protection. 0 waits indefinitely (trusted in-process callers).
  Result<UpdateResult> ApplyEdgeBatch(const EdgeBatch& batch,
                                      double timeout_s = 0);

  /// Compacts the overlay, writes a fresh snapshot at the current
  /// version, and truncates the WAL behind it. InvalidArgument on a
  /// non-persistent entry. Also runs automatically from ApplyEdgeBatch
  /// when the WAL outgrows PersistOptions::checkpoint_bytes.
  Status Checkpoint();

  /// Solves served by this entry so far (across engine rebinds).
  int64_t num_solves() const;
  /// Times the hot engine was rebound because updates rebuilt the CSR.
  int64_t engine_rebuilds() const;

  /// True when this entry writes a WAL (EnablePersistence was on when it
  /// was added, or it was recovered).
  bool persistent() const { return wal_ != nullptr; }
  /// WAL write/fsync failures observed (0 when non-persistent). Atomic —
  /// the health verb polls this lock-free while updates run.
  int64_t wal_sync_errors() const {
    return wal_ != nullptr ? wal_->sync_errors() : 0;
  }
  /// Records currently in the WAL (since the last checkpoint).
  int64_t wal_records() const;
  /// Checkpoints taken (explicit + automatic).
  int64_t checkpoints() const;

 private:
  friend class GraphCatalog;
  /// The live overlay, in the weight flavor the graph entered with.
  using LiveGraph = std::variant<DynamicDigraph, DynamicWeightedDigraph>;

  CatalogEntry(std::string name, LiveGraph graph,
               std::vector<uint64_t> labels);

  /// The entry's one weight dispatch: calls `f` (a generic lambda) on the
  /// live overlay. Requires mu_ held unless `f` only inspects the type —
  /// the alternative is fixed at construction.
  template <typename F>
  decltype(auto) VisitGraph(F&& f) const {
    return std::visit(std::forward<F>(f), graph_);
  }

  /// Compacts the overlay and (re)creates engine_ over the fresh CSR when
  /// needed. Requires mu_ held.
  void SyncEngineLocked() const;
  /// version() with mu_ held.
  int64_t VersionLocked() const;
  /// Checkpoint() with mu_ held.
  Status CheckpointLocked();
  /// Compacts the overlay and captures it as a snapshot (CSR-order edge
  /// list + absolute version). Requires mu_ held.
  GraphSnapshot BuildSnapshotLocked();

  const std::string name_;
  const std::vector<uint64_t> labels_;

  mutable std::timed_mutex mu_;  ///< guards everything below
  // The engine points at the overlay's base CSR, so the entry is pinned
  // in memory (held by unique_ptr in the catalog).
  mutable LiveGraph graph_;
  mutable std::unique_ptr<DdsEngine> engine_;
  /// Overlay compaction count the engine was built against; a mismatch
  /// means the CSR was rebuilt and the engine must be too.
  mutable int64_t engine_epoch_ = 0;
  mutable int64_t solves_before_engine_ = 0;
  mutable int64_t engine_rebuilds_ = 0;
  /// Published copy of the overlay version for cached_version().
  std::atomic<int64_t> version_mirror_{0};

  // Durability state; set once during catalog population (attach or
  // recovery), before the entry is shared.
  std::unique_ptr<WriteAheadLog> wal_;  ///< null = non-persistent
  std::string snapshot_path_;
  /// Version the current overlay incarnation started from: a recovered
  /// entry's overlay counts from 0 again, so the absolute version is
  /// base + overlay version.
  int64_t version_base_ = 0;
  /// Auto-checkpoint threshold copied from PersistOptions (0 = manual).
  int64_t checkpoint_bytes_ = 0;
  int64_t checkpoints_ = 0;
};

/// Durability knobs for EnablePersistence.
struct PersistOptions {
  /// Directory holding one `<name>.wal` + `<name>.snap` pair per graph.
  /// Created if absent (one level).
  std::string data_dir;
  WalOptions wal;
  /// ApplyEdgeBatch checkpoints the entry when its WAL exceeds this many
  /// bytes, folding the log into a fresh snapshot. 0 disables automatic
  /// checkpoints (tests drive them explicitly).
  int64_t checkpoint_bytes = 64 << 20;
};

class GraphCatalog {
 public:
  GraphCatalog() = default;
  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Arms durability: every graph added *after* this call gets a WAL and
  /// an initial snapshot under `options.data_dir`, and `RecoverAll`
  /// becomes available. Must be called on an empty catalog (entries
  /// added before would silently not persist). Creates the directory.
  Status EnablePersistence(const PersistOptions& options);

  /// Rebuilds an entry from every `<name>.snap` in the data directory
  /// (snapshot + WAL tail replay, torn tails truncated). Call after
  /// EnablePersistence and before Load/Add of the same names — a
  /// recovered name makes a later Load of it fail as a duplicate, which
  /// the daemon treats as "already recovered, skip the file".
  /// `recovered`, when non-null, receives the recovered names.
  Status RecoverAll(std::vector<std::string>* recovered = nullptr);

  /// Loads `path` as `name` via the shared graph/io helper; the failure
  /// Status names the file. Duplicate names are InvalidArgument.
  Status LoadGraph(const std::string& name, const std::string& path,
                   bool weighted);

  /// Registers a pre-built graph (tests, benchmarks, generated demos);
  /// the overload picks the entry's weight flavor.
  Status AddGraph(const std::string& name, Digraph graph,
                  std::vector<uint64_t> labels = {});
  Status AddGraph(const std::string& name, WeightedDigraph graph,
                  std::vector<uint64_t> labels = {});

  /// Lookup by name; nullptr when absent. Safe only once population is
  /// done (see the file comment).
  CatalogEntry* Find(const std::string& name);
  const CatalogEntry* Find(const std::string& name) const;

  /// All entries in name order (stable pointers).
  std::vector<const CatalogEntry*> Entries() const;
  size_t size() const { return entries_.size(); }

  bool persistent() const { return persistent_; }
  const std::string& data_dir() const { return persist_.data_dir; }
  /// Sum of wal_sync_errors over all entries — the health verb's
  /// "durability is failing" signal. Lock-free.
  int64_t wal_sync_errors() const;

 private:
  Status Insert(const std::string& name,
                std::unique_ptr<CatalogEntry> entry);
  /// Writes the initial snapshot + fresh WAL for a just-added entry.
  Status AttachFresh(CatalogEntry* entry);
  /// Rebuilds one entry from its snapshot + WAL and inserts it.
  Status RecoverGraph(const std::string& name);

  std::map<std::string, std::unique_ptr<CatalogEntry>> entries_;
  bool persistent_ = false;
  PersistOptions persist_;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_SERVE_CATALOG_H_
