#include "serve/catalog.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <type_traits>
#include <utility>

#include "graph/io.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace ddsgraph {

CatalogEntry::CatalogEntry(std::string name, LiveGraph graph,
                           std::vector<uint64_t> labels)
    : name_(std::move(name)),
      labels_(std::move(labels)),
      graph_(std::move(graph)) {}

uint32_t CatalogEntry::num_vertices() const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  return VisitGraph([](const auto& g) { return g.NumVertices(); });
}

int64_t CatalogEntry::num_edges() const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  return VisitGraph([](const auto& g) { return g.NumEdges(); });
}

int64_t CatalogEntry::VersionLocked() const {
  return version_base_ +
         VisitGraph([](const auto& g) { return g.version(); });
}

int64_t CatalogEntry::version() const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  return VersionLocked();
}

void CatalogEntry::SyncEngineLocked() const {
  // Solves run on an immutable CSR: fold any buffered updates first.
  // Snapshot() is free when the overlay is clean, so never-updated
  // entries pay nothing here.
  const int64_t compactions = VisitGraph([](auto& g) {
    g.Snapshot();
    return g.compactions();
  });
  if (engine_ != nullptr && engine_epoch_ == compactions) return;
  if (engine_ != nullptr) {
    // The CSR was rebuilt under the engine: its ProbeWorkspace is bound
    // to the old contents, so the whole engine is replaced, not reused.
    solves_before_engine_ += engine_->num_solves();
    ++engine_rebuilds_;
  }
  engine_ = VisitGraph(
      [](const auto& g) { return std::make_unique<DdsEngine>(g.base()); });
  engine_epoch_ = compactions;
}

Result<DdsSolution> CatalogEntry::Solve(const DdsRequest& request,
                                        int64_t* solved_version) const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  SyncEngineLocked();
  if (solved_version != nullptr) *solved_version = VersionLocked();
  return engine_->Solve(request);
}

Result<CatalogEntry::UpdateResult> CatalogEntry::ApplyEdgeBatch(
    const EdgeBatch& batch, double timeout_s) {
  if (!labels_.empty()) {
    return Status::InvalidArgument(
        "graph '" + name_ +
        "' was loaded with a label mapping; updates need identity vertex "
        "ids (reload the graph without labels to stream into it)");
  }
  // Type-only visit (the flavor is fixed), so no lock is needed yet.
  RETURN_IF_ERROR(VisitGraph([&](const auto& g) {
    for (const EdgeOp& op : batch) {
      if (op.kind != EdgeOp::Kind::kInsert) continue;
      if constexpr (std::decay_t<decltype(g)>::kWeighted) {
        if (op.weight < 1) {
          return Status::InvalidArgument(
              "insert weights must be >= 1 on weighted graph '" + name_ +
              "'");
        }
      } else if (op.weight != 1) {
        return Status::InvalidArgument(
            "graph '" + name_ + "' is unweighted; insert weights must be 1");
      }
    }
    return Status::Ok();
  }));
  // Bounded entry acquisition: a solve or compaction can hold the entry
  // for seconds, and the serve path calls this from a connection reader
  // thread — better to tell the client "busy, retry" than to wedge its
  // whole connection behind another graph user.
  // Polls try_lock rather than try_lock_for: libstdc++ implements the
  // latter via pthread_mutex_clocklock, which TSan does not intercept,
  // so a timed acquisition would read as an unlock of an unheld mutex.
  // 1 ms of poll granularity is noise against multi-second timeouts.
  std::unique_lock<std::timed_mutex> lock(mu_, std::defer_lock);
  if (timeout_s > 0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    while (!lock.try_lock()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::Unavailable(
            "graph '" + name_ + "' is busy (solve or compaction in "
            "progress); retry the update");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else {
    lock.lock();
  }
  if (DDS_FAILPOINT("apply:before_wal")) {
    return FailpointError("apply:before_wal");
  }
  // Durability ordering (DESIGN.md §16): the record reaches the log —
  // and, under fsync=always, the disk — *before* the overlay applies and
  // the version becomes observable. A failed append leaves memory and
  // log both at the old version (Append rolls back its bytes even when
  // the record was fully written and only the fsync failed), so the
  // entry stays consistent, the same version number is free for the
  // retry, and the client simply got no ack.
  const int64_t next_version = VersionLocked() + 1;
  if (wal_ != nullptr) {
    RETURN_IF_ERROR(wal_->Append(next_version, batch));
  }
  UpdateResult result;
  VisitGraph([&](auto& g) {
    result.applied = g.ApplyBatch(batch);
    result.num_vertices = g.NumVertices();
    result.num_edges = g.NumEdges();
  });
  result.version = VersionLocked();
  CHECK(result.version == next_version);
  if (DDS_FAILPOINT("apply:before_publish")) {
    return FailpointError("apply:before_publish");
  }
  // Publish before the caller can ack: a client that saw the update
  // succeed must be guaranteed that later submissions read the new
  // version (the response cache's no-stale-after-ack contract).
  version_mirror_.store(result.version, std::memory_order_release);
  if (wal_ != nullptr && checkpoint_bytes_ > 0 &&
      wal_->bytes() > checkpoint_bytes_) {
    // The batch is already durable in the WAL, so a checkpoint failure
    // must not fail the update; it only means the log keeps growing.
    const Status checkpointed = CheckpointLocked();
    if (!checkpointed.ok()) {
      LOG(WARNING) << "checkpoint of '" << name_
                   << "' failed: " << checkpointed.ToString();
    }
  }
  return result;
}

GraphSnapshot CatalogEntry::BuildSnapshotLocked() {
  GraphSnapshot snapshot;
  snapshot.labels = labels_;
  VisitGraph([&](auto& dyn) {
    dyn.Snapshot();
    const auto& g = dyn.base();
    snapshot.num_vertices = g.NumVertices();
    if constexpr (std::decay_t<decltype(g)>::kWeighted) {
      snapshot.weighted = true;
      snapshot.weighted_edges = g.EdgeList();
    } else {
      snapshot.edges = g.EdgeList();
    }
  });
  snapshot.version = VersionLocked();
  return snapshot;
}

Status CatalogEntry::CheckpointLocked() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("graph '" + name_ +
                                   "' is not persistent");
  }
  // Snapshot first, truncate after: a crash between the two leaves the
  // new snapshot plus a WAL whose records are all <= its version —
  // recovery skips them. The reverse order could lose acked records.
  GraphSnapshot snapshot = BuildSnapshotLocked();
  RETURN_IF_ERROR(SaveGraphSnapshot(snapshot_path_, snapshot));
  RETURN_IF_ERROR(wal_->Reset());
  ++checkpoints_;
  if (DDS_FAILPOINT("snap:after_reset")) {
    return FailpointError("snap:after_reset");
  }
  return Status::Ok();
}

Status CatalogEntry::Checkpoint() {
  std::lock_guard<std::timed_mutex> lock(mu_);
  return CheckpointLocked();
}

int64_t CatalogEntry::num_solves() const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  return solves_before_engine_ +
         (engine_ != nullptr ? engine_->num_solves() : 0);
}

int64_t CatalogEntry::engine_rebuilds() const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  return engine_rebuilds_;
}

int64_t CatalogEntry::wal_records() const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  return wal_ != nullptr ? wal_->records() : 0;
}

int64_t CatalogEntry::checkpoints() const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  return checkpoints_;
}

Status GraphCatalog::EnablePersistence(const PersistOptions& options) {
  if (!entries_.empty()) {
    return Status::InvalidArgument(
        "EnablePersistence must run before graphs are added (" +
        std::to_string(entries_.size()) + " already present)");
  }
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("persistence needs a data_dir");
  }
  if (::mkdir(options.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("mkdir " + options.data_dir + ": " +
                            std::strerror(errno));
  }
  persist_ = options;
  persistent_ = true;
  return Status::Ok();
}

Status GraphCatalog::RecoverAll(std::vector<std::string>* recovered) {
  if (!persistent_) {
    return Status::InvalidArgument(
        "RecoverAll needs EnablePersistence first");
  }
  DIR* dir = ::opendir(persist_.data_dir.c_str());
  if (dir == nullptr) {
    return Status::Internal("opendir " + persist_.data_dir + ": " +
                            std::strerror(errno));
  }
  std::vector<std::string> names;
  const std::string suffix = ".snap";
  for (dirent* ent = ::readdir(dir); ent != nullptr;
       ent = ::readdir(dir)) {
    const std::string file = ent->d_name;
    if (file.size() <= suffix.size() ||
        file.compare(file.size() - suffix.size(), suffix.size(),
                     suffix) != 0) {
      continue;
    }
    names.push_back(file.substr(0, file.size() - suffix.size()));
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    RETURN_IF_ERROR(RecoverGraph(name));
    if (recovered != nullptr) recovered->push_back(name);
  }
  return Status::Ok();
}

Status GraphCatalog::RecoverGraph(const std::string& name) {
  const std::string snap_path = persist_.data_dir + "/" + name + ".snap";
  const std::string wal_path = persist_.data_dir + "/" + name + ".wal";
  Result<GraphSnapshot> loaded = LoadGraphSnapshot(snap_path);
  if (!loaded.ok()) return loaded.status();
  GraphSnapshot& snap = loaded.value();
  std::unique_ptr<CatalogEntry> entry(new CatalogEntry(
      name,
      snap.weighted
          ? CatalogEntry::LiveGraph(DynamicWeightedDigraph(
                WeightedDigraph::FromEdges(snap.num_vertices,
                                           std::move(snap.weighted_edges))))
          : CatalogEntry::LiveGraph(DynamicDigraph(Digraph::FromEdges(
                snap.num_vertices, std::move(snap.edges)))),
      std::move(snap.labels)));
  entry->version_base_ = snap.version;
  entry->snapshot_path_ = snap_path;
  entry->checkpoint_bytes_ = persist_.checkpoint_bytes;
  WalReplay replay;
  Result<std::unique_ptr<WriteAheadLog>> log =
      WriteAheadLog::Open(wal_path, persist_.wal, &replay);
  if (!log.ok()) return log.status();
  int64_t version = snap.version;
  for (const WalRecord& record : replay.records) {
    // Records at or below the snapshot version are leftovers of a crash
    // between a checkpoint's rename and its WAL reset — already folded
    // into the snapshot, so skipped, not an error.
    if (record.version <= snap.version) continue;
    if (record.version != version + 1) {
      return Status::Internal(
          "WAL " + wal_path + " skips from version " +
          std::to_string(version) + " to " +
          std::to_string(record.version) + " — refusing to recover");
    }
    // Replay through the same overlay path a live update takes, so a
    // recovered entry's solves are bit-identical to the never-crashed
    // entry's (the overlay-vs-rebuild identity of DESIGN.md §14).
    entry->VisitGraph([&](auto& g) { g.ApplyBatch(record.batch); });
    version = record.version;
  }
  entry->wal_ = std::move(log).value();
  entry->version_mirror_.store(version, std::memory_order_release);
  return Insert(name, std::move(entry));
}

Status GraphCatalog::AttachFresh(CatalogEntry* entry) {
  entry->snapshot_path_ =
      persist_.data_dir + "/" + entry->name_ + ".snap";
  entry->checkpoint_bytes_ = persist_.checkpoint_bytes;
  const std::string wal_path =
      persist_.data_dir + "/" + entry->name_ + ".wal";
  // A fresh add deliberately replaces whatever an earlier incarnation of
  // this name persisted: drop its log before the new snapshot lands.
  (void)::unlink(wal_path.c_str());
  std::lock_guard<std::timed_mutex> lock(entry->mu_);
  GraphSnapshot snapshot = entry->BuildSnapshotLocked();
  RETURN_IF_ERROR(SaveGraphSnapshot(entry->snapshot_path_, snapshot));
  WalReplay replay;
  Result<std::unique_ptr<WriteAheadLog>> log =
      WriteAheadLog::Open(wal_path, persist_.wal, &replay);
  if (!log.ok()) return log.status();
  entry->wal_ = std::move(log).value();
  return Status::Ok();
}

Status GraphCatalog::LoadGraph(const std::string& name,
                               const std::string& path, bool weighted) {
  Result<LoadedAnyGraph> loaded = LoadEdgeListAuto(path, weighted);
  if (!loaded.ok()) return loaded.status();
  LoadedAnyGraph& any = loaded.value();
  if (weighted) {
    return AddGraph(name, std::move(any.weighted_graph),
                    std::move(any.labels));
  }
  return AddGraph(name, std::move(any.graph), std::move(any.labels));
}

Status GraphCatalog::AddGraph(const std::string& name, Digraph graph,
                              std::vector<uint64_t> labels) {
  return Insert(name, std::unique_ptr<CatalogEntry>(new CatalogEntry(
                          name, DynamicDigraph(std::move(graph)),
                          std::move(labels))));
}

Status GraphCatalog::AddGraph(const std::string& name, WeightedDigraph graph,
                              std::vector<uint64_t> labels) {
  return Insert(name, std::unique_ptr<CatalogEntry>(new CatalogEntry(
                          name, DynamicWeightedDigraph(std::move(graph)),
                          std::move(labels))));
}

Status GraphCatalog::Insert(const std::string& name,
                            std::unique_ptr<CatalogEntry> entry) {
  if (name.empty()) {
    return Status::InvalidArgument("catalog graph name must be non-empty");
  }
  if (persistent_ &&
      name.find_first_not_of(
          "abcdefghijklmnopqrstuvwxyz"
          "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-") != std::string::npos) {
    // The name doubles as a file name under data_dir; keep it to a
    // charset that cannot traverse directories or hide in a listing.
    return Status::InvalidArgument(
        "persistent catalog names may only use [A-Za-z0-9._-]: '" + name +
        "'");
  }
  auto [it, inserted] = entries_.emplace(name, std::move(entry));
  if (!inserted) {
    return Status::InvalidArgument("catalog already has a graph named '" +
                                   name + "'");
  }
  if (persistent_ && !it->second->persistent()) {
    const Status attached = AttachFresh(it->second.get());
    if (!attached.ok()) {
      // Half-attached durability is worse than no entry: take it back out.
      entries_.erase(it);
      return attached;
    }
  }
  return Status::Ok();
}

CatalogEntry* GraphCatalog::Find(const std::string& name) {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

const CatalogEntry* GraphCatalog::Find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

std::vector<const CatalogEntry*> GraphCatalog::Entries() const {
  std::vector<const CatalogEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(entry.get());
  return out;
}

int64_t GraphCatalog::wal_sync_errors() const {
  int64_t errors = 0;
  for (const auto& [name, entry] : entries_) {
    errors += entry->wal_sync_errors();
  }
  return errors;
}

}  // namespace ddsgraph
