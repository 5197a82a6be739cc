// Crash recovery for the persistent serving catalog (DESIGN.md §16).
//
// The contract under test: with fsync=always, an acked ApplyEdgeBatch is
// durable, and after a crash at *any* instruction of the durability path
// the recovered catalog solves bit-identically to a never-crashed mirror
// at the recovered version — which is never below the highest acked one.
// Crashes are real process deaths: a forked child arms an abort-mode
// failpoint (destructor-free `_exit`, kill -9 at syscall granularity),
// reports each ack through a pipe, and dies mid-path; the parent then
// recovers from the surviving files.

#include <sys/wait.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dds/solver.h"
#include "graph/generators.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/wal.h"
#include "stream/edge_stream.h"
#include "util/failpoint.h"

namespace ddsgraph {
namespace {

// Blocks the solve that carries it inside its first progress callback
// until Release() — pins the entry mutex mid-solve deterministically.
struct SolveGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  DdsProgressCallback AsProgress() {
    return [this](const DdsProgress&) {
      {
        std::lock_guard<std::mutex> lock(mu);
        entered = true;
      }
      cv.notify_all();
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return released; });
      return true;
    };
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

Digraph BaseGraph() { return UniformDigraph(30, 120, 3); }

// The deterministic update stream both the crashing child and the
// never-crashed mirror replay: batch i is a pure function of i.
EdgeBatch BatchFor(int64_t i) {
  const auto v = [](int64_t x) {
    return static_cast<VertexId>(((x % 30) + 30) % 30);
  };
  EdgeBatch batch;
  batch.push_back(EdgeOp::Insert(v(i * 7), v(i * 11 + 1)));
  batch.push_back(EdgeOp::Insert(v(i * 3 + 2), v(i * 5 + 4)));
  if (i % 2 == 0) batch.push_back(EdgeOp::Delete(v((i - 1) * 7), v((i - 1) * 11 + 1)));
  return batch;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/recovery_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

PersistOptions PersistAt(const std::string& dir,
                         int64_t checkpoint_bytes = 0) {
  PersistOptions persist;
  persist.data_dir = dir;
  persist.checkpoint_bytes = checkpoint_bytes;
  return persist;
}

// The schedule-independent slice of a solve on `entry` — what
// "bit-identical solves" means here (stats carry wall times).
std::string SolveSlice(const CatalogEntry* entry) {
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  const Result<DdsSolution> solution = entry->Solve(request);
  EXPECT_TRUE(solution.ok()) << solution.status().ToString();
  if (!solution.ok()) return std::string();
  const std::string json =
      SolutionJson(solution.value(), entry->labels());
  const size_t stats = json.find(", \"stats\"");
  EXPECT_NE(stats, std::string::npos);
  return json.substr(0, stats);
}

// A never-crashed in-memory twin: same base graph, batches 1..version
// applied through the same ApplyEdgeBatch path.
std::string MirrorSolveSliceAt(int64_t version) {
  GraphCatalog mirror;
  EXPECT_TRUE(mirror.AddGraph("g", BaseGraph()).ok());
  CatalogEntry* entry = mirror.Find("g");
  for (int64_t i = 1; i <= version; ++i) {
    const auto applied = entry->ApplyEdgeBatch(BatchFor(i));
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
  }
  EXPECT_EQ(entry->version(), version);
  return SolveSlice(entry);
}

class RecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DeactivateAll(); }
};

// ------------------------------------------------- clean-restart basics

TEST_F(RecoveryTest, PersistenceRoundTripAcrossARestart) {
  const std::string dir = FreshDir("roundtrip");
  int64_t version = 0;
  {
    GraphCatalog catalog;
    ASSERT_TRUE(catalog.EnablePersistence(PersistAt(dir)).ok());
    ASSERT_TRUE(catalog.AddGraph("g", BaseGraph()).ok());
    CatalogEntry* entry = catalog.Find("g");
    ASSERT_TRUE(entry->persistent());
    for (int64_t i = 1; i <= 5; ++i) {
      const auto applied = entry->ApplyEdgeBatch(BatchFor(i));
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      version = applied.value().version;
    }
    EXPECT_EQ(version, 5);
  }  // orderly close — no crash

  GraphCatalog recovered;
  ASSERT_TRUE(recovered.EnablePersistence(PersistAt(dir)).ok());
  std::vector<std::string> names;
  ASSERT_TRUE(recovered.RecoverAll(&names).ok());
  ASSERT_EQ(names, std::vector<std::string>{"g"});
  CatalogEntry* entry = recovered.Find("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version(), 5);
  EXPECT_EQ(SolveSlice(entry), MirrorSolveSliceAt(5));
  // The recovered entry is live: it keeps accepting and logging updates.
  ASSERT_TRUE(entry->ApplyEdgeBatch(BatchFor(6)).ok());
  EXPECT_EQ(entry->version(), 6);
  EXPECT_EQ(SolveSlice(entry), MirrorSolveSliceAt(6));
}

TEST_F(RecoveryTest, WeightedEntryRecoversTooAndKeepsItsFlavor) {
  const std::string dir = FreshDir("weighted");
  {
    GraphCatalog catalog;
    ASSERT_TRUE(catalog.EnablePersistence(PersistAt(dir)).ok());
    ASSERT_TRUE(catalog
                    .AddGraph(
                        "w", UniformWeightedDigraph(20, 60, 5,
                                                    WeightOptions{}))
                    .ok());
    EdgeBatch batch = {EdgeOp::Insert(1, 2, 7), EdgeOp::Delete(0, 1)};
    ASSERT_TRUE(catalog.Find("w")->ApplyEdgeBatch(batch).ok());
  }
  GraphCatalog recovered;
  ASSERT_TRUE(recovered.EnablePersistence(PersistAt(dir)).ok());
  ASSERT_TRUE(recovered.RecoverAll().ok());
  const CatalogEntry* entry = recovered.Find("w");
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->weighted());
  EXPECT_EQ(entry->version(), 1);
}

TEST_F(RecoveryTest, ManualCheckpointFoldsTheLogAndRecoveryResumes) {
  const std::string dir = FreshDir("checkpoint");
  {
    GraphCatalog catalog;
    ASSERT_TRUE(catalog.EnablePersistence(PersistAt(dir)).ok());
    ASSERT_TRUE(catalog.AddGraph("g", BaseGraph()).ok());
    CatalogEntry* entry = catalog.Find("g");
    for (int64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(entry->ApplyEdgeBatch(BatchFor(i)).ok());
    }
    ASSERT_TRUE(entry->Checkpoint().ok());
    EXPECT_EQ(entry->wal_records(), 0);  // folded into the snapshot
    EXPECT_EQ(entry->checkpoints(), 1);
    for (int64_t i = 4; i <= 5; ++i) {
      ASSERT_TRUE(entry->ApplyEdgeBatch(BatchFor(i)).ok());
    }
    EXPECT_EQ(entry->wal_records(), 2);  // only the tail since the fold
  }
  GraphCatalog recovered;
  ASSERT_TRUE(recovered.EnablePersistence(PersistAt(dir)).ok());
  ASSERT_TRUE(recovered.RecoverAll().ok());
  CatalogEntry* entry = recovered.Find("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version(), 5);
  EXPECT_EQ(SolveSlice(entry), MirrorSolveSliceAt(5));
}

TEST_F(RecoveryTest, FsyncAlwaysMakesEveryAckReadableFromDiskAtAckTime) {
  const std::string dir = FreshDir("ack_durable");
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.EnablePersistence(PersistAt(dir)).ok());
  ASSERT_TRUE(catalog.AddGraph("g", BaseGraph()).ok());
  CatalogEntry* entry = catalog.Find("g");
  for (int64_t i = 1; i <= 4; ++i) {
    const auto applied = entry->ApplyEdgeBatch(BatchFor(i));
    ASSERT_TRUE(applied.ok());
    // The ack ordering argument, observed from outside: the instant
    // ApplyEdgeBatch returns OK, a read-only replay of the on-disk log
    // (this entry still holds it open) already contains the record —
    // append + fsync happened *before* the return that permits the ack.
    const Result<WalReplay> on_disk = ReadWal(dir + "/g.wal");
    ASSERT_TRUE(on_disk.ok());
    ASSERT_EQ(on_disk.value().records.size(), static_cast<size_t>(i));
    EXPECT_EQ(on_disk.value().records.back().version, i);
    EXPECT_EQ(FormatEdgeOps(on_disk.value().records.back().batch),
              FormatEdgeOps(BatchFor(i)));
  }
}

TEST_F(RecoveryTest, VersionGapInTheLogFailsRecoveryLoudly) {
  const std::string dir = FreshDir("gap");
  {
    GraphCatalog catalog;
    ASSERT_TRUE(catalog.EnablePersistence(PersistAt(dir)).ok());
    ASSERT_TRUE(catalog.AddGraph("g", BaseGraph()).ok());
    ASSERT_TRUE(catalog.Find("g")->ApplyEdgeBatch(BatchFor(1)).ok());
  }
  {
    // Forge a record that skips version 2 — a log no honest execution
    // produces. Recovery must refuse rather than replay across the hole.
    WalReplay replay;
    auto wal =
        WriteAheadLog::Open(dir + "/g.wal", WalOptions{}, &replay).value();
    ASSERT_EQ(replay.records.size(), 1u);
    ASSERT_TRUE(wal->Append(3, BatchFor(3)).ok());
  }
  GraphCatalog recovered;
  ASSERT_TRUE(recovered.EnablePersistence(PersistAt(dir)).ok());
  const Status status = recovered.RecoverAll();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// -------------------------------------------- bounded apply (satellite)

TEST_F(RecoveryTest, UpdateAgainstABusyEntryTimesOutRetryably) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", BaseGraph()).ok());
  CatalogEntry* entry = catalog.Find("g");

  SolveGate gate;
  std::thread solver([&] {
    DdsRequest request;
    request.algorithm = DdsAlgorithm::kCoreExact;
    request.progress = gate.AsProgress();
    (void)entry->Solve(request);
  });
  gate.WaitEntered();  // the solve now owns the entry mutex

  const auto blocked = entry->ApplyEdgeBatch(BatchFor(1), /*timeout_s=*/0.05);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(blocked.status().message().find("busy"), std::string::npos);

  gate.Release();
  solver.join();
  // Nothing was half-applied: the retry succeeds at version 1.
  const auto applied = entry->ApplyEdgeBatch(BatchFor(1), /*timeout_s=*/5);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().version, 1);
}

// --------------------------------------------------- the crash matrices

struct CrashOutcome {
  int exit_code = -1;
  int64_t highest_acked = 0;
};

// Runs the canonical update sequence in a forked child with `point`
// armed to abort after `fire_after` evaluations; every acked version is
// reported through a pipe before the next apply starts.
CrashOutcome RunCrashingChild(const std::string& dir,
                              const std::string& point, int64_t fire_after,
                              int64_t checkpoint_bytes) {
  CrashOutcome outcome;
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    alarm(120);  // a hung child must die visibly, not wedge ctest
    Failpoints::Activate(point, Failpoints::Action::kAbort, fire_after);
    GraphCatalog catalog;
    if (!catalog.EnablePersistence(PersistAt(dir, checkpoint_bytes)).ok()) {
      _exit(2);
    }
    if (!catalog.AddGraph("g", BaseGraph()).ok()) _exit(3);
    CatalogEntry* entry = catalog.Find("g");
    for (int64_t i = 1; i <= 6; ++i) {
      const auto applied = entry->ApplyEdgeBatch(BatchFor(i));
      if (!applied.ok()) _exit(4);
      const int64_t acked = applied.value().version;
      if (write(fds[1], &acked, sizeof(acked)) != sizeof(acked)) _exit(5);
    }
    _exit(0);  // the armed point was never reached on this path
  }
  close(fds[1]);
  int64_t version = 0;
  while (read(fds[0], &version, sizeof(version)) ==
         static_cast<ssize_t>(sizeof(version))) {
    outcome.highest_acked = version;
  }
  close(fds[0]);
  int wstatus = 0;
  EXPECT_EQ(waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  outcome.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  return outcome;
}

// Recovers `dir` and asserts the §16 invariant against `outcome`.
void ExpectRecoveredAtLeast(const std::string& dir,
                            const CrashOutcome& outcome,
                            const std::string& label) {
  GraphCatalog recovered;
  ASSERT_TRUE(recovered.EnablePersistence(PersistAt(dir)).ok()) << label;
  std::vector<std::string> names;
  ASSERT_TRUE(recovered.RecoverAll(&names).ok()) << label;
  if (names.empty()) {
    // Death before the entry's initial snapshot landed: nothing was
    // recoverable — and, crucially, nothing was ever acked.
    EXPECT_EQ(outcome.highest_acked, 0) << label;
    return;
  }
  CatalogEntry* entry = recovered.Find("g");
  ASSERT_NE(entry, nullptr) << label;
  // Never lose an ack; running ahead of the last ack is allowed (the
  // crash hit between durability and the ack).
  EXPECT_GE(entry->version(), outcome.highest_acked) << label;
  // Bit-identical to the never-crashed mirror at the recovered version.
  EXPECT_EQ(SolveSlice(entry), MirrorSolveSliceAt(entry->version()))
      << label;
}

// The tentpole acceptance test: kill the process at every failpoint in
// the WAL/apply/snapshot path (at two different occurrence indices), and
// prove recovery lands at or above the highest acked version with
// bit-identical solves. checkpoint_bytes=1 forces a checkpoint after
// every apply so the snapshot sites fire mid-sequence, not just at
// attach time.
TEST_F(RecoveryTest, CrashMatrixEveryFailpointRecoversBitIdentical) {
  int case_index = 0;
  for (const std::string& point : WalFailpointNames()) {
    for (const int64_t fire_after : {int64_t{0}, int64_t{2}}) {
      const std::string label =
          point + "@" + std::to_string(fire_after);
      const std::string dir =
          FreshDir("matrix_" + std::to_string(case_index++));
      const CrashOutcome outcome =
          RunCrashingChild(dir, point, fire_after, /*checkpoint_bytes=*/1);
      ASSERT_TRUE(outcome.exit_code == 0 ||
                  outcome.exit_code == Failpoints::kAbortExitCode)
          << label << " exited " << outcome.exit_code;
      ExpectRecoveredAtLeast(dir, outcome, label);
    }
  }
}

// Same matrix without auto-checkpoints: the WAL carries the whole
// history, so the apply/append sites are exercised against a long log.
TEST_F(RecoveryTest, CrashMatrixWithoutCheckpointsRecoversBitIdentical) {
  int case_index = 0;
  for (const std::string& point : WalFailpointNames()) {
    const std::string label = point + "@1/nocheckpoint";
    const std::string dir =
        FreshDir("matrix_nock_" + std::to_string(case_index++));
    const CrashOutcome outcome =
        RunCrashingChild(dir, point, /*fire_after=*/1,
                         /*checkpoint_bytes=*/0);
    ASSERT_TRUE(outcome.exit_code == 0 ||
                outcome.exit_code == Failpoints::kAbortExitCode)
        << label << " exited " << outcome.exit_code;
    ExpectRecoveredAtLeast(dir, outcome, label);
  }
}

// The full-stack variant: a forked child runs a real DdsServer over TCP
// with durability on and dies (kill -9 equivalent) mid-update under a
// live client. The parent — which only knows what was acked over the
// wire — recovers the directory and must find every acked update.
TEST_F(RecoveryTest, KilledServerProcessRecoversEveryAckedUpdate) {
  const std::string dir = FreshDir("server_kill");
  int port_pipe[2];
  ASSERT_EQ(pipe(port_pipe), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(port_pipe[0]);
    alarm(120);
    // Die on the 4th WAL append: acks 1..3 reach the wire, the 4th
    // update's record may or may not be durable — never its ack.
    Failpoints::Activate("wal:after_append", Failpoints::Action::kAbort,
                         /*fire_after=*/3);
    GraphCatalog catalog;
    if (!catalog.EnablePersistence(PersistAt(dir)).ok()) _exit(2);
    if (!catalog.AddGraph("g", BaseGraph()).ok()) _exit(3);
    DdsServer server(&catalog, ServerOptions{});
    const Result<int> port = server.Start();
    if (!port.ok()) _exit(4);
    const int value = port.value();
    if (write(port_pipe[1], &value, sizeof(value)) != sizeof(value)) {
      _exit(5);
    }
    for (;;) pause();  // server threads do the work; the abort ends us
  }
  close(port_pipe[1]);
  int port = 0;
  ASSERT_EQ(read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  close(port_pipe[0]);

  ServeClientOptions copts;
  copts.read_timeout_s = 30;
  ServeClient client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  int64_t highest_acked = 0;
  for (int64_t i = 1; i <= 10; ++i) {
    const std::string update =
        "{\"op\": \"update\", \"graph\": \"g\", \"edges\": \"" +
        FormatEdgeOps(BatchFor(i)) + "\"}";
    const Result<std::string> response = client.Call(update);
    if (!response.ok()) break;  // the server died under us
    if (FindJsonString(response.value(), "status").value_or("") != "ok") {
      break;
    }
    highest_acked = static_cast<int64_t>(
        FindJsonNumber(response.value(), "version").value_or(0));
  }
  EXPECT_EQ(highest_acked, 3);

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), Failpoints::kAbortExitCode);

  CrashOutcome outcome;
  outcome.exit_code = Failpoints::kAbortExitCode;
  outcome.highest_acked = highest_acked;
  ExpectRecoveredAtLeast(dir, outcome, "server_kill");
}

}  // namespace
}  // namespace ddsgraph
