// The durability primitives of DESIGN.md §16 in isolation: CRC32, the
// WAL record grammar (append / replay round trips, empty batches), the
// torn-tail contract — byte-truncate and bit-flip the committed file at
// every offset of the last record and recover exactly the acked prefix,
// never crash — and the snapshot writer's atomicity + corruption checks.

#include "serve/wal.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stream/edge_stream.h"
#include "util/failpoint.h"

namespace ddsgraph {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileOrDie(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// A per-test scratch path. Any leftover from a previous run of the same
// binary is removed — several tests append to the file they name, and a
// stale healed WAL would make their version sequences non-monotone.
std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

class WalTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DeactivateAll(); }
};

TEST_F(WalTest, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check vector (zlib polynomial).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Seeding chains: crc(ab) == crc(b, seed=crc(a)).
  const uint32_t whole = Crc32("durable", 7);
  EXPECT_EQ(Crc32("able", 4, Crc32("dur", 3)), whole);
}

TEST_F(WalTest, FsyncPolicyVocabulary) {
  EXPECT_EQ(ParseFsyncPolicy("always").value(), FsyncPolicy::kAlways);
  EXPECT_EQ(ParseFsyncPolicy("interval").value(), FsyncPolicy::kInterval);
  EXPECT_EQ(ParseFsyncPolicy("never").value(), FsyncPolicy::kNever);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kAlways), "always");
}

TEST_F(WalTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("roundtrip.wal");
  WalReplay replay;
  auto opened = WriteAheadLog::Open(path, WalOptions{}, &replay);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.torn_tail);

  std::vector<EdgeBatch> batches = {
      {EdgeOp::Insert(1, 2), EdgeOp::Insert(2, 3, 5)},
      {EdgeOp::Delete(1, 2)},
      {},  // a batch of nothing but no-ops formats to ""
      {EdgeOp::Insert(7, 8), EdgeOp::Delete(2, 3)},
  };
  auto& wal = opened.value();
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(wal->Append(static_cast<int64_t>(i + 1), batches[i]).ok());
  }
  EXPECT_EQ(wal->records(), 4);
  wal.reset();  // close

  const Result<WalReplay> read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().records.size(), 4u);
  EXPECT_FALSE(read.value().torn_tail);
  for (size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(read.value().records[i].version,
              static_cast<int64_t>(i + 1));
    EXPECT_EQ(FormatEdgeOps(read.value().records[i].batch),
              FormatEdgeOps(batches[i]))
        << "record " << i;
  }

  // Reopening replays the same prefix and accepts further appends.
  WalReplay again;
  auto reopened = WriteAheadLog::Open(path, WalOptions{}, &again);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(again.records.size(), 4u);
  ASSERT_TRUE(reopened.value()->Append(5, {EdgeOp::Insert(9, 1)}).ok());
  reopened.value().reset();
  EXPECT_EQ(ReadWal(path).value().records.size(), 5u);
}

TEST_F(WalTest, MissingFileIsAnEmptyReplay) {
  const Result<WalReplay> read = ReadWal(TempPath("does_not_exist.wal"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().records.empty());
  EXPECT_FALSE(read.value().torn_tail);
}

TEST_F(WalTest, ResetTruncatesBehindACheckpoint) {
  const std::string path = TempPath("reset.wal");
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay).value();
  ASSERT_TRUE(wal->Append(1, {EdgeOp::Insert(1, 2)}).ok());
  ASSERT_TRUE(wal->Reset().ok());
  EXPECT_EQ(wal->records(), 0);
  // Post-checkpoint appends resume at the snapshot's successor version.
  ASSERT_TRUE(wal->Append(2, {EdgeOp::Insert(3, 4)}).ok());
  wal.reset();
  const WalReplay read = ReadWal(path).value();
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].version, 2);
}

// The recovery invariant, mechanically: truncate the committed file to
// *every* byte length inside the last record — each prefix must replay
// exactly the first two records, flag the tear, and stay appendable
// after Open truncates the debris.
TEST_F(WalTest, ByteTruncationAtEveryOffsetRecoversTheAckedPrefix) {
  const std::string path = TempPath("torn_truncate.wal");
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay).value();
  ASSERT_TRUE(wal->Append(1, {EdgeOp::Insert(1, 2)}).ok());
  ASSERT_TRUE(wal->Append(2, {EdgeOp::Insert(2, 3), EdgeOp::Delete(1, 2)}).ok());
  const int64_t prefix_bytes = wal->bytes();
  ASSERT_TRUE(
      wal->Append(3, {EdgeOp::Insert(4, 5, 7), EdgeOp::Insert(5, 6)}).ok());
  const int64_t full_bytes = wal->bytes();
  wal.reset();
  const std::string committed = ReadFileOrDie(path);
  ASSERT_EQ(static_cast<int64_t>(committed.size()), full_bytes);

  const std::string torn = TempPath("torn_truncate_copy.wal");
  for (int64_t len = prefix_bytes; len < full_bytes; ++len) {
    WriteFileOrDie(torn, committed.substr(0, static_cast<size_t>(len)));
    const Result<WalReplay> read = ReadWal(torn);
    ASSERT_TRUE(read.ok()) << "len " << len << ": "
                           << read.status().ToString();
    EXPECT_EQ(read.value().records.size(), 2u) << "len " << len;
    EXPECT_EQ(read.value().valid_bytes, prefix_bytes) << "len " << len;
    EXPECT_EQ(read.value().torn_tail, len != prefix_bytes)
        << "len " << len;

    // Open must truncate the tear and leave an appendable log.
    WalReplay reopened;
    auto healed = WriteAheadLog::Open(torn, WalOptions{}, &reopened);
    ASSERT_TRUE(healed.ok()) << "len " << len;
    EXPECT_EQ(reopened.records.size(), 2u);
    ASSERT_TRUE(healed.value()->Append(3, {EdgeOp::Insert(8, 9)}).ok());
    healed.value().reset();
    EXPECT_EQ(ReadWal(torn).value().records.size(), 3u) << "len " << len;
  }
}

// Same invariant against corruption-in-place: flip every byte of the
// last record in turn. Whatever the flip hits — length, CRC, version or
// payload — replay must surface exactly the two intact records.
TEST_F(WalTest, BitFlipAtEveryOffsetOfTheLastRecordRecoversThePrefix) {
  const std::string path = TempPath("torn_flip.wal");
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay).value();
  ASSERT_TRUE(wal->Append(1, {EdgeOp::Insert(1, 2)}).ok());
  ASSERT_TRUE(wal->Append(2, {EdgeOp::Insert(2, 3, 4)}).ok());
  const int64_t prefix_bytes = wal->bytes();
  ASSERT_TRUE(wal->Append(3, {EdgeOp::Insert(5, 6), EdgeOp::Delete(2, 3)}).ok());
  wal.reset();
  const std::string committed = ReadFileOrDie(path);

  const std::string flipped = TempPath("torn_flip_copy.wal");
  for (size_t at = static_cast<size_t>(prefix_bytes);
       at < committed.size(); ++at) {
    std::string mutated = committed;
    mutated[at] = static_cast<char>(mutated[at] ^ 0xFF);
    WriteFileOrDie(flipped, mutated);
    const Result<WalReplay> read = ReadWal(flipped);
    ASSERT_TRUE(read.ok()) << "offset " << at << ": "
                           << read.status().ToString();
    EXPECT_EQ(read.value().records.size(), 2u) << "offset " << at;
    EXPECT_TRUE(read.value().torn_tail) << "offset " << at;
    EXPECT_EQ(read.value().valid_bytes, prefix_bytes) << "offset " << at;
  }
}

TEST_F(WalTest, FailedAppendLeavesTheLogExactlyAsItWas) {
  const std::string path = TempPath("failed_append.wal");
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay).value();
  ASSERT_TRUE(wal->Append(1, {EdgeOp::Insert(1, 2)}).ok());
  const int64_t before = wal->bytes();

  // The injected tear: Append writes the frame in two halves with this
  // point between them, then must restore the file to `before` bytes.
  Failpoints::Activate("wal:mid_append", Failpoints::Action::kError);
  const Status failed = wal->Append(2, {EdgeOp::Insert(3, 4)});
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(wal->bytes(), before);
  EXPECT_EQ(wal->records(), 1);
  EXPECT_GE(wal->sync_errors(), 1);

  // Disk agrees: one record, no debris — so a retry of the same version
  // is exactly what recovery would expect.
  EXPECT_EQ(ReadWal(path).value().records.size(), 1u);
  ASSERT_TRUE(wal->Append(2, {EdgeOp::Insert(3, 4)}).ok());
  wal.reset();
  const WalReplay read = ReadWal(path).value();
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records[1].version, 2);
}

TEST_F(WalTest, FsyncPolicyGovernsSyncCounts) {
  WalReplay replay;
  auto always =
      WriteAheadLog::Open(TempPath("always.wal"), WalOptions{}, &replay)
          .value();
  const int64_t base = always->fsyncs();
  ASSERT_TRUE(always->Append(1, {EdgeOp::Insert(1, 2)}).ok());
  ASSERT_TRUE(always->Append(2, {EdgeOp::Insert(2, 3)}).ok());
  // kAlways: one fsync per append — the ack-implies-durable policy.
  EXPECT_EQ(always->fsyncs(), base + 2);

  WalOptions lazy;
  lazy.fsync = FsyncPolicy::kInterval;
  lazy.fsync_interval_s = 3600;  // never within this test
  const std::string lazy_path = TempPath("interval.wal");
  auto interval =
      WriteAheadLog::Open(lazy_path, lazy, &replay).value();
  const int64_t ibase = interval->fsyncs();
  ASSERT_TRUE(interval->Append(1, {EdgeOp::Insert(1, 2)}).ok());
  ASSERT_TRUE(interval->Append(2, {EdgeOp::Insert(2, 3)}).ok());
  EXPECT_EQ(interval->fsyncs(), ibase);
  // The records are still crash-consistent on disk (write-through to the
  // page cache), just not durable.
  interval.reset();
  EXPECT_EQ(ReadWal(lazy_path).value().records.size(), 2u);
}

TEST_F(WalTest, InjectedFsyncFailureCountsAndFailsTheAppend) {
  WalReplay replay;
  auto wal = WriteAheadLog::Open(TempPath("fsync_fail.wal"), WalOptions{},
                                 &replay)
                 .value();
  Failpoints::Activate("wal:fsync_error", Failpoints::Action::kError);
  const Status failed = wal->Append(1, {EdgeOp::Insert(1, 2)});
  EXPECT_FALSE(failed.ok());
  EXPECT_GE(wal->sync_errors(), 1);
}

// The regression this guards: a record that reached the file but whose
// append still failed (fsync error, injected fault after the write)
// must not survive. The entry never bumps its version on a failed
// apply, so the retry reuses the version number — a leftover record
// would make the log carry it twice, and replay (correctly) refuses
// non-increasing versions, turning one transient EIO into a directory
// that can never be recovered. Each post-write failure site must roll
// back, accept the retry, and reopen cleanly.
TEST_F(WalTest, PostWriteFailureRollsBackSoTheRetryAndReopenSucceed) {
  for (const char* point :
       {"wal:after_append", "wal:fsync_error", "wal:after_fsync"}) {
    const std::string path =
        TempPath(std::string("rollback_") +
                 (point + 4) + ".wal");  // skip "wal:" for the filename
    WalReplay replay;
    auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay).value();
    ASSERT_TRUE(wal->Append(1, {EdgeOp::Insert(1, 2)}).ok()) << point;
    const int64_t before = wal->bytes();

    Failpoints::Activate(point, Failpoints::Action::kError);
    EXPECT_FALSE(wal->Append(2, {EdgeOp::Insert(3, 4)}).ok()) << point;
    Failpoints::DeactivateAll();
    // Memory and disk both back at the pre-append state.
    EXPECT_EQ(wal->bytes(), before) << point;
    EXPECT_EQ(wal->records(), 1) << point;
    EXPECT_FALSE(wal->wedged()) << point;
    EXPECT_EQ(ReadWal(path).value().records.size(), 1u) << point;

    // The entry retries the same version after the failed (un-acked)
    // update; the log must hold versions 1,2 once — and still open.
    ASSERT_TRUE(wal->Append(2, {EdgeOp::Insert(3, 4)}).ok()) << point;
    ASSERT_TRUE(wal->Append(3, {EdgeOp::Insert(5, 6)}).ok()) << point;
    wal.reset();
    WalReplay reopened;
    auto healed = WriteAheadLog::Open(path, WalOptions{}, &reopened);
    ASSERT_TRUE(healed.ok())
        << point << ": " << healed.status().ToString();
    ASSERT_EQ(reopened.records.size(), 3u) << point;
    EXPECT_EQ(reopened.records[1].version, 2) << point;
    EXPECT_EQ(reopened.records[2].version, 3) << point;
  }
}

// If Reset's truncation lands but the magic rewrite fails (ENOSPC mid
// auto-checkpoint), appending to the magic-less file would strand every
// later acked record behind an un-openable log. The log must wedge —
// refuse appends un-acked — and a reopen must recover.
TEST_F(WalTest, ResetMagicFailureWedgesInsteadOfStrandingLaterAppends) {
  const std::string path = TempPath("reset_wedge.wal");
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay).value();
  ASSERT_TRUE(wal->Append(1, {EdgeOp::Insert(1, 2)}).ok());

  Failpoints::Activate("wal:reset_magic", Failpoints::Action::kError);
  EXPECT_FALSE(wal->Reset().ok());
  EXPECT_TRUE(wal->wedged());
  EXPECT_GE(wal->sync_errors(), 1);

  // Every further append (and reset) refuses instead of writing records
  // into a file with no magic — the failure is loud, never an ack.
  const Status refused = wal->Append(2, {EdgeOp::Insert(3, 4)});
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("wedged"), std::string::npos);
  EXPECT_FALSE(wal->Reset().ok());
  wal.reset();

  // The truncated file reads as an empty log, and a restart's Open
  // re-heals it into a fresh appendable one.
  EXPECT_TRUE(ReadWal(path).value().records.empty());
  WalReplay recovered;
  auto reopened = WriteAheadLog::Open(path, WalOptions{}, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened.value()->wedged());
  ASSERT_TRUE(reopened.value()->Append(2, {EdgeOp::Insert(3, 4)}).ok());
}

// A CRC break in the *middle* of the log is corrupted acked state, not
// a torn tail: silently truncating there would discard the intact,
// acked records behind it. Flip every byte of the first record (with
// two intact records after it) and require a loud error.
TEST_F(WalTest, CorruptMiddleRecordFailsLoudlyInsteadOfTruncating) {
  const std::string path = TempPath("mid_corrupt.wal");
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay).value();
  const int64_t magic_bytes = wal->bytes();
  ASSERT_TRUE(wal->Append(1, {EdgeOp::Insert(1, 2)}).ok());
  const int64_t first_end = wal->bytes();
  ASSERT_TRUE(wal->Append(2, {EdgeOp::Insert(2, 3), EdgeOp::Delete(1, 2)}).ok());
  ASSERT_TRUE(wal->Append(3, {EdgeOp::Insert(4, 5)}).ok());
  wal.reset();
  const std::string committed = ReadFileOrDie(path);

  const std::string mutated_path = TempPath("mid_corrupt_copy.wal");
  for (size_t at = static_cast<size_t>(magic_bytes);
       at < static_cast<size_t>(first_end); ++at) {
    std::string mutated = committed;
    mutated[at] = static_cast<char>(mutated[at] ^ 0xFF);
    WriteFileOrDie(mutated_path, mutated);
    const Result<WalReplay> read = ReadWal(mutated_path);
    EXPECT_FALSE(read.ok()) << "offset " << at;
    // Open must refuse too — never heal-by-truncation across acked
    // records.
    WalReplay opened_replay;
    EXPECT_FALSE(
        WriteAheadLog::Open(mutated_path, WalOptions{}, &opened_replay)
            .ok())
        << "offset " << at;
  }
}

// A log written before vertex id UINT32_MAX was refused at parse time can
// hold a CRC-valid record naming it. Replay must fail with a Status —
// applying it would wrap the overlay's vertex count — rather than crash
// on every restart.
TEST_F(WalTest, MaxVertexIdRecordFailsReplayWithAStatus) {
  const std::string path = TempPath("max_vertex.wal");
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay).value();
  ASSERT_TRUE(wal->Append(1, {EdgeOp::Insert(1, 2)}).ok());
  ASSERT_TRUE(wal->Append(2, {EdgeOp::Insert(UINT32_MAX, 0)}).ok());
  wal.reset();
  const Result<WalReplay> read = ReadWal(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal)
      << read.status().ToString();
}

// ------------------------------------------------------------ snapshots

TEST_F(WalTest, SnapshotRoundTripUnweightedWithLabels) {
  GraphSnapshot snap;
  snap.weighted = false;
  snap.version = 7;
  snap.num_vertices = 5;
  snap.edges = {{0, 1}, {1, 2}, {4, 0}};
  snap.labels = {10, 20, 30, 40, 50};
  const std::string path = TempPath("labeled.snap");
  ASSERT_TRUE(SaveGraphSnapshot(path, snap).ok());

  const Result<GraphSnapshot> loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().weighted);
  EXPECT_EQ(loaded.value().version, 7);
  EXPECT_EQ(loaded.value().num_vertices, 5u);
  EXPECT_EQ(loaded.value().edges, snap.edges);
  EXPECT_EQ(loaded.value().labels, snap.labels);
}

TEST_F(WalTest, SnapshotRoundTripWeighted) {
  GraphSnapshot snap;
  snap.weighted = true;
  snap.version = 3;
  snap.num_vertices = 4;
  snap.weighted_edges = {{0, 1, 2}, {2, 3, 9}};
  const std::string path = TempPath("weighted.snap");
  ASSERT_TRUE(SaveGraphSnapshot(path, snap).ok());
  const Result<GraphSnapshot> loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().weighted);
  EXPECT_EQ(loaded.value().weighted_edges, snap.weighted_edges);
  EXPECT_TRUE(loaded.value().labels.empty());
}

// A snapshot is never legitimately torn (tmp + rename is atomic), so any
// corruption is a loud error — unlike the WAL's tolerated tail.
TEST_F(WalTest, CorruptSnapshotIsAnErrorNotATruncation) {
  GraphSnapshot snap;
  snap.num_vertices = 3;
  snap.edges = {{0, 1}, {1, 2}};
  const std::string path = TempPath("corrupt.snap");
  ASSERT_TRUE(SaveGraphSnapshot(path, snap).ok());
  const std::string committed = ReadFileOrDie(path);

  // Flip one byte anywhere — the CRC footer must catch it.
  for (const size_t at : {size_t{0}, committed.size() / 2}) {
    std::string mutated = committed;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
    WriteFileOrDie(path, mutated);
    EXPECT_FALSE(LoadGraphSnapshot(path).ok()) << "offset " << at;
  }
  // Truncation too.
  WriteFileOrDie(path, committed.substr(0, committed.size() - 3));
  EXPECT_FALSE(LoadGraphSnapshot(path).ok());
  EXPECT_FALSE(LoadGraphSnapshot(TempPath("absent.snap")).ok());
}

TEST_F(WalTest, SnapshotWriteFailureLeavesThePreviousSnapshotIntact) {
  GraphSnapshot v1;
  v1.num_vertices = 2;
  v1.version = 1;
  v1.edges = {{0, 1}};
  const std::string path = TempPath("atomic.snap");
  ASSERT_TRUE(SaveGraphSnapshot(path, v1).ok());

  GraphSnapshot v2 = v1;
  v2.version = 2;
  v2.edges.push_back({1, 0});
  // Die mid-tmp-write: the rename never happens, so the old snapshot
  // must still load.
  Failpoints::Activate("snap:mid_write", Failpoints::Action::kError);
  EXPECT_FALSE(SaveGraphSnapshot(path, v2).ok());
  const Result<GraphSnapshot> loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().version, 1);
  EXPECT_EQ(loaded.value().edges, v1.edges);
}

TEST_F(WalTest, FailpointCatalogCoversTheDurabilityPath) {
  const std::vector<std::string> names = WalFailpointNames();
  EXPECT_GE(names.size(), 10u);
  for (const char* required :
       {"apply:before_wal", "wal:mid_append", "wal:after_append",
        "wal:fsync_error", "apply:before_publish", "snap:mid_write",
        "snap:before_rename", "snap:after_rename", "wal:reset_magic",
        "snap:after_reset"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required),
              names.end())
        << required;
  }
}

}  // namespace
}  // namespace ddsgraph
