// Durability coverage: serializable RNG state, storage-layout-faithful
// tensor serialization, the versioned checkpoint envelope, the write-ahead
// event journal, and the central contract — restore(checkpoint) + replay of
// the journal suffix is BITWISE identical to uninterrupted execution, for
// every updater variant, shard count, and checkpoint position. Fault
// injection (truncation, bit flips, torn records, version skew) pins the
// failure taxonomy: recovery either succeeds exactly or fails with a typed
// Status — never a crash, never a silently wrong state.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "slicenstitch.h"
#include "tensor/sparse_tensor.h"

namespace sns {
namespace {

namespace fs = std::filesystem;

ContinuousCpdOptions SmallEngineOptions(SnsVariant variant) {
  ContinuousCpdOptions options;
  options.rank = 4;
  options.window_size = 3;
  options.period = 30;
  options.variant = variant;
  options.sample_threshold = 10;
  options.clip_bound = 1000.0;
  return options;
}

DataStream SmallStream(int64_t num_events, uint64_t seed) {
  SyntheticStreamConfig config;
  config.mode_dims = {6, 5};
  config.num_events = num_events;
  config.time_span = 6 * 3 * 30;
  config.diurnal_period = 90;
  config.seed = seed;
  auto stream = GenerateSyntheticStream(config);
  SNS_CHECK(stream.ok());
  return std::move(stream).value();
}

/// Splits a stream at the warm-up boundary W·T.
std::pair<std::span<const Tuple>, std::span<const Tuple>> SplitWarmup(
    const DataStream& stream, const ContinuousCpdOptions& options) {
  const std::span<const Tuple> tuples(stream.tuples());
  const int64_t warmup_end =
      static_cast<int64_t>(options.window_size) * options.period;
  const size_t i = static_cast<size_t>(stream.CountTuplesThrough(warmup_end));
  return {tuples.subspan(0, i), tuples.subspan(i)};
}

SnsService MakeService(int shards) {
  ServiceOptions options;
  options.shards = shards;
  return SnsService(options);
}

/// Fresh scratch directory (removed if a previous run left it behind).
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/sns_durability_" + tag;
  fs::remove_all(dir);
  return dir;
}

std::string CheckpointBytes(SnsService& service, const std::string& name) {
  serial::StringSink sink;
  const Status status = service.Checkpoint(name, sink);
  SNS_CHECK(status.ok());
  return sink.TakeData();
}

// --- RNG state (satellite: serializable generator state) -------------------

TEST(RngStateTest, SaveRestoreContinuesIdenticalDrawSequence) {
  Rng original(0xfeedULL);
  // Warm the generator and leave a cached Box–Muller deviate pending, the
  // subtle half of the state.
  for (int i = 0; i < 17; ++i) original.UniformDouble();
  original.Normal();

  const RngState snapshot = original.SaveState();
  Rng resumed(1);  // Different seed: everything must come from the snapshot.
  resumed.RestoreState(snapshot);
  EXPECT_EQ(resumed.SaveState(), snapshot);

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.Next(), resumed.Next());
    EXPECT_EQ(original.Normal(), resumed.Normal());
    EXPECT_EQ(original.UniformInt(0, 1000), resumed.UniformInt(0, 1000));
  }
  EXPECT_EQ(original.SaveState(), resumed.SaveState());
}

TEST(RngStateTest, CachedNormalIsPartOfTheState) {
  Rng rng(42);
  rng.Normal();  // First call caches the second Box–Muller deviate.
  const RngState with_cache = rng.SaveState();
  EXPECT_TRUE(with_cache.has_cached_normal);

  Rng resumed(42);
  resumed.RestoreState(with_cache);
  EXPECT_EQ(rng.Normal(), resumed.Normal());  // Consumes the cache.
  EXPECT_FALSE(rng.SaveState().has_cached_normal);
}

// --- SparseTensor layout fidelity -----------------------------------------

TEST(SparseTensorSerialTest, RoundTripPreservesStorageLayoutBitwise) {
  SparseTensor tensor({4, 3, 2});
  Rng rng(7);
  // Scramble the internal layout: interleave inserts and removals so pool
  // order, free-list reuse, and bucket order all diverge from insertion
  // order.
  std::vector<ModeIndex> inserted;
  for (int i = 0; i < 40; ++i) {
    ModeIndex index({static_cast<int32_t>(rng.UniformInt(0, 3)),
                     static_cast<int32_t>(rng.UniformInt(0, 2)),
                     static_cast<int32_t>(rng.UniformInt(0, 1))});
    tensor.Add(index, rng.UniformDouble(0.5, 2.0));
    inserted.push_back(index);
    if (i % 5 == 4) {
      const ModeIndex& victim = inserted[static_cast<size_t>(i / 2)];
      tensor.Add(victim, -tensor.Get(victim));  // Remove.
    }
  }
  ASSERT_GT(tensor.nnz(), 0);

  serial::StringSink sink;
  serial::Writer w(sink);
  tensor.SerializeTo(w);
  ASSERT_TRUE(w.status().ok());
  const std::string first = sink.TakeData();

  SparseTensor restored({4, 3, 2});
  serial::StringSource source(first);
  serial::Reader r(source);
  ASSERT_TRUE(restored.RestoreFrom(r).ok());
  EXPECT_EQ(restored.nnz(), tensor.nnz());

  // Byte-identical re-serialization == identical storage layout, which is
  // what makes post-restore accumulation orders (and thus trajectories)
  // bitwise equal.
  serial::StringSink sink2;
  serial::Writer w2(sink2);
  restored.SerializeTo(w2);
  ASSERT_TRUE(w2.status().ok());
  EXPECT_EQ(sink2.data(), first);
}

TEST(SparseTensorSerialTest, RestoreRejectsShapeMismatch) {
  SparseTensor tensor({4, 3, 2});
  tensor.Add(ModeIndex({1, 1, 1}), 2.0);
  serial::StringSink sink;
  serial::Writer w(sink);
  tensor.SerializeTo(w);

  SparseTensor wrong_shape({4, 3, 3});
  serial::StringSource source(sink.data());
  serial::Reader r(source);
  const Status status = wrong_shape.RestoreFrom(r);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

// --- Window schedule validation -------------------------------------------

// Scheduled entries end a window snapshot, in (due, seq) order; for a
// two-mode tuple each is due, seq, w, arity, 2 indices, value, time.
constexpr size_t kScheduledEntryBytes = 8 + 8 + 4 + 4 + 2 * 4 + 8 + 8;

std::string WindowSnapshot(const ContinuousTensorWindow& window) {
  serial::StringSink sink;
  serial::Writer w(sink);
  window.SerializeTo(w);
  return sink.TakeData();
}

Status RestoreWindowSnapshot(const std::string& bytes) {
  ContinuousTensorWindow window({4, 3}, /*window_size=*/3, /*period=*/10);
  serial::StringSource source(bytes);
  serial::Reader r(source);
  return window.RestoreFrom(r);
}

void OverwriteI64(std::string& bytes, size_t offset, int64_t value) {
  for (int b = 0; b < 8; ++b) {
    bytes[offset + b] =
        static_cast<char>(static_cast<uint64_t>(value) >> (8 * b));
  }
}

TEST(WindowScheduleSerialTest, RestoreRejectsEntryNotDueAtTupleTimePlusW) {
  // W = 3, T = 10: the tuple at t = 0 has its first slide due at 10.
  // Rewriting the tuple time to −100 leaves an entry due at 10 ≠ −100 + 10,
  // which restored as OK and then aborted the next AdvanceTo(100).
  ContinuousTensorWindow window({4, 3}, 3, 10);
  window.Ingest({{1, 2}, 2.0, 0});
  std::string bytes = WindowSnapshot(window);
  ASSERT_TRUE(RestoreWindowSnapshot(bytes).ok());
  OverwriteI64(bytes, bytes.size() - 8, -100);
  EXPECT_EQ(RestoreWindowSnapshot(bytes).code(), StatusCode::kDataLoss);
}

TEST(WindowScheduleSerialTest, RestoreRejectsEntriesOutOfDueSeqOrder) {
  ContinuousTensorWindow window({4, 3}, 3, 10);
  window.Ingest({{1, 2}, 2.0, 0});
  window.Ingest({{0, 1}, 1.0, 5});
  const std::string bytes = WindowSnapshot(window);
  ASSERT_TRUE(RestoreWindowSnapshot(bytes).ok());
  const size_t second = bytes.size() - kScheduledEntryBytes;
  const size_t first = second - kScheduledEntryBytes;
  const std::string swapped = bytes.substr(0, first) + bytes.substr(second) +
                              bytes.substr(first, kScheduledEntryBytes);
  EXPECT_EQ(RestoreWindowSnapshot(swapped).code(), StatusCode::kDataLoss);
}

TEST(WindowScheduleSerialTest, RestoreRejectsStageNewerThanTheStageBelow) {
  // Tuples at t = 0 and t = 5; by t = 10 the first has slid into stage 2
  // (due 20) while the second waits in stage 1 (due 15). Moving the stage-2
  // tuple to t = 7 (due 27) keeps every entry self-consistent and in
  // (due, seq) order, but no stream puts a t = 7 tuple a slide ahead of a
  // t = 5 one, and stage 2's arrival order would no longer be its due order.
  ContinuousTensorWindow window({4, 3}, 3, 10);
  window.Ingest({{1, 2}, 2.0, 0});
  window.Ingest({{0, 1}, 1.0, 5});
  window.AdvanceTo(10);
  std::string bytes = WindowSnapshot(window);
  ASSERT_TRUE(RestoreWindowSnapshot(bytes).ok());
  OverwriteI64(bytes, bytes.size() - kScheduledEntryBytes, 27);  // due
  OverwriteI64(bytes, bytes.size() - 8, 7);                       // time
  EXPECT_EQ(RestoreWindowSnapshot(bytes).code(), StatusCode::kDataLoss);
}

// --- Standalone StreamHandle checkpoints ----------------------------------

TEST(StreamCheckpointTest, RestoredHandleReserializesToIdenticalBytes) {
  const ContinuousCpdOptions options =
      SmallEngineOptions(SnsVariant::kRndPlus);
  const DataStream stream = SmallStream(120, 11);
  const auto [warmup, live] = SplitWarmup(stream, options);

  auto handle = StreamHandle::Create("solo", {6, 5}, options);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle.value().Warmup(warmup).ok());
  ASSERT_TRUE(handle.value().Initialize().ok());
  ASSERT_TRUE(handle.value().Ingest(live.subspan(0, live.size() / 2)).ok());

  serial::StringSink sink;
  ASSERT_TRUE(handle.value().Checkpoint(sink).ok());
  const std::string first = sink.TakeData();

  serial::StringSource source(first);
  auto restored = StreamHandle::Restore(source);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().name(), "solo");
  EXPECT_TRUE(restored.value().initialized());

  serial::StringSink sink2;
  ASSERT_TRUE(restored.value().Checkpoint(sink2).ok());
  EXPECT_EQ(sink2.data(), first);
}

TEST(StreamCheckpointTest, RestoredHandleContinuesBitwiseIdentically) {
  const ContinuousCpdOptions options = SmallEngineOptions(SnsVariant::kRnd);
  const DataStream stream = SmallStream(140, 12);
  const auto [warmup, live] = SplitWarmup(stream, options);
  const size_t half = live.size() / 2;

  auto original = StreamHandle::Create("s", {6, 5}, options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(original.value().Warmup(warmup).ok());
  ASSERT_TRUE(original.value().Initialize().ok());
  ASSERT_TRUE(original.value().Ingest(live.subspan(0, half)).ok());

  serial::StringSink mid;
  ASSERT_TRUE(original.value().Checkpoint(mid).ok());
  serial::StringSource source(mid.data());
  auto restored = StreamHandle::Restore(source);
  ASSERT_TRUE(restored.ok());

  // Both process the identical suffix; every factor value, the running
  // fitness estimate, and the full serialized state must stay bitwise equal.
  ASSERT_TRUE(original.value().Ingest(live.subspan(half)).ok());
  ASSERT_TRUE(restored.value().Ingest(live.subspan(half)).ok());
  EXPECT_EQ(original.value().RunningFitness(),
            restored.value().RunningFitness());

  serial::StringSink end_a;
  serial::StringSink end_b;
  ASSERT_TRUE(original.value().Checkpoint(end_a).ok());
  ASSERT_TRUE(restored.value().Checkpoint(end_b).ok());
  EXPECT_EQ(end_a.data(), end_b.data());
}

// --- Checkpoint fault injection -------------------------------------------

std::string MakeValidCheckpoint() {
  const ContinuousCpdOptions options =
      SmallEngineOptions(SnsVariant::kVecPlus);
  const DataStream stream = SmallStream(100, 13);
  const auto [warmup, live] = SplitWarmup(stream, options);
  auto handle = StreamHandle::Create("fi", {6, 5}, options);
  SNS_CHECK(handle.ok());
  SNS_CHECK(handle.value().Warmup(warmup).ok());
  SNS_CHECK(handle.value().Initialize().ok());
  SNS_CHECK(handle.value().Ingest(live.subspan(0, 30)).ok());
  serial::StringSink sink;
  SNS_CHECK(handle.value().Checkpoint(sink).ok());
  return sink.TakeData();
}

Status TryRestore(const std::string& bytes) {
  serial::StringSource source(bytes);
  auto restored = StreamHandle::Restore(source);
  return restored.ok() ? Status::OK() : restored.status();
}

TEST(CheckpointFaultInjectionTest, TruncationsFailTypedNeverCrash) {
  const std::string valid = MakeValidCheckpoint();
  ASSERT_TRUE(TryRestore(valid).ok());
  // Every prefix, sampled densely near the envelope fields and sparsely
  // through the payload, must fail with a typed status.
  for (size_t cut = 0; cut < valid.size();
       cut += (cut < 64 ? 1 : valid.size() / 37 + 1)) {
    const Status status = TryRestore(valid.substr(0, cut));
    EXPECT_FALSE(status.ok()) << "prefix of " << cut << " bytes restored";
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "prefix " << cut << ": " << status.ToString();
  }
}

TEST(CheckpointFaultInjectionTest, PayloadBitFlipsAreDataLoss) {
  const std::string valid = MakeValidCheckpoint();
  // Payload starts after magic+version+size (16 bytes); flip a sample of
  // bytes across it, including the embedded sequence token.
  for (size_t pos = 16; pos < valid.size() - 4; pos += valid.size() / 53 + 1) {
    std::string corrupt = valid;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    const Status status = TryRestore(corrupt);
    EXPECT_FALSE(status.ok()) << "flip at " << pos << " restored";
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "flip at " << pos << ": " << status.ToString();
  }
}

TEST(CheckpointFaultInjectionTest, ImplausiblePayloadSizeFailsTyped) {
  const std::string valid = MakeValidCheckpoint();
  // The u64 payload_size field sits at offset 8 (after magic + version).
  // Just under the 4 GiB plausibility cap: the chunked payload read runs off
  // the source's actual end and fails kDataLoss without ever attempting one
  // multi-GiB allocation.
  std::string under_cap = valid;
  const uint64_t huge = (1ull << 32) - 1;
  std::memcpy(under_cap.data() + 8, &huge, sizeof(huge));
  EXPECT_EQ(TryRestore(under_cap).code(), StatusCode::kDataLoss);

  // Past the cap: rejected before any payload byte is read.
  std::string over_cap = valid;
  const uint64_t absurd = 1ull << 33;
  std::memcpy(over_cap.data() + 8, &absurd, sizeof(absurd));
  EXPECT_EQ(TryRestore(over_cap).code(), StatusCode::kDataLoss);
}

TEST(CheckpointFaultInjectionTest, MagicAndVersionSkewAreTyped) {
  const std::string valid = MakeValidCheckpoint();
  std::string bad_magic = valid;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xFF);
  EXPECT_EQ(TryRestore(bad_magic).code(), StatusCode::kInvalidArgument);

  // Version 2 (the loss-extension generation) is also readable by this
  // build; the first unknown generation is 3.
  std::string newer_version = valid;
  newer_version[4] = static_cast<char>(3);
  EXPECT_EQ(TryRestore(newer_version).code(),
            StatusCode::kFailedPrecondition);

  // Bytes of removed modes. The options block keeps the bytes of the
  // retired float32 factor precision and the per-engine generic-kernel
  // flag, and the engine's model section still ends in a precision byte;
  // writers emit 0. A valid envelope (CRC refreshed) with 1 in any of them
  // was written in a removed mode and is refused as kDataLoss.
  constexpr size_t kPayloadStart = 16;  // magic + version + payload size.
  const size_t options_start = kPayloadStart + 8 /* sequence */ +
                               8 + 2 /* name "fi" */ + 4 + 2 * 8 /* dims */;
  const size_t option_precision_at =
      options_start + 8 /* rank */ + 4 /* W */ + 8 /* T */ + 1 /* variant */ +
      8 /* θ */ + 8 /* η */ + 1 /* nonnegative */ + 8 /* expected nnz */ +
      8 /* fitness resync interval */;
  // The model section is followed by the fitness section's "FITN" tag.
  const size_t model_precision_at = valid.find("FITN", valid.find("CPDS")) - 1;
  const struct {
    size_t pos;
    const char* removed_mode;
  } retired_bytes[] = {
      {option_precision_at, "float32 factor precision"},
      {option_precision_at + 1, "generic-kernel flag"},
      {model_precision_at, "float32 factor precision"},
  };
  for (const auto& retired : retired_bytes) {
    SCOPED_TRACE(retired.pos);
    ASSERT_EQ(valid[retired.pos], 0);
    std::string removed_mode = valid;
    removed_mode[retired.pos] = 1;
    const uint32_t crc = Crc32(removed_mode.data() + kPayloadStart,
                               removed_mode.size() - kPayloadStart - 4);
    std::memcpy(removed_mode.data() + removed_mode.size() - 4, &crc,
                sizeof(crc));
    const Status status = TryRestore(removed_mode);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
    EXPECT_NE(status.message().find(retired.removed_mode), std::string::npos)
        << status.ToString();
  }
}

// --- Journal unit behavior ------------------------------------------------

std::vector<Tuple> TinyTuples(int64_t time, int count) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < count; ++i) {
    Tuple tuple;
    tuple.index = ModeIndex({i % 3, i % 2});
    tuple.value = 1.0 + i;
    tuple.time = time;
    tuples.push_back(tuple);
  }
  return tuples;
}

TEST(JournalTest, AppendReplayRoundTrip) {
  const std::string dir = FreshDir("journal_roundtrip");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kWarmup, 0,
                             TinyTuples(5, 3))
                    .ok());
    ASSERT_TRUE(writer.value()
                    ->Append(2, durability::JournalOpType::kInitialize, 0, {})
                    .ok());
    ASSERT_TRUE(writer.value()
                    ->Append(3, durability::JournalOpType::kIngest, 0,
                             TinyTuples(9, 2))
                    .ok());
    ASSERT_TRUE(writer.value()
                    ->Append(4, durability::JournalOpType::kAdvanceTo, 77, {})
                    .ok());
  }
  std::vector<durability::JournalRecord> seen;
  auto stats = durability::ReplayJournal(
      dir, /*after_sequence=*/0, [&seen](const durability::JournalRecord& r) {
        seen.push_back(r);
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_seen, 4u);
  EXPECT_EQ(stats.value().records_applied, 4u);
  EXPECT_EQ(stats.value().last_sequence, 4u);
  EXPECT_FALSE(stats.value().torn_tail);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].op, durability::JournalOpType::kWarmup);
  EXPECT_EQ(seen[0].tuples.size(), 3u);
  EXPECT_EQ(seen[0].tuples[1].value, 2.0);
  EXPECT_EQ(seen[3].time, 77);

  // Replaying after a checkpoint at sequence 2 skips the prefix.
  auto suffix = durability::ReplayJournal(
      dir, /*after_sequence=*/2,
      [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(suffix.ok());
  EXPECT_EQ(suffix.value().records_seen, 4u);
  EXPECT_EQ(suffix.value().records_applied, 2u);
}

TEST(JournalTest, RotatesSegmentsAndReplaysAcrossThem) {
  const std::string dir = FreshDir("journal_rotation");
  durability::JournalOptions options;
  options.max_segment_bytes = 128;  // Tiny: force frequent rotation.
  {
    auto writer = durability::JournalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
    EXPECT_GT(writer.value()->segments_opened(), 1);
  }
  size_t segment_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segment_files;
  }
  EXPECT_GT(segment_files, 1u);

  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_applied, 20u);
  EXPECT_EQ(stats.value().last_sequence, 20u);
}

TEST(JournalTest, FreshWriterNeverAppendsToExistingSegments) {
  const std::string dir = FreshDir("journal_fresh_segment");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kIngest, 0,
                             TinyTuples(1, 1))
                    .ok());
  }
  {
    // A second Open (e.g. after recovery) starts a new numbered segment.
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(2, durability::JournalOpType::kIngest, 0,
                             TinyTuples(2, 1))
                    .ok());
  }
  size_t segment_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segment_files;
  }
  EXPECT_EQ(segment_files, 2u);
  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_applied, 2u);
}

std::vector<std::string> SortedSegmentPaths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

void TruncateFile(const std::string& path, int64_t drop_bytes) {
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - static_cast<uintmax_t>(drop_bytes));
}

TEST(JournalFaultInjectionTest, TornTailIsCleanlyDiscarded) {
  const std::string dir = FreshDir("journal_torn_tail");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
  }
  // Tear the final record: drop a few bytes off the only (= last) segment.
  TruncateFile(SortedSegmentPaths(dir).back(), 3);
  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().torn_tail);
  EXPECT_EQ(stats.value().records_applied, 4u);
  EXPECT_EQ(stats.value().last_sequence, 4u);
}

TEST(JournalFaultInjectionTest, TornTailIsTruncatedSoRecoveryIsRepeatable) {
  const std::string dir = FreshDir("journal_torn_repeat");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
  }
  const std::string segment = SortedSegmentPaths(dir).back();
  TruncateFile(segment, 3);
  const auto torn_size = fs::file_size(segment);

  // First replay discards the torn record AND truncates it from disk.
  auto first = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().torn_tail);
  EXPECT_EQ(first.value().records_applied, 4u);
  EXPECT_LT(fs::file_size(segment), torn_size);

  // A recovered service re-attaches: a NEW writer opens a fresh segment
  // after the (now clean) torn one and continues the token sequence.
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(5, durability::JournalOpType::kIngest, 0,
                             TinyTuples(5, 2))
                    .ok());
  }
  // Before the repair existed, this second replay hit the buried torn
  // record in a non-last segment and failed kDataLoss forever.
  auto second = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().torn_tail);
  EXPECT_EQ(second.value().records_applied, 5u);
  EXPECT_EQ(second.value().last_sequence, 5u);
}

TEST(JournalFaultInjectionTest, TornSegmentHeaderIsRemovedFromDisk) {
  const std::string dir = FreshDir("journal_torn_header");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kIngest, 0,
                             TinyTuples(1, 1))
                    .ok());
  }
  {
    // A writer that dies during segment creation leaves a partial header
    // (and, by the write-ahead contract, no acknowledged record).
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
  }
  TruncateFile(SortedSegmentPaths(dir).back(), 7);  // 12-byte header → 5.

  auto first = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().torn_tail);
  EXPECT_EQ(first.value().records_applied, 1u);
  EXPECT_EQ(SortedSegmentPaths(dir).size(), 1u);  // Torn segment removed.

  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(2, durability::JournalOpType::kIngest, 0,
                             TinyTuples(2, 1))
                    .ok());
  }
  auto second = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().torn_tail);
  EXPECT_EQ(second.value().records_applied, 2u);
}

TEST(JournalFaultInjectionTest, TruncationBeforeTheEndIsDataLoss) {
  const std::string dir = FreshDir("journal_mid_truncate");
  durability::JournalOptions options;
  options.max_segment_bytes = 128;
  {
    auto writer = durability::JournalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 12; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
    ASSERT_GT(writer.value()->segments_opened(), 1);
  }
  // A short read in a NON-final segment means acknowledged records after it
  // are gone — loss, not a torn tail.
  TruncateFile(SortedSegmentPaths(dir).front(), 5);
  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
}

TEST(JournalFaultInjectionTest, FlippedRecordByteIsDataLoss) {
  const std::string dir = FreshDir("journal_bit_flip");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
  }
  const std::string path = SortedSegmentPaths(dir).front();
  auto contents = serial::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string data = std::move(contents).value();
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x01);
  ASSERT_TRUE(serial::WriteStringToFile(path, data).ok());

  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
}

TEST(JournalFaultInjectionTest, NewerFormatVersionIsFailedPrecondition) {
  const std::string dir = FreshDir("journal_version_skew");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kIngest, 0,
                             TinyTuples(1, 1))
                    .ok());
  }
  const std::string path = SortedSegmentPaths(dir).front();
  auto contents = serial::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string data = std::move(contents).value();
  data[8] = static_cast<char>(data[8] + 1);  // Version field after u64 magic.
  ASSERT_TRUE(serial::WriteStringToFile(path, data).ok());

  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

TEST(JournalFaultInjectionTest, SequenceGapIsDataLoss) {
  const std::string dir = FreshDir("journal_seq_gap");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kIngest, 0,
                             TinyTuples(1, 1))
                    .ok());
    ASSERT_TRUE(writer.value()
                    ->Append(3, durability::JournalOpType::kIngest, 0,
                             TinyTuples(3, 1))
                    .ok());
  }
  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
}

// --- The central differential: recovery == uninterrupted ------------------

struct ProtocolInput {
  ContinuousCpdOptions options;
  std::span<const Tuple> warmup;
  std::vector<std::span<const Tuple>> batches;
  int64_t horizon = 0;
};

ProtocolInput MakeProtocol(const DataStream& stream,
                           const ContinuousCpdOptions& options) {
  ProtocolInput input;
  input.options = options;
  const auto [warmup, live] = SplitWarmup(stream, options);
  input.warmup = warmup;
  for (size_t i = 0; i < live.size(); i += 3) {
    input.batches.push_back(live.subspan(i, std::min<size_t>(3, live.size() - i)));
  }
  input.horizon = stream.tuples().back().time + options.period;
  return input;
}

/// Uninterrupted reference: the full protocol with no journal, final state
/// as checkpoint bytes.
std::string RunUninterrupted(const ProtocolInput& input, int shards) {
  SnsService service = MakeService(shards);
  SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
  SNS_CHECK(service.Warmup("s", input.warmup).ok());
  SNS_CHECK(service.Initialize("s").ok());
  for (const auto& batch : input.batches) {
    SNS_CHECK(service.Ingest("s", batch).ok());
  }
  SNS_CHECK(service.AdvanceTo("s", input.horizon).ok());
  return CheckpointBytes(service, "s");
}

enum class Interrupt { kBeforeWarmup, kMidBatches, kAfterBatches };

/// Journaled run checkpointed at `interrupt`, "crashed" at the end, then
/// recovered into a fresh service from checkpoint + journal suffix. Returns
/// the recovered service's final checkpoint bytes.
std::string RunRecovered(const ProtocolInput& input, int shards,
                         Interrupt interrupt, const std::string& dir) {
  fs::remove_all(dir);
  std::string saved;
  {
    SnsService service = MakeService(shards);
    SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
    SNS_CHECK(service.EnableJournal("s", dir).ok());
    if (interrupt == Interrupt::kBeforeWarmup) {
      saved = CheckpointBytes(service, "s");
    }
    SNS_CHECK(service.Warmup("s", input.warmup).ok());
    SNS_CHECK(service.Initialize("s").ok());
    for (size_t i = 0; i < input.batches.size(); ++i) {
      SNS_CHECK(service.Ingest("s", input.batches[i]).ok());
      if (interrupt == Interrupt::kMidBatches &&
          i + 1 == input.batches.size() / 2) {
        saved = CheckpointBytes(service, "s");
      }
    }
    if (interrupt == Interrupt::kAfterBatches) {
      saved = CheckpointBytes(service, "s");
    }
    SNS_CHECK(service.AdvanceTo("s", input.horizon).ok());
  }  // "Crash": the service dies; checkpoint + journal survive.

  SnsService recovered = MakeService(shards);
  serial::StringSource source(saved);
  auto report = durability::RecoverStream(recovered, source, dir);
  SNS_CHECK(report.ok());
  SNS_CHECK(!report.value().torn_tail);
  return CheckpointBytes(recovered, "s");
}

TEST(RecoveryDifferentialTest, AllVariantsShardsAndInterruptPoints) {
  const DataStream stream = SmallStream(130, 21);
  const SnsVariant variants[] = {SnsVariant::kMat, SnsVariant::kVec,
                                 SnsVariant::kRnd, SnsVariant::kVecPlus,
                                 SnsVariant::kRndPlus};
  const Interrupt interrupts[] = {Interrupt::kBeforeWarmup,
                                  Interrupt::kMidBatches,
                                  Interrupt::kAfterBatches};
  for (SnsVariant variant : variants) {
    const ProtocolInput input =
        MakeProtocol(stream, SmallEngineOptions(variant));
    // The trajectory is shard-invariant (pinned streams), so one reference
    // run serves every shard count.
    const std::string reference = RunUninterrupted(input, /*shards=*/0);
    for (int shards : {0, 1, 4}) {
      for (Interrupt interrupt : interrupts) {
        const std::string recovered = RunRecovered(
            input, shards, interrupt, FreshDir("differential"));
        EXPECT_EQ(recovered, reference)
            << VariantName(variant) << " shards=" << shards
            << " interrupt=" << static_cast<int>(interrupt);
      }
    }
  }
}

TEST(RecoveryDifferentialTest, ReportAccountsForReplayAndMirroredFailures) {
  const DataStream stream = SmallStream(100, 29);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string dir = FreshDir("report");
  std::string saved;
  std::string final_bytes;
  uint64_t saved_seq = 0;
  uint64_t final_seq = 0;
  {
    SnsService service = MakeService(1);
    SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
    SNS_CHECK(service.EnableJournal("s", dir).ok());
    SNS_CHECK(service.Warmup("s", input.warmup).ok());
    SNS_CHECK(service.Initialize("s").ok());
    SNS_CHECK(service.Ingest("s", input.batches[0]).ok());
    saved = CheckpointBytes(service, "s");
    saved_seq = service.AppliedSequence("s").value();
    // A request the stream rejects (time regression): it consumes a token,
    // lands in the journal, and must fail identically on replay.
    Tuple regressed = input.batches[1].front();
    regressed.time = 0;
    EXPECT_EQ(service.Ingest("s", regressed).code(),
              StatusCode::kFailedPrecondition);
    SNS_CHECK(service.Ingest("s", input.batches[1]).ok());
    final_bytes = CheckpointBytes(service, "s");
    final_seq = service.AppliedSequence("s").value();
  }
  SnsService recovered = MakeService(1);
  serial::StringSource source(saved);
  auto report = durability::RecoverStream(recovered, source, dir);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().checkpoint_sequence, saved_seq);
  EXPECT_EQ(report.value().last_sequence, final_seq);
  EXPECT_EQ(report.value().records_replayed, final_seq - saved_seq);
  EXPECT_EQ(report.value().mirrored_failures, 1u);
  EXPECT_EQ(CheckpointBytes(recovered, "s"), final_bytes);
}

TEST(RecoveryDifferentialTest, TornTailRecoveryThenReattachThenRecoverAgain) {
  // The examples/durable_service.cpp loop: crash with a torn tail, recover,
  // re-attach the journal, continue, crash again, recover again. The second
  // recovery only works because the first one truncated the torn record —
  // otherwise it sits buried in a non-last segment as permanent kDataLoss.
  const DataStream stream = SmallStream(120, 47);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVecPlus));
  const std::string dir = FreshDir("torn_reattach");
  const size_t half = input.batches.size() / 2;
  ASSERT_GE(half, 2u);
  std::string saved;
  {
    SnsService service = MakeService(1);
    SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
    SNS_CHECK(service.EnableJournal("s", dir).ok());
    SNS_CHECK(service.Warmup("s", input.warmup).ok());
    SNS_CHECK(service.Initialize("s").ok());
    saved = CheckpointBytes(service, "s");
    for (size_t i = 0; i < half; ++i) {
      SNS_CHECK(service.Ingest("s", input.batches[i]).ok());
    }
  }  // Crash #1...
  // ...mid-write of the final record: its batch was never acknowledged.
  TruncateFile(SortedSegmentPaths(dir).back(), 3);

  std::string continued;
  {
    SnsService service = MakeService(1);
    serial::StringSource source(saved);
    auto report = durability::RecoverStream(service, source, dir);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().torn_tail);
    // Re-attach and resume the feed from the torn (lost) batch onward.
    ASSERT_TRUE(service.EnableJournal("s", dir).ok());
    for (size_t i = half - 1; i < input.batches.size(); ++i) {
      ASSERT_TRUE(service.Ingest("s", input.batches[i]).ok());
    }
    continued = CheckpointBytes(service, "s");
  }  // Crash #2, this time with a clean tail.

  SnsService recovered = MakeService(1);
  serial::StringSource source(saved);
  auto report = durability::RecoverStream(recovered, source, dir);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().torn_tail);
  EXPECT_EQ(CheckpointBytes(recovered, "s"), continued);
}

// --- Service lifecycle interactions ---------------------------------------

TEST(ServiceDurabilityTest, CheckpointDuringAsyncIngestIsASequencePoint) {
  const DataStream stream = SmallStream(130, 31);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kRndPlus));

  SnsService service = MakeService(2);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  // Fire every batch asynchronously, checkpoint in the middle of the
  // barrage WITHOUT draining, then let the rest land.
  std::vector<Ticket> tickets;
  serial::StringSink sink;
  Status checkpoint_status = Status::OK();
  for (size_t i = 0; i < input.batches.size(); ++i) {
    tickets.push_back(service.IngestAsync("s", input.batches[i]));
    if (i == input.batches.size() / 2) {
      checkpoint_status = service.Checkpoint("s", sink);
    }
  }
  for (Ticket& ticket : tickets) ASSERT_TRUE(ticket.Wait().ok());
  ASSERT_TRUE(checkpoint_status.ok());

  // The checkpoint reflects a prefix of the ticketed operations: restore it
  // and verify it matches a clean run of exactly that many batches.
  serial::StringSource source(sink.data());
  SnsService restored_service = MakeService(0);
  ASSERT_TRUE(restored_service.Restore(source).ok());
  const uint64_t seq = restored_service.AppliedSequence("s").value();
  ASSERT_GE(seq, 2u);  // Warmup + Initialize.
  const uint64_t batches_included = seq - 2;
  ASSERT_LE(batches_included, input.batches.size());

  SnsService reference = MakeService(0);
  ASSERT_TRUE(reference.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(reference.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(reference.Initialize("s").ok());
  for (uint64_t i = 0; i < batches_included; ++i) {
    ASSERT_TRUE(reference.Ingest("s", input.batches[i]).ok());
  }
  EXPECT_EQ(sink.data(), CheckpointBytes(reference, "s"));
}

TEST(ServiceDurabilityTest, DurabilityCallsAfterShutdownFailTyped) {
  const DataStream stream = SmallStream(90, 37);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(1);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  const std::string valid = CheckpointBytes(service, "s");

  service.Shutdown();

  serial::StringSink sink;
  EXPECT_EQ(service.Checkpoint("s", sink).code(),
            StatusCode::kFailedPrecondition);
  serial::StringSource source(valid);
  EXPECT_EQ(service.Restore(source).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.EnableJournal("s", FreshDir("post_shutdown")).code(),
            StatusCode::kFailedPrecondition);
  // AdvanceAllTo degrades to an OK no-op, not a crash.
  EXPECT_TRUE(service.AdvanceAllTo(input.horizon).ok());
}

TEST(ServiceDurabilityTest, AdvanceAllToSurfacesJournalAppendFailure) {
  const DataStream stream = SmallStream(90, 53);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  const std::string dir = FreshDir("advance_all_journal_fail");
  durability::JournalOptions journal_options;
  journal_options.max_segment_bytes = 1;  // Every append rotates.
  ASSERT_TRUE(service.EnableJournal("s", dir, journal_options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(service.Ingest("s", input.batches[0]).ok());

  // Replace the journal directory with a plain file: the next append's
  // segment rotation fails. AdvanceAllTo must surface that as a typed
  // error, not abort the process.
  fs::remove_all(dir);
  ASSERT_TRUE(serial::WriteStringToFile(dir, "not a directory").ok());
  const Status status = service.AdvanceAllTo(input.horizon);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The failed append poisoned the stream; later mutations fail kDataLoss.
  EXPECT_EQ(service.Ingest("s", input.batches[1]).code(),
            StatusCode::kDataLoss);
}

TEST(ServiceDurabilityTest, RestoreRejectsDuplicateName) {
  const DataStream stream = SmallStream(90, 41);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  const std::string bytes = CheckpointBytes(service, "s");

  serial::StringSource source(bytes);
  EXPECT_EQ(service.Restore(source).status().code(),
            StatusCode::kFailedPrecondition);

  // A fresh service accepts it; the restored stream resumes its token.
  SnsService other = MakeService(0);
  serial::StringSource source2(bytes);
  auto restored = other.Restore(source2);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(other.AppliedSequence("s").value(),
            service.AppliedSequence("s").value());
}

TEST(ServiceDurabilityTest, EnableJournalTwiceFails) {
  const DataStream stream = SmallStream(90, 43);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  const std::string dir = FreshDir("twice");
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  EXPECT_EQ(service.EnableJournal("s", dir).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.EnableJournal("missing", dir).code(),
            StatusCode::kNotFound);
}

// --- Self-healing: quarantine + auto-recovery ------------------------------
// Faults are injected deterministically (common/failpoint.h), so the error
// paths below are ordinary unit tests: a journal append that fails
// mid-barrage, a torn write, a fault that never clears.

/// Every test starts and ends with a disarmed failpoint registry, so an
/// armed fault can never leak across tests.
class SelfHealingTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

/// Instant, reproducible recovery timing: no real sleeping, fixed jitter,
/// and (optionally) a recorded backoff schedule.
RecoveryPolicy TestPolicy(std::vector<int64_t>* backoffs = nullptr) {
  RecoveryPolicy policy;
  policy.jitter_seed = 7;
  policy.sleep_fn = [backoffs](int64_t backoff_ms) {
    if (backoffs != nullptr) backoffs->push_back(backoff_ms);
  };
  return policy;
}

std::string ReadFileBytes(const std::string& path) {
  auto source = serial::FileSource::Open(path);
  SNS_CHECK(source.ok());
  std::string bytes;
  char chunk[4096];
  for (;;) {
    auto n = source.value().ReadSome(chunk, sizeof chunk);
    SNS_CHECK(n.ok());
    if (n.value() == 0) break;
    bytes.append(chunk, n.value());
  }
  return bytes;
}

/// Parks the owning shard on the first window event after Arm() until
/// Release(). Waiting for the park after one batch, then submitting the
/// rest, queues a whole barrage before any later batch's journal append
/// runs — so an append failure injected among them cannot race the
/// producer into the quarantine's kUnavailable submit refusal.
class ParkingSink : public EventSink {
 public:
  void Arm() { armed_.store(true, std::memory_order_release); }

  /// True once the shard is parked; false (and the gate opened for good)
  /// if it did not park within `timeout`.
  bool AwaitParked(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, timeout, [this] { return parked_; })) return true;
    released_ = true;
    cv_.notify_all();
    return false;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  void OnStreamEvent(const StreamEvent&) override {
    if (!armed_.exchange(false, std::memory_order_acq_rel)) return;
    std::unique_lock<std::mutex> lock(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

// THE acceptance differential: inject a journal-append failure in the
// middle of an async barrage; the stream quarantines, auto-recovers on its
// owning shard, re-appends, and every ticket still lands OK — and the
// resumed factor state is bitwise identical to the uninterrupted run, for
// inline, one-shard, and multi-shard services.
TEST_F(SelfHealingTest, InjectedAppendFailureHealsBitwise) {
  const DataStream stream = SmallStream(120, 61);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVecPlus));
  const std::string reference = RunUninterrupted(input, /*shards=*/0);
  for (int shards : {0, 1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir = FreshDir("heal_" + std::to_string(shards));
    const std::string ckpt = dir + ".ckpt";
    fs::remove(ckpt);
    ParkingSink gate;  // Outlives the service and its shards.
    SnsService service = MakeService(shards);
    ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
    // Attached before any task touches the stream, so the raw handle
    // cannot race its shard.
    ASSERT_TRUE(service.Find("s")->AddSink(&gate).ok());
    ASSERT_TRUE(service.EnableJournal("s", dir).ok());
    ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
    ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, TestPolicy()).ok());
    ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
    ASSERT_TRUE(service.Initialize("s").ok());

    // Sharded: the shard parks inside the first batch (its append already
    // done) until the whole barrage is queued, so the failing append runs
    // with no producer left to meet the quarantine's submit-time refusal.
    // Inline execution runs each batch on this thread and needs no gate.
    if (shards > 0) gate.Arm();
    std::vector<Ticket> tickets;
    for (size_t i = 0; i < input.batches.size(); ++i) {
      if (i == input.batches.size() / 2) {
        ASSERT_TRUE(failpoint::Arm("journal.append", "once").ok());
      }
      tickets.push_back(service.IngestAsync("s", input.batches[i]));
      if (i == 0 && shards > 0) {
        ASSERT_TRUE(gate.AwaitParked(std::chrono::seconds(30)));
      }
    }
    gate.Release();
    for (Ticket& ticket : tickets) EXPECT_TRUE(ticket.Wait().ok());
    ASSERT_TRUE(service.AdvanceTo("s", input.horizon).ok());

    const StreamHealthInfo health = service.Health("s").value();
    EXPECT_EQ(health.health, StreamHealth::kHealthy);
    EXPECT_EQ(health.quarantine_count, 1u);
    EXPECT_EQ(health.recovery_attempts, 1u);
    EXPECT_EQ(health.recoveries_completed, 1u);
    EXPECT_EQ(health.last_error.code(), StatusCode::kIOError);

    EXPECT_EQ(CheckpointBytes(service, "s"), reference);

    // The healed journal is still a valid crash-recovery source: the
    // re-appended record continued the token sequence across the segment
    // the recovery opened, so checkpoint + journal rebuild the same state.
    SnsService recovered = MakeService(0);
    auto source = serial::FileSource::Open(ckpt);
    ASSERT_TRUE(source.ok());
    auto report = durability::RecoverStream(recovered, source.value(), dir);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(CheckpointBytes(recovered, "s"), reference);
  }
}

TEST_F(SelfHealingTest, TornWriteHealsBitwiseViaTailRepair) {
  const DataStream stream = SmallStream(110, 67);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string reference = RunUninterrupted(input, /*shards=*/0);
  const std::string dir = FreshDir("heal_torn");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);
  SnsService service = MakeService(1);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, TestPolicy()).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  for (size_t i = 0; i < input.batches.size(); ++i) {
    if (i == input.batches.size() / 2) {
      // The next journal write dies mid-record: half the bytes land on
      // disk — the torn-write shape, not a clean error. Recovery's replay
      // must truncate that tail before the retried append can land.
      ASSERT_TRUE(
          failpoint::Arm("serial.file_sink_short_write", "once").ok());
    }
    ASSERT_TRUE(service.Ingest("s", input.batches[i]).ok());
  }
  ASSERT_TRUE(service.AdvanceTo("s", input.horizon).ok());

  const StreamHealthInfo health = service.Health("s").value();
  EXPECT_EQ(health.health, StreamHealth::kHealthy);
  EXPECT_EQ(health.recoveries_completed, 1u);
  EXPECT_EQ(CheckpointBytes(service, "s"), reference);
}

TEST_F(SelfHealingTest, ExhaustedRecoveryFailsPermanentlyButServesQueries) {
  const DataStream stream = SmallStream(100, 71);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string dir = FreshDir("heal_exhausted");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);
  SnsService service = MakeService(1);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  std::vector<int64_t> backoffs;
  RecoveryPolicy policy = TestPolicy(&backoffs);
  policy.max_attempts = 2;
  ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, policy).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(service.Ingest("s", input.batches[0]).ok());
  const double fitness_before = service.RunningFitness("s").value();

  // A fault that never clears: every append fails, including the retried
  // one after each otherwise-successful rebuild.
  ASSERT_TRUE(failpoint::Arm("journal.append", "after:0").ok());
  EXPECT_EQ(service.Ingest("s", input.batches[1]).code(),
            StatusCode::kIOError);

  const StreamHealthInfo health = service.Health("s").value();
  EXPECT_EQ(health.health, StreamHealth::kFailed);
  EXPECT_EQ(health.quarantine_count, 1u);
  EXPECT_EQ(health.recovery_attempts, 2u);
  EXPECT_EQ(health.recoveries_completed, 0u);
  EXPECT_EQ(health.last_error.code(), StatusCode::kIOError);
  // The retry loop followed the policy's jittered schedule exactly.
  ASSERT_EQ(backoffs.size(), 2u);
  EXPECT_EQ(backoffs[0], policy.BackoffMs(1));
  EXPECT_EQ(backoffs[1], policy.BackoffMs(2));
  EXPECT_GE(backoffs[1], backoffs[0]);  // Exponential, same jitter seed.

  // kFailed is terminal stream state, not the fault lingering: mutations
  // stay refused (typed) after the fault clears, through every entry point.
  failpoint::DisarmAll();
  EXPECT_EQ(service.Ingest("s", input.batches[1]).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(service.IngestAsync("s", input.batches[1]).Wait().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(service.AdvanceTo("s", input.horizon).code(),
            StatusCode::kDataLoss);
  // Queries keep serving the last-good state.
  EXPECT_EQ(service.RunningFitness("s").value(), fitness_before);
  EXPECT_TRUE(service.Stats("s").ok());
  EXPECT_TRUE(service.TopK("s", 0, 3).ok());
}

TEST_F(SelfHealingTest, QuarantineWithoutRecoveryConfigIsTerminal) {
  const DataStream stream = SmallStream(100, 73);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(
      service.EnableJournal("s", FreshDir("heal_unconfigured")).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  ASSERT_TRUE(failpoint::Arm("journal.append", "once").ok());
  EXPECT_EQ(service.Ingest("s", input.batches[0]).code(),
            StatusCode::kIOError);

  // One transient fault, but no recovery config: the quarantine is
  // immediately terminal even though the fault never fires again.
  const StreamHealthInfo health = service.Health("s").value();
  EXPECT_EQ(health.health, StreamHealth::kFailed);
  EXPECT_EQ(health.quarantine_count, 1u);
  EXPECT_EQ(health.recovery_attempts, 0u);
  EXPECT_EQ(service.Ingest("s", input.batches[0]).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(service.Stats("s").ok());
  // A failed stream cannot re-attach a journal; it must be rebuilt.
  EXPECT_EQ(service.EnableJournal("s", FreshDir("heal_reattach")).code(),
            StatusCode::kFailedPrecondition);
}

/// Records every health edge a stream's sinks observe.
struct RecordingHealthSink : EventSink {
  struct Edge {
    StreamHealth from;
    StreamHealth to;
    int attempt;
    StatusCode cause;
  };
  std::vector<Edge> edges;
  void OnStreamEvent(const StreamEvent&) override {}
  void OnHealthTransition(const HealthTransition& transition) override {
    edges.push_back({transition.from, transition.to, transition.attempt,
                     transition.cause.code()});
  }
};

TEST_F(SelfHealingTest, HealthTransitionsAreDeliveredToSinks) {
  const DataStream stream = SmallStream(100, 79);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string dir = FreshDir("heal_sink");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, TestPolicy()).ok());
  RecordingHealthSink sink;
  ASSERT_TRUE(service.Find("s")->AddSink(&sink).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  ASSERT_TRUE(failpoint::Arm("journal.append", "once").ok());
  ASSERT_TRUE(service.Ingest("s", input.batches[0]).ok());  // Self-healed.

  // quarantine → attempt 1 → healed; the final edge arrives through the
  // REBUILT handle, proving subscriptions survive the recovery swap.
  ASSERT_EQ(sink.edges.size(), 3u);
  EXPECT_EQ(sink.edges[0].from, StreamHealth::kHealthy);
  EXPECT_EQ(sink.edges[0].to, StreamHealth::kQuarantined);
  EXPECT_EQ(sink.edges[0].attempt, 0);
  EXPECT_EQ(sink.edges[0].cause, StatusCode::kIOError);
  EXPECT_EQ(sink.edges[1].from, StreamHealth::kQuarantined);
  EXPECT_EQ(sink.edges[1].to, StreamHealth::kRecovering);
  EXPECT_EQ(sink.edges[1].attempt, 1);
  EXPECT_EQ(sink.edges[2].from, StreamHealth::kRecovering);
  EXPECT_EQ(sink.edges[2].to, StreamHealth::kHealthy);
  EXPECT_EQ(sink.edges[2].attempt, 1);
  EXPECT_EQ(sink.edges[2].cause, StatusCode::kOk);
}

TEST_F(SelfHealingTest, CheckpointToFileIsAtomicUnderRenameFailure) {
  const DataStream stream = SmallStream(100, 83);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  const std::string path = FreshDir("ckpt_atomic") + ".ckpt";
  fs::remove(path);
  fs::remove(path + ".tmp");
  ASSERT_TRUE(service.CheckpointToFile("s", path).ok());
  const std::string before = ReadFileBytes(path);
  EXPECT_EQ(before, CheckpointBytes(service, "s"));

  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(failpoint::Arm("checkpoint.rename", "once").ok());
  EXPECT_EQ(service.CheckpointToFile("s", path).code(), StatusCode::kIOError);
  // The failed checkpoint neither clobbered the good one nor left a temp.
  EXPECT_EQ(ReadFileBytes(path), before);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  ASSERT_TRUE(service.CheckpointToFile("s", path).ok());
  EXPECT_EQ(ReadFileBytes(path), CheckpointBytes(service, "s"));
}

TEST_F(SelfHealingTest, EnableAutoRecoveryValidatesItsPreconditions) {
  const DataStream stream = SmallStream(100, 89);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  const std::string dir = FreshDir("heal_preconditions");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);

  EXPECT_EQ(service.EnableAutoRecovery("missing", ckpt).code(),
            StatusCode::kNotFound);
  // Journal first: recovery replays checkpoint + journal.
  EXPECT_EQ(service.EnableAutoRecovery("s", ckpt).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  RecoveryPolicy zero;
  zero.max_attempts = 0;
  EXPECT_EQ(service.EnableAutoRecovery("s", ckpt, zero).code(),
            StatusCode::kInvalidArgument);
  // A checkpoint that does not exist is caught here, not mid-incident.
  EXPECT_FALSE(service.EnableAutoRecovery("s", ckpt).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  EXPECT_TRUE(service.EnableAutoRecovery("s", ckpt).ok());
}

TEST_F(SelfHealingTest, RecoverHandleRebuildsBitwiseWithoutAService) {
  const DataStream stream = SmallStream(110, 97);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVecPlus));
  const std::string dir = FreshDir("recover_handle");
  std::string saved;
  std::string final_bytes;
  uint64_t saved_seq = 0;
  uint64_t final_seq = 0;
  {
    SnsService service = MakeService(0);
    SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
    SNS_CHECK(service.EnableJournal("s", dir).ok());
    SNS_CHECK(service.Warmup("s", input.warmup).ok());
    SNS_CHECK(service.Initialize("s").ok());
    SNS_CHECK(service.Ingest("s", input.batches[0]).ok());
    saved = CheckpointBytes(service, "s");
    saved_seq = service.AppliedSequence("s").value();
    SNS_CHECK(service.Ingest("s", input.batches[1]).ok());
    SNS_CHECK(service.Ingest("s", input.batches[2]).ok());
    final_bytes = CheckpointBytes(service, "s");
    final_seq = service.AppliedSequence("s").value();
  }
  serial::StringSource source(saved);
  auto recovered = durability::RecoverHandle(source, dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().report.checkpoint_sequence, saved_seq);
  EXPECT_EQ(recovered.value().report.last_sequence, final_seq);
  EXPECT_EQ(recovered.value().report.records_replayed, final_seq - saved_seq);
  EXPECT_FALSE(recovered.value().report.torn_tail);
  serial::StringSink sink;
  ASSERT_TRUE(durability::WriteStreamCheckpoint(recovered.value().handle,
                                                final_seq, sink)
                  .ok());
  EXPECT_EQ(sink.data(), final_bytes);
}

TEST_F(SelfHealingTest, HostileInputIsRefusedBeforeJournaling) {
  const DataStream stream = SmallStream(100, 101);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string dir = FreshDir("admission");
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  const std::string saved = CheckpointBytes(service, "s");
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(service.Ingest("s", input.batches[0]).ok());
  const uint64_t seq = service.AppliedSequence("s").value();

  // NaN, infinity, out-of-range and wrong-arity coordinates: refused with
  // kInvalidArgument at admission — before a token is issued — through
  // both the sync and the ticketed entry points.
  const std::vector<Tuple> nan_batch = {
      {{1, 1}, std::numeric_limits<double>::quiet_NaN(), 95}};
  const std::vector<Tuple> inf_batch = {
      {{1, 1}, std::numeric_limits<double>::infinity(), 95}};
  const std::vector<Tuple> range_batch = {{{6, 0}, 1.0, 95}};
  const std::vector<Tuple> arity_batch = {{{1, 1, 1}, 1.0, 95}};
  for (const auto& batch : {nan_batch, inf_batch, range_batch, arity_batch}) {
    EXPECT_EQ(service.Ingest("s", batch).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(service.IngestAsync("s", batch).Wait().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(service.Warmup("s", batch).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(service.AppliedSequence("s").value(), seq);

  // Nothing hostile reached the journal: replay rebuilds the live state
  // from exactly the acknowledged records, with no mirrored failures.
  serial::StringSource source(saved);
  auto recovered = durability::RecoverHandle(source, dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().report.records_replayed, seq);
  EXPECT_EQ(recovered.value().report.mirrored_failures, 0u);
  serial::StringSink sink;
  ASSERT_TRUE(durability::WriteStreamCheckpoint(recovered.value().handle,
                                                seq, sink)
                  .ok());
  EXPECT_EQ(sink.data(), CheckpointBytes(service, "s"));
}

}  // namespace
}  // namespace sns
