// Coverage of the telemetry subsystem (src/telemetry/) and its service
// integration: histogram bucket math against the documented boundaries,
// merge algebra, percentile accuracy against a sorted-vector reference,
// concurrent recording (this file runs under the ThreadSanitizer CI job),
// mailbox traffic counters, the sequence-consistent ServiceMetricsSnapshot,
// the periodic OnMetrics exporter, and the differential guarantee that
// enabling telemetry leaves factor state bitwise unchanged.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/mailbox.h"
#include "slicenstitch.h"

namespace sns {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::HistogramSnapshot;
using telemetry::LatencyHistogram;
using telemetry::MetricsRegistry;
using telemetry::ScopedTimer;
using telemetry::ServiceMetricsSnapshot;
using telemetry::ShardMetrics;
using telemetry::StreamMetricsSnapshot;

// --- Counters and gauges --------------------------------------------------

TEST(CountersTest, ConcurrentAddsAllLand) {
  Counter counter;
  Gauge gauge;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add(1);
        gauge.Add(1);
        gauge.Add(-1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Get(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge.Get(), 0);
  EXPECT_GE(gauge.Peak(), 1);
  EXPECT_LE(gauge.Peak(), kThreads);
}

TEST(CountersTest, GaugePeakIsHighWaterMark) {
  Gauge gauge;
  gauge.Add(3);
  gauge.Add(4);   // depth 7 — the peak.
  gauge.Add(-6);  // depth 1.
  gauge.Add(2);   // depth 3: below the peak, must not move it.
  EXPECT_EQ(gauge.Get(), 3);
  EXPECT_EQ(gauge.Peak(), 7);
}

// --- Histogram bucket math ------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreExact) {
  // Every bucket: its lower bound maps into it, its last value maps into
  // it, and the next value starts the next bucket. Buckets tile the
  // trackable range with no gaps or overlaps.
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const int64_t lower = LatencyHistogram::BucketLowerBound(i);
    const int64_t width = LatencyHistogram::BucketWidth(i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(lower), i) << "bucket " << i;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lower + width - 1), i)
        << "bucket " << i;
    if (i + 1 < LatencyHistogram::kNumBuckets) {
      EXPECT_EQ(lower + width, LatencyHistogram::BucketLowerBound(i + 1))
          << "bucket " << i;
      EXPECT_EQ(LatencyHistogram::BucketIndex(lower + width), i + 1)
          << "bucket " << i;
    }
    // The documented error bound: width <= lower/16 above the unit range,
    // so a bucket-midpoint representative is within 6.25% of any member.
    if (i >= LatencyHistogram::kSubBuckets) {
      EXPECT_LE(width * LatencyHistogram::kSubBuckets, lower)
          << "bucket " << i;
    } else {
      EXPECT_EQ(width, 1);
      EXPECT_EQ(lower, i);
    }
  }
  // The top bucket ends exactly at kMaxTrackable.
  const int last = LatencyHistogram::kNumBuckets - 1;
  EXPECT_EQ(LatencyHistogram::BucketIndex(LatencyHistogram::kMaxTrackable),
            last);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(last) +
                LatencyHistogram::BucketWidth(last) - 1,
            LatencyHistogram::kMaxTrackable);
}

TEST(HistogramTest, RecordClampsButTracksExactExtremes) {
  LatencyHistogram histogram;
  histogram.Record(-17);  // Clock anomaly: clamps to 0.
  const int64_t huge = LatencyHistogram::kMaxTrackable + 12345;
  histogram.Record(huge);  // Beyond the top bucket: clamps for bucketing.
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, huge);  // The true extreme survives the clamp.
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[LatencyHistogram::kNumBuckets - 1], 1u);
  // Percentile never reports beyond the observed range.
  EXPECT_LE(snap.Percentile(0.999), huge);
  EXPECT_EQ(snap.Percentile(1.0), huge);
  EXPECT_EQ(snap.Percentile(0.0), 0);
}

HistogramSnapshot SnapshotOf(const std::vector<int64_t>& values) {
  LatencyHistogram histogram;
  for (const int64_t v : values) histogram.Record(v);
  return histogram.Snapshot();
}

void ExpectSnapshotsEqual(const HistogramSnapshot& a,
                          const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int64_t> dist(0, int64_t{1} << 30);
  std::vector<std::vector<int64_t>> sets(3);
  for (size_t s = 0; s < sets.size(); ++s) {
    for (int i = 0; i < 500; ++i) sets[s].push_back(dist(rng));
  }
  const HistogramSnapshot a = SnapshotOf(sets[0]);
  const HistogramSnapshot b = SnapshotOf(sets[1]);
  const HistogramSnapshot c = SnapshotOf(sets[2]);

  HistogramSnapshot left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  HistogramSnapshot bc = b;     // a + (b + c)
  bc.Merge(c);
  HistogramSnapshot right = a;
  right.Merge(bc);
  ExpectSnapshotsEqual(left, right);

  HistogramSnapshot ab = a;     // a + b == b + a
  ab.Merge(b);
  HistogramSnapshot ba = b;
  ba.Merge(a);
  ExpectSnapshotsEqual(ab, ba);

  // Empty is the identity, on both sides.
  HistogramSnapshot with_empty = a;
  with_empty.Merge(HistogramSnapshot{});
  ExpectSnapshotsEqual(with_empty, a);
  HistogramSnapshot from_empty;
  from_empty.Merge(a);
  ExpectSnapshotsEqual(from_empty, a);

  // The merged result equals recording the union directly.
  std::vector<int64_t> all = sets[0];
  all.insert(all.end(), sets[1].begin(), sets[1].end());
  all.insert(all.end(), sets[2].begin(), sets[2].end());
  ExpectSnapshotsEqual(left, SnapshotOf(all));
}

TEST(HistogramTest, PercentilesTrackSortedReferenceWithinErrorBound) {
  // Randomized workloads spanning several magnitudes: every reported
  // percentile must sit within the documented 6.25% relative quantization
  // error of the exact order statistic.
  for (const uint64_t seed : {1u, 7u, 99u}) {
    std::mt19937_64 rng(seed);
    std::lognormal_distribution<double> dist(10.0, 2.0);  // ~2e4 ns median.
    std::vector<int64_t> values;
    LatencyHistogram histogram;
    for (int i = 0; i < 5000; ++i) {
      const int64_t v = static_cast<int64_t>(dist(rng));
      values.push_back(v);
      histogram.Record(v);
    }
    std::sort(values.begin(), values.end());
    const HistogramSnapshot snap = histogram.Snapshot();
    ASSERT_EQ(snap.count, values.size());
    for (const double q : {0.50, 0.90, 0.99, 0.999}) {
      const size_t rank = static_cast<size_t>(
          std::ceil(q * static_cast<double>(values.size())));
      const int64_t exact = values[rank - 1];
      const int64_t reported = snap.Percentile(q);
      EXPECT_NEAR(static_cast<double>(reported),
                  static_cast<double>(exact),
                  0.0625 * static_cast<double>(exact) + 1.0)
          << "seed " << seed << " q " << q;
    }
    EXPECT_EQ(snap.min, values.front());
    EXPECT_EQ(snap.max, values.back());
  }
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(t * kPerThread + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  const int64_t total = kThreads * kPerThread;
  EXPECT_EQ(snap.sum, total * (total - 1) / 2);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, total - 1);
}

TEST(HistogramTest, SnapshotRacingRecordersStaysInternallyConsistent) {
  // Snapshots taken while recorders run must never report a rank outside
  // their own bucket tallies (count is derived from the buckets) and never
  // a percentile outside the observed extremes.
  LatencyHistogram histogram;
  constexpr uint64_t kSamples = 200000;
  std::atomic<bool> done{false};
  std::thread recorder([&] {
    std::mt19937_64 rng(3);
    std::uniform_int_distribution<int64_t> dist(1, 1 << 20);
    for (uint64_t i = 0; i < kSamples; ++i) histogram.Record(dist(rng));
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    const HistogramSnapshot snap = histogram.Snapshot();
    uint64_t tallied = 0;
    for (const uint64_t b : snap.buckets) tallied += b;
    EXPECT_EQ(snap.count, tallied);
    EXPECT_LE(snap.count, kSamples);
    if (snap.count > 0) {
      const int64_t p99 = snap.Percentile(0.99);
      EXPECT_GE(p99, snap.min);
      EXPECT_LE(p99, snap.max);
    }
  }
  recorder.join();
  EXPECT_EQ(histogram.Snapshot().count, kSamples);
}

TEST(ScopedTimerTest, RecordsElapsedAndToleratesNull) {
  LatencyHistogram histogram;
  {
    ScopedTimer timer(&histogram);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GT(timer.ElapsedNanos(), 0);
  }
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.min, 1000000);  // Slept >= 2 ms; allow a coarse clock.
  { ScopedTimer disabled(nullptr); }  // Null histogram: records nothing.
}

// --- Registry -------------------------------------------------------------

TEST(MetricsRegistryTest, StreamDomainsAreStableAndReused) {
  MetricsRegistry registry(2);
  EXPECT_EQ(registry.num_shards(), 2);
  telemetry::StreamMetrics* first = registry.RegisterStream("s", 1);
  first->tuples_ingested.Add(5);
  // Re-registration (stream re-created) reuses the domain and re-pins.
  telemetry::StreamMetrics* again = registry.RegisterStream("s", 0);
  EXPECT_EQ(first, again);
  EXPECT_EQ(again->shard, 0);
  EXPECT_EQ(again->tuples_ingested.Get(), 5u);

  registry.RegisterStream("a", 1);
  const ServiceMetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.shards.size(), 2u);
  ASSERT_EQ(snap.streams.size(), 2u);
  EXPECT_EQ(snap.streams[0].name, "a");  // Sorted by name.
  EXPECT_EQ(snap.streams[1].name, "s");
  EXPECT_EQ(snap.streams[1].tuples_ingested, 5u);
}

TEST(MetricsRegistryTest, SnapshotMergesHotPathHistogramsAcrossShards) {
  MetricsRegistry registry(3);
  registry.shard(0).ingest_latency_ns.Record(100);
  registry.shard(1).ingest_latency_ns.Record(200);
  registry.shard(2).ingest_latency_ns.Record(300);
  registry.shard(1).apply_ns.Record(50);
  const ServiceMetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.ingest_latency_ns.count, 3u);
  EXPECT_EQ(snap.ingest_latency_ns.min, 100);
  EXPECT_EQ(snap.ingest_latency_ns.max, 300);
  EXPECT_EQ(snap.apply_ns.count, 1u);
}

// --- Mailbox traffic counters --------------------------------------------

TEST(MailboxMetricsTest, CountsPushesDepthAndRefusals) {
  ShardMetrics metrics;
  Mailbox mailbox(1, &metrics);
  ASSERT_EQ(mailbox.Push([] {}, /*block=*/false), Mailbox::PushResult::kOk);
  EXPECT_EQ(metrics.mailbox_pushes.Get(), 1u);
  EXPECT_EQ(metrics.queue_depth.Get(), 1);

  // Full, non-blocking: refused and tallied.
  EXPECT_EQ(mailbox.Push([] {}, /*block=*/false), Mailbox::PushResult::kFull);
  EXPECT_EQ(metrics.mailbox_rejected.Get(), 1u);

  // Full, blocking with an already-expired deadline: counts one blocked
  // producer and one deadline refusal.
  EXPECT_EQ(mailbox.Push([] {}, /*block=*/true,
                         std::chrono::steady_clock::now() -
                             std::chrono::milliseconds(1)),
            Mailbox::PushResult::kTimedOut);
  EXPECT_EQ(metrics.mailbox_blocked.Get(), 1u);
  EXPECT_EQ(metrics.mailbox_deadline_exceeded.Get(), 1u);

  Task task;
  ASSERT_TRUE(mailbox.Pop(task));
  EXPECT_EQ(metrics.queue_depth.Get(), 0);
  EXPECT_EQ(metrics.queue_depth.Peak(), 1);
  task();
  mailbox.TaskDone();
  mailbox.Close();
  EXPECT_EQ(metrics.mailbox_pushes.Get(), 1u);  // Refusals never counted.
}

// --- Service integration --------------------------------------------------

ContinuousCpdOptions SmallEngineOptions() {
  ContinuousCpdOptions options;
  options.rank = 4;
  options.window_size = 3;
  options.period = 30;
  options.variant = SnsVariant::kRndPlus;
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

std::pair<std::span<const Tuple>, std::span<const Tuple>> SplitWarmup(
    const DataStream& stream, const ContinuousCpdOptions& options) {
  const std::span<const Tuple> tuples(stream.tuples());
  const int64_t warmup_end =
      static_cast<int64_t>(options.window_size) * options.period;
  const size_t i =
      static_cast<size_t>(stream.CountTuplesThrough(warmup_end));
  return {tuples.subspan(0, i), tuples.subspan(i)};
}

TEST(ServiceTelemetryTest, MetricsAreOffByDefault) {
  SnsService service{ServiceOptions{}};
  EXPECT_FALSE(service.metrics_enabled());
  EXPECT_EQ(service.Metrics().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServiceTelemetryTest, SnapshotIsSequenceConsistentAfterAsyncBarrage) {
  const ContinuousCpdOptions options = SmallEngineOptions();
  ServiceOptions runtime;
  runtime.shards = 2;
  runtime.metrics.enabled = true;
  SnsService service(runtime);
  ASSERT_TRUE(service.metrics_enabled());

  const std::vector<std::string> names = {"u", "v"};
  std::vector<DataStream> streams;
  std::vector<std::span<const Tuple>> lives;
  for (size_t s = 0; s < names.size(); ++s) {
    streams.push_back(SmallStream(500, 31 + s));
    ASSERT_TRUE(service.CreateStream(names[s], {6, 5}, options).ok());
    const auto [warm, live] = SplitWarmup(streams[s], options);
    ASSERT_TRUE(service.Warmup(names[s], warm).ok());
    ASSERT_TRUE(service.Initialize(names[s]).ok());
    lives.push_back(live);
  }

  // Fire an async barrage, then query Metrics() WITHOUT draining: the
  // snapshot barrier must observe every batch whose ticket was issued
  // before it.
  size_t batches = 0;
  size_t live_tuples = 0;
  std::vector<Ticket> tickets;
  for (size_t s = 0; s < names.size(); ++s) {
    for (size_t offset = 0; offset < lives[s].size(); offset += 40) {
      const size_t n = std::min<size_t>(40, lives[s].size() - offset);
      tickets.push_back(
          service.IngestAsync(names[s], lives[s].subspan(offset, n)));
      ++batches;
      live_tuples += n;
    }
  }
  const ServiceMetricsSnapshot snap = service.Metrics().value();
  for (const Ticket& ticket : tickets) EXPECT_TRUE(ticket.Wait().ok());

  // Hot path: every async batch flowed through a mailbox and recorded an
  // ingest-to-ticket latency sample.
  ASSERT_EQ(snap.shards.size(), 2u);
  uint64_t pushes = 0;
  uint64_t tasks = 0;
  for (const auto& shard : snap.shards) {
    pushes += shard.mailbox_pushes;
    tasks += shard.tasks_executed;
    EXPECT_EQ(shard.queue_depth, 0);  // Barrier drained the queue.
  }
  EXPECT_GE(pushes, batches);
  EXPECT_GE(tasks, batches);
  EXPECT_GE(snap.ingest_latency_ns.count, batches);
  EXPECT_GT(snap.ingest_latency_ns.max, 0);
  EXPECT_GT(snap.ingest_latency_ns.Percentile(0.99), 0);
  EXPECT_GE(snap.ingest_latency_ns.Percentile(0.99),
            snap.ingest_latency_ns.Percentile(0.50));
  EXPECT_GE(snap.apply_ns.count, batches);

  // Per-stream: the barrage is fully reflected although nothing was
  // explicitly drained before the query.
  ASSERT_EQ(snap.streams.size(), 2u);
  uint64_t tuples = 0;
  for (const auto& stream : snap.streams) {
    EXPECT_GT(stream.batches_applied, 0u);
    tuples += stream.tuples_ingested;
  }
  EXPECT_GE(tuples, live_tuples);
  service.Shutdown();
}

TEST(ServiceTelemetryTest, RejectedPushesAreCounted) {
  const ContinuousCpdOptions options = SmallEngineOptions();
  ServiceOptions runtime;
  runtime.shards = 1;
  runtime.backpressure = BackpressurePolicy::kReject;
  runtime.metrics.enabled = true;
  SnsService service(runtime);
  DataStream stream = SmallStream(300, 77);
  const auto [warm, live] = SplitWarmup(stream, options);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, options).ok());
  ASSERT_TRUE(service.Warmup("s", warm).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  // Deterministic full-queue injection: the next push reports kFull.
  failpoint::Arm("mailbox.push", "once");
  const Ticket refused = service.IngestAsync("s", live.subspan(0, 10));
  EXPECT_EQ(refused.Wait().code(), StatusCode::kResourceExhausted);
  failpoint::Disarm("mailbox.push");

  const ServiceMetricsSnapshot snap = service.Metrics().value();
  ASSERT_EQ(snap.shards.size(), 1u);
  EXPECT_EQ(snap.shards[0].mailbox_rejected, 1u);
  service.Shutdown();
}

TEST(ServiceTelemetryTest, JournalAndCheckpointCountersTally) {
  const ContinuousCpdOptions options = SmallEngineOptions();
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/sns_telemetry_journal";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServiceOptions runtime;
  runtime.metrics.enabled = true;  // Inline service: shards = 0.
  SnsService service(runtime);
  DataStream stream = SmallStream(300, 5);
  const auto [warm, live] = SplitWarmup(stream, options);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir + "/journal").ok());
  ASSERT_TRUE(service.Warmup("s", warm).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(service.Ingest("s", live.subspan(0, 50)).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", dir + "/ckpt.sns").ok());

  const ServiceMetricsSnapshot snap = service.Metrics().value();
  ASSERT_EQ(snap.streams.size(), 1u);
  const StreamMetricsSnapshot& s = snap.streams[0];
  EXPECT_GE(s.journal_appends, 1u);  // At least the live Ingest batch.
  EXPECT_GT(s.journal_bytes, 0u);
  EXPECT_EQ(s.journal_appends, s.journal_append_ns.count);
  EXPECT_EQ(s.checkpoint_writes, 1u);
  EXPECT_GT(s.checkpoint_bytes, 0u);
  EXPECT_EQ(s.checkpoint_write_ns.count, 1u);
  // Inline parity: the inline path still records apply and ingest latency.
  EXPECT_GT(snap.ingest_latency_ns.count, 0u);
  EXPECT_GT(snap.apply_ns.count, 0u);
  fs::remove_all(dir);
}

// Counts OnMetrics deliveries; ignores window events.
class TickCountingSink : public EventSink {
 public:
  void OnStreamEvent(const StreamEvent& event) override { (void)event; }
  void OnMetrics(const StreamMetricsSnapshot& metrics) override {
    last_tuples_.store(metrics.tuples_ingested, std::memory_order_relaxed);
    ticks_.fetch_add(1, std::memory_order_relaxed);
  }
  int ticks() const { return ticks_.load(std::memory_order_relaxed); }
  uint64_t last_tuples() const {
    return last_tuples_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> ticks_{0};
  std::atomic<uint64_t> last_tuples_{0};
};

TEST(ServiceTelemetryTest, PeriodicExporterFiresOnMetricsAndWritesJson) {
  const ContinuousCpdOptions options = SmallEngineOptions();
  namespace fs = std::filesystem;
  const std::string json_path =
      ::testing::TempDir() + "/sns_telemetry_export.jsonl";
  fs::remove(json_path);

  ServiceOptions runtime;
  runtime.shards = 1;
  runtime.metrics.enabled = true;
  runtime.metrics.export_interval_ms = 20;
  runtime.metrics.json_path = json_path;
  TickCountingSink sink;
  {
    SnsService service(runtime);
    DataStream stream = SmallStream(300, 13);
    const auto [warm, live] = SplitWarmup(stream, options);
    ASSERT_TRUE(service.CreateStream("s", {6, 5}, options).ok());
    ASSERT_TRUE(service.Find("s")->AddSink(&sink).ok());
    ASSERT_TRUE(service.Warmup("s", warm).ok());
    ASSERT_TRUE(service.Initialize("s").ok());
    ASSERT_TRUE(service.Ingest("s", live).ok());
    // Several export intervals while the stream idles.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (sink.ticks() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    service.Shutdown();  // Stops the exporter before the shards.
  }
  EXPECT_GE(sink.ticks(), 2);
  EXPECT_GT(sink.last_tuples(), 0u);

  // The capture file holds one JSON object per line.
  std::ifstream file(json_path);
  ASSERT_TRUE(file.is_open());
  std::string line;
  int lines = 0;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ingest_latency_ns\""), std::string::npos);
    EXPECT_NE(line.find("\"streams\""), std::string::npos);
  }
  EXPECT_GE(lines, 2);
  fs::remove(json_path);
}

TEST(ServiceTelemetryTest, RemoveWaitsOutPeriodicMetricsDelivery) {
  // Regression: the exporter collected {handle, lane} under the registry
  // lock and delivered after releasing it, so a Remove in between could
  // destroy the handle under a pending OnMetrics delivery — a heap
  // use-after-free under ASan. Many bystander streams widen the
  // collect → deliver window; "zz" sorts last, so it is delivered last.
  const ContinuousCpdOptions options = SmallEngineOptions();
  for (const int shards : {0, 1}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ServiceOptions runtime;
    runtime.shards = shards;
    runtime.metrics.enabled = true;
    runtime.metrics.export_interval_ms = 1;
    SnsService service(runtime);
    for (int i = 0; i < 64; ++i) {
      const std::string name = (i < 10 ? "a0" : "a") + std::to_string(i);
      ASSERT_TRUE(service.CreateStream(name, {6, 5}, options).ok());
    }
    // Time-bounded rather than round-bounded: the race needs many exporter
    // ticks (1 ms apart) to land inside the loop, however fast a round is.
    // Before the fix one second hit it in every ASan run at shards = 1.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (std::chrono::steady_clock::now() < until) {
      ASSERT_TRUE(service.CreateStream("zz", {6, 5}, options).ok());
      ASSERT_TRUE(service.Remove("zz").ok());
    }
    EXPECT_EQ(service.stream_count(), 64);
    service.Shutdown();
  }
}

TEST(ServiceTelemetryTest, CallerLaneCountsTasksLikeAWorkerShard) {
  // Every operation is one task on its stream's lane, query hops included,
  // and every lane times its tasks through the same helper: the same op
  // sequence counts identically on the caller lane (shards = 0) and on one
  // worker shard.
  const ContinuousCpdOptions options = SmallEngineOptions();
  const DataStream stream = SmallStream(300, 17);
  const auto [warm, live] = SplitWarmup(stream, options);
  ASSERT_GE(live.size(), 40u);
  const int64_t horizon = live[39].time + 1;
  std::vector<telemetry::ShardMetricsSnapshot> lanes;
  for (const int shards : {0, 1}) {
    ServiceOptions runtime;
    runtime.shards = shards;
    runtime.metrics.enabled = true;
    SnsService service(runtime);
    ASSERT_TRUE(service.CreateStream("s", {6, 5}, options).ok());
    ASSERT_TRUE(service.Warmup("s", warm).ok());                      // 1
    ASSERT_TRUE(service.Initialize("s").ok());                        // 2
    ASSERT_TRUE(service.Ingest("s", live.subspan(0, 20)).ok());       // 3
    ASSERT_TRUE(service.IngestAsync("s", live.subspan(20, 20))        // 4
                    .Wait()
                    .ok());
    ASSERT_TRUE(service.RunningFitness("s").ok());                    // 5
    ASSERT_TRUE(service.Stats("s").ok());                             // 6
    ASSERT_TRUE(service.TopK("s", 0, 3).ok());                        // 7
    ASSERT_TRUE(service.AdvanceToAsync("s", horizon).Wait().ok());    // 8
    ASSERT_TRUE(service.AdvanceAllTo(horizon + 5).ok());  // 9 hop, 10 op
    // Joining the shard settles its last task's timing; Metrics() after
    // Shutdown takes no barrier task of its own.
    service.Shutdown();
    const ServiceMetricsSnapshot snap = service.Metrics().value();
    ASSERT_EQ(snap.shards.size(), 1u);
    lanes.push_back(snap.shards[0]);
  }
  EXPECT_EQ(lanes[0].tasks_executed, 10u);
  EXPECT_EQ(lanes[1].tasks_executed, 10u);
  EXPECT_EQ(lanes[0].apply_ns.count, lanes[1].apply_ns.count);
  EXPECT_EQ(lanes[0].apply_ns.count, 10u);
  // Six ticketed operations, each with one issue-to-completion sample.
  EXPECT_EQ(lanes[0].ingest_latency_ns.count, 6u);
  EXPECT_EQ(lanes[1].ingest_latency_ns.count, 6u);
}

// --- Differential: telemetry does not perturb factor state ----------------

std::vector<double> FactorState(SnsService& service,
                                const std::string& name) {
  return service
      .Query(name,
             [](const StreamHandle& handle) {
               std::vector<double> out;
               for (int mode = 0; mode < handle.num_modes(); ++mode) {
                 const int64_t rows =
                     mode + 1 == handle.num_modes()
                         ? handle.window_size()
                         : handle.mode_dims()[static_cast<size_t>(mode)];
                 for (int64_t row = 0; row < rows; ++row) {
                   const FactorRowView view =
                       handle.FactorRow(mode, row).value();
                   out.insert(out.end(), view.begin(), view.end());
                 }
               }
               return out;
             })
      .value();
}

TEST(ServiceTelemetryTest, EnablingTelemetryKeepsFactorStateBitwise) {
  const ContinuousCpdOptions options = SmallEngineOptions();
  const DataStream stream = SmallStream(600, 21);
  const auto [warm, live] = SplitWarmup(stream, options);

  for (const int shards : {0, 1, 4}) {
    std::vector<std::vector<double>> states;  // [metrics off, metrics on]
    for (const bool enabled : {false, true}) {
      ServiceOptions runtime;
      runtime.shards = shards;
      runtime.metrics.enabled = enabled;
      SnsService service(runtime);
      ASSERT_TRUE(service.CreateStream("s", {6, 5}, options).ok());
      ASSERT_TRUE(service.Warmup("s", warm).ok());
      ASSERT_TRUE(service.Initialize("s").ok());
      std::vector<Ticket> tickets;
      const size_t sizes[] = {1, 16, 7, 33};
      size_t next_size = 0;
      for (size_t offset = 0; offset < live.size();) {
        const size_t n =
            std::min(sizes[next_size++ % 4], live.size() - offset);
        tickets.push_back(service.IngestAsync("s", live.subspan(offset, n)));
        offset += n;
      }
      service.Drain();
      for (const Ticket& ticket : tickets) {
        ASSERT_TRUE(ticket.Wait().ok());
      }
      states.push_back(FactorState(service, "s"));
      if (enabled) {
        EXPECT_GT(service.Metrics().value().ingest_latency_ns.count, 0u);
      }
      service.Shutdown();
    }
    ASSERT_EQ(states[0].size(), states[1].size()) << "shards " << shards;
    for (size_t i = 0; i < states[0].size(); ++i) {
      // Bitwise: telemetry must not reorder or alter a single operation.
      EXPECT_EQ(states[0][i], states[1][i])
          << "shards " << shards << " index " << i;
    }
  }
}

}  // namespace
}  // namespace sns
