// End-to-end service benchmark driver.
//
//   sns_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>]
//   sns_perfbench --self-test --workload <name> [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of one run; --trace 1 runs the
// same workload with telemetry and bench-side spans on and prints the
// per-layer metrics instead. Every run ends with one JSON line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// README.md documents the workloads, the metrics and how to run them.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "common/cpu_features.h"
#include "layers.h"
#include "service_harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepetitions = 4;
// Query rounds of the post-ingest probe on workloads without a live query
// client: 5 slices of 1000, each with a p99 that has 10 samples above it.
constexpr int kProbeRounds = 5000;
// |bench.unattributed_frac| and |bench.unattributed_apply_frac| within this
// share count as reconciled.
constexpr double kUnattributedTolerance = 0.25;
// Floor of the reported fitness. Below −1 the model's loss exceeds twice
// the θ = 0 baseline's: it has diverged, and how far (the Poisson stream
// reaches −1e15) varies by orders of magnitude between seeds, which no
// relative bound can carry. The unclamped value is printed as info.
constexpr double kFitnessFloor = -1.0;
// Window spans of live tuples the fitness is averaged over: at least the
// open loop's tuples, at most those the run consumed. One seed's fitness
// swings with the stretch of stream it covers; four spans hold it steady.
constexpr int64_t kFitnessSpans = 4;

int64_t FitnessEnd(const WorkloadSpec& spec, int64_t open_items,
                   int64_t consumed) {
  return std::clamp(kFitnessSpans * spec.tuples_per_span * spec.num_streams,
                    open_items, consumed);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool self_test = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  return std::string(SNS_PERFBENCH_BUILD_TYPE) != "Debug";
#else
  return false;
#endif
}

// Host and build facts every result carries, so results of different hosts
// (core counts, kernel tiers) or builds are never compared silently.
void PrintProvenance(const Args& args) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cpus_allowed = sched_getaffinity(0, sizeof(allowed), &allowed) == 0
                               ? CPU_COUNT(&allowed)
                               : -1;
  const char* force_generic = std::getenv("SNS_FORCE_GENERIC_KERNELS");
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"cpus_allowed\": %d, \"cpu\": \"%s\", "
      "\"kernel_tier\": \"%s\", \"cpu_features\": \"%s\", \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"SNS_FORCE_GENERIC_KERNELS\": %s%s%s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, sysconf(_SC_NPROCESSORS_ONLN), cpus_allowed,
      JsonEscape(CpuModel()).c_str(),
      sns::KernelTierName(sns::ResolveKernelTier()),
      JsonEscape(sns::CpuFeaturesSummary()).c_str(), SNS_PERFBENCH_BUILD_TYPE,
      JsonEscape(__VERSION__).c_str(), force_generic ? "\"" : "",
      force_generic ? JsonEscape(force_generic).c_str() : "null",
      force_generic ? "\"" : "");
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    std::printf("metric %s %s %s\n", m.name.c_str(), number, m.unit.c_str());
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// The open loop runs first, so its tuples — and therefore its burst
// pattern — depend on the seed alone, not on how far a closed loop got.
struct RunPlan {
  int64_t open_count = 0;
  double closed_s = 0.0;
};

RunPlan PlanRun(const WorkloadSpec& spec, double seconds) {
  RunPlan plan;
  plan.closed_s = seconds * kClosedLoopShare;
  plan.open_count = static_cast<int64_t>(
      std::llround(spec.open_rate * (seconds - plan.closed_s)));
  return plan;
}

std::string WorkDir(const Args& args, const std::string& tag) {
  return args.out_dir + "/work-" + std::to_string(getpid()) + "-" + tag;
}

int RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  const Inputs inputs = GenerateInputs(spec, args.seed, args.seconds);
  const RunPlan plan = PlanRun(spec, args.seconds);
  SpanRecorder no_spans(false);

  std::vector<double> setup_s;
  std::unique_ptr<ServiceHarness> harness;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    harness.reset();
    harness = std::make_unique<ServiceHarness>(
        spec, inputs, /*metrics=*/false,
        WorkDir(args, "setup" + std::to_string(rep)), &no_spans);
    const int64_t start = NowNs();
    if (!harness->Setup()) return 1;
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  const OpenLoopResult open = harness->RunOpenLoop(plan.open_count, 1.0);
  const int64_t open_items = harness->consumed();
  const ClosedLoopResult closed = harness->RunClosedLoop(plan.closed_s);
  if (!harness->CaptureFinalState()) return 1;
  if (!spec.live_queries) harness->QueryProbe(kProbeRounds);
  const VerifyResult verify =
      VerifyAgainstInline(spec, inputs, *harness,
                          FitnessEnd(spec, open_items, harness->consumed()), 0,
                          0);

  const TailSummary ingest =
      SliceTail(open.latency_us, open.segment, open.segments);
  const TailSummary query =
      SliceTail(harness->query_latency_us(), harness->query_segment(),
                harness->query_segments());
  const int64_t attempted = harness->attempted();
  const int64_t failed = harness->failed();
  const bool fitness_ok = std::isfinite(verify.fitness);
  std::printf("info fitness %.6g (reported with floor %.0f)\n", verify.fitness,
              kFitnessFloor);
  const bool correct = verify.identical && fitness_ok && !open.backlog_grew;

  std::printf("info closed_loop_tuples %lld slice_tps",
              static_cast<long long>(closed.tuples));
  for (double rate : closed.slice_tps) std::printf(" %.0f", rate);
  std::printf("\n");
  std::printf("info ingest_samples %lld tail_quantile %.4f\n",
              static_cast<long long>(ingest.count), ingest.tail_q);
  std::printf("info query_samples %lld tail_quantile %.4f (%s)\n",
              static_cast<long long>(query.count), query.tail_q,
              spec.live_queries ? "live client during the open loop"
                                : "probe after ingestion");
  std::printf("info setup_repetitions %d\n", kSetupRepetitions);
  std::printf("info backlog_end %lld backlog_first %.1f backlog_last %.1f "
              "growth %s\n",
              static_cast<long long>(open.backlog_end), open.backlog_first,
              open.backlog_last, open.backlog_grew ? "yes" : "no");
  std::printf("info byte_identical %s%s%s\n", verify.identical ? "yes" : "no",
              verify.detail.empty() ? "" : " ", verify.detail.c_str());
  std::printf("info failed_frac %.6g (%lld of %lld operations)\n",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<int64_t>(1, attempted)),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  harness.reset();

  // Throughput and latencies spread too widely between runs on a shared
  // host to carry a bound (README.md); they are per-layer metrics of the
  // traced run and info lines here.
  std::printf("info ingest_tps %.3f ingest_p50_us %.3f ingest_p99_us %.3f "
              "query_p50_us %.3f query_p99_us %.3f\n",
              closed.segmented_tps, ingest.p50, ingest.tail, query.p50,
              query.tail);
  PrintResult(correct, attempted, failed,
              {{"fitness", std::max(kFitnessFloor, verify.fitness), "ratio"},
               {"setup_s", Quantile(setup_s, 0.5), "s"},
               {"peak_rss_mb", PeakRssMiB(), "MiB"}});
  return 0;
}

// Merges one histogram field across every stream domain of a snapshot.
template <typename Field>
sns::telemetry::HistogramSnapshot MergeStreams(
    const sns::telemetry::ServiceMetricsSnapshot& snapshot, Field field) {
  sns::telemetry::HistogramSnapshot merged;
  for (const auto& stream : snapshot.streams) merged.Merge(stream.*field);
  return merged;
}

template <typename Field>
double SumStreams(const sns::telemetry::ServiceMetricsSnapshot& snapshot,
                  Field field) {
  double sum = 0.0;
  for (const auto& stream : snapshot.streams) {
    sum += static_cast<double>(stream.*field);
  }
  return sum;
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  const Inputs inputs = GenerateInputs(spec, args.seed, args.seconds);
  const RunPlan plan = PlanRun(spec, args.seconds);
  int64_t attempted = 0;
  int64_t failed = 0;

  // Untraced closed loop: the base of telemetry.trace_overhead_frac. It
  // starts where the traced one will, after the open loop's tuples, which
  // are fed here without a schedule (and untimed).
  double untraced_tps = 0.0;
  {
    SpanRecorder no_spans(false);
    ServiceHarness untraced(spec, inputs, /*metrics=*/false,
                            WorkDir(args, "untraced"), &no_spans);
    if (!untraced.Setup()) return 1;
    untraced.RunOpenLoop(plan.open_count, /*rate_multiplier=*/1e9);
    untraced_tps = untraced.RunClosedLoop(plan.closed_s).segmented_tps;
    attempted += untraced.attempted();
    failed += untraced.failed();
  }

  SpanRecorder spans(true);
  ServiceHarness harness(spec, inputs, /*metrics=*/true,
                         WorkDir(args, "traced"), &spans);
  const int64_t setup_span = spans.Open("phase.setup");
  if (!harness.Setup()) return 1;
  spans.Close(setup_span);
  sns::SnsService& service = harness.service();
  // m0 → m1 brackets the open loop, m1 → m2 the closed loop.
  const auto m0 = service.Metrics().value();
  const OpenLoopResult open = harness.RunOpenLoop(plan.open_count, 1.0);
  const int64_t open_items = harness.consumed();
  const auto m1 = service.Metrics().value();
  const ClosedLoopResult closed = harness.RunClosedLoop(plan.closed_s);
  const int64_t closed_end = harness.consumed();
  const auto m2 = service.Metrics().value();
  if (!harness.CaptureFinalState()) return 1;
  if (!spec.live_queries) harness.QueryProbe(kProbeRounds);
  const int64_t verify_span = spans.Open("phase.verify");
  const VerifyResult verify =
      VerifyAgainstInline(spec, inputs, harness,
                          FitnessEnd(spec, open_items, closed_end),
                          open_items, closed_end);
  spans.Close(verify_span);

  const int64_t fitness_cadence =
      spec.live_queries
          ? std::max<int64_t>(
                1, open.tuples / std::max<int64_t>(
                                     1, static_cast<int64_t>(
                                            harness.fitness_marks().size())))
          : spec.engine.fitness_resync_interval;
  const CoreLayers core = MeasureCoreLayers(
      spec, inputs,
      std::min<int64_t>(open_items,
                        static_cast<int64_t>(4.0 * spec.open_rate)),
      fitness_cadence, spans);

  using sns::telemetry::HistogramSnapshot;
  using Stream = sns::telemetry::StreamMetricsSnapshot;
  const double shards = std::max(1, spec.shards);
  const double tuples = static_cast<double>(closed.tuples + open.tuples);

  // Runtime: apply / queue wait of the open loop; busy share, skew and
  // blocking of the closed loop (where the shards are saturated).
  const HistogramSnapshot apply_open = DiffHistogram(m1.apply_ns, m0.apply_ns);
  const HistogramSnapshot latency_open =
      DiffHistogram(m1.ingest_latency_ns, m0.ingest_latency_ns);
  double busy_sum = 0.0;
  double busy_max = 0.0;
  double blocked = 0.0;
  double depth_peak = 0.0;
  for (size_t i = 0; i < m2.shards.size(); ++i) {
    const double busy = static_cast<double>(
        DiffHistogram(m2.shards[i].apply_ns, m1.shards[i].apply_ns).sum);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    blocked += static_cast<double>(m2.shards[i].mailbox_blocked -
                                   m1.shards[i].mailbox_blocked);
    depth_peak = std::max(depth_peak,
                          static_cast<double>(m2.shards[i].queue_depth_peak));
  }
  const double busy_mean = busy_sum / static_cast<double>(m2.shards.size());
  const double queue_wait_ns = latency_open.Mean() - apply_open.Mean();

  // Durability and losses, from the per-stream domains.
  const HistogramSnapshot journal_open =
      DiffHistogram(MergeStreams(m1, &Stream::journal_append_ns),
                    MergeStreams(m0, &Stream::journal_append_ns));
  const HistogramSnapshot checkpoint_write =
      DiffHistogram(MergeStreams(m2, &Stream::checkpoint_write_ns),
                    MergeStreams(m0, &Stream::checkpoint_write_ns));
  const HistogramSnapshot loss_open =
      DiffHistogram(MergeStreams(m1, &Stream::loss_update_ns),
                    MergeStreams(m0, &Stream::loss_update_ns));
  const double ingested = SumStreams(m2, &Stream::tuples_ingested) -
                          SumStreams(m0, &Stream::tuples_ingested);
  const double journal_bytes = SumStreams(m2, &Stream::journal_bytes) -
                               SumStreams(m0, &Stream::journal_bytes);
  const double checkpoint_writes = SumStreams(m2, &Stream::checkpoint_writes) -
                                   SumStreams(m0, &Stream::checkpoint_writes);
  const double checkpoint_bytes = SumStreams(m2, &Stream::checkpoint_bytes) -
                                  SumStreams(m0, &Stream::checkpoint_bytes);
  const double captures = SumStreams(m2, &Stream::outlier_captures) -
                          SumStreams(m0, &Stream::outlier_captures);

  // Reconciliation. Per-tuple latency (send → completion) against
  // api.submit + runtime.queue_wait + runtime.apply; inline, the apply runs
  // inside the submit call. Then apply per task against core.process_tuple
  // per tuple + journal append per task: over the open loop, whose first
  // tuples the core replay covers, unless live queries share its tasks —
  // then over the closed loop, where only ingest tasks run.
  const TailSummary submit = SummarizeTail(open.submit_ns);
  const double latency_mean = Mean(open.send_to_done_ns);
  const double covered = spec.shards == 0
                             ? Mean(open.submit_ns)
                             : Mean(open.submit_ns) + queue_wait_ns +
                                   apply_open.Mean();
  const double unattributed =
      latency_mean > 0.0 ? 1.0 - covered / latency_mean : 0.0;
  const bool ingest_only_open = !spec.live_queries;
  const HistogramSnapshot apply_ingest =
      ingest_only_open ? apply_open : DiffHistogram(m2.apply_ns, m1.apply_ns);
  const HistogramSnapshot journal_ingest =
      ingest_only_open
          ? journal_open
          : DiffHistogram(MergeStreams(m2, &Stream::journal_append_ns),
                          MergeStreams(m1, &Stream::journal_append_ns));
  const double apply_covered =
      core.process_tuple_mean_ns * static_cast<double>(spec.batch) +
      journal_ingest.Mean();
  const double unattributed_apply =
      apply_ingest.Mean() > 0.0 ? 1.0 - apply_covered / apply_ingest.Mean()
                                : 0.0;

  const bool correct = verify.identical && std::isfinite(verify.fitness) &&
                       !open.backlog_grew;
  attempted += harness.attempted();
  failed += harness.failed();

  const TailSummary late = SummarizeTail(open.late_us);
  const TailSummary ingest =
      SliceTail(open.latency_us, open.segment, open.segments);
  const TailSummary query =
      SliceTail(harness.query_latency_us(), harness.query_segment(),
                harness.query_segments());
  std::printf("info reconciliation latency_mean_ns %.0f submit_ns %.0f "
              "queue_wait_ns %.0f apply_ns %.0f -> unattributed %.3f "
              "(tolerance +-%.2f: %s)\n",
              latency_mean, Mean(open.submit_ns), queue_wait_ns,
              apply_open.Mean(), unattributed, kUnattributedTolerance,
              std::fabs(unattributed) <= kUnattributedTolerance ? "within"
                                                                : "outside");
  std::printf("info reconciliation %s apply_ns %.0f process_tuple_ns %.0f "
              "x %d + journal_append_ns %.0f -> unattributed %.3f (tolerance "
              "+-%.2f: %s)\n",
              ingest_only_open ? "open-loop" : "closed-loop",
              apply_ingest.Mean(), core.process_tuple_mean_ns, spec.batch,
              journal_ingest.Mean(), unattributed_apply,
              kUnattributedTolerance,
              std::fabs(unattributed_apply) <= kUnattributedTolerance
                  ? "within"
                  : "outside");
  std::printf("info input_properties sampling_active_frac %.4f "
              "slice_nnz_p99 %.0f events_per_tuple %.3f (Theorem 1 bound "
              "W+1 = %d)\n",
              core.sampling_active_frac, core.slice_nnz_p99,
              core.events_per_tuple, spec.engine.window_size + 1);
  std::printf("info samples open_loop %lld submit %lld late_tail_q %.4f "
              "core_replay %lld process_tuple %lld\n",
              static_cast<long long>(open.tuples),
              static_cast<long long>(submit.count), late.tail_q,
              static_cast<long long>(core.tuples),
              static_cast<long long>(core.process_tuple_ns.count));
  std::printf("info backlog_end %lld growth %s\n",
              static_cast<long long>(open.backlog_end),
              open.backlog_grew ? "yes" : "no");
  if (spec.anomaly_sink) {
    std::printf("info anomaly_sink events %lld max_abs_error %.4g\n",
                static_cast<long long>(harness.sink().events()),
                harness.sink().max_error());
  }
  std::printf("info byte_identical %s%s%s\n", verify.identical ? "yes" : "no",
              verify.detail.empty() ? "" : " ", verify.detail.c_str());
  std::printf("info failed_frac %.6g\n",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<int64_t>(1, attempted)));

  const std::string spans_path =
      args.out_dir + "/" + spec.name + ".spans.tsv";
  if (spans.WriteTsv(spans_path)) {
    std::printf("info spans %lld (dropped %lld) written to %s\n",
                static_cast<long long>(spans.size()),
                static_cast<long long>(spans.dropped()), spans_path.c_str());
  }

  PrintResult(
      correct, attempted, failed,
      {{"ingest_tps", closed.segmented_tps, "tuples/s"},
       {"ingest_p50_us", ingest.p50, "us"},
       {"ingest_p99_us", ingest.tail, "us"},
       {"query_p50_us", query.p50, "us"},
       {"query_p99_us", query.tail, "us"},
       {"bench.gen_late_p99_us", late.tail, "us"},
       {"bench.backlog_end", static_cast<double>(open.backlog_end), "tuples"},
       {"bench.unattributed_frac", unattributed, "ratio"},
       {"bench.unattributed_apply_frac", unattributed_apply, "ratio"},
       {"api.submit_p50_ns", submit.p50, "ns"},
       {"api.submit_p99_ns", submit.tail, "ns"},
       {"api.admission_rejects",
        SumStreams(m2, &Stream::admission_rejects), "count"},
       {"api.sink_events_per_tuple",
        tuples > 0 ? static_cast<double>(harness.sink().events()) / tuples
                   : 0.0,
        "events/tuple"},
       {"runtime.apply_p50_ns", static_cast<double>(apply_open.Percentile(0.5)),
        "ns"},
       {"runtime.apply_p99_ns",
        static_cast<double>(apply_open.Percentile(0.99)), "ns"},
       {"runtime.queue_wait_mean_ns", queue_wait_ns, "ns"},
       {"runtime.queue_depth_peak", depth_peak, "tasks"},
       {"runtime.mailbox_blocked", blocked, "count"},
       {"runtime.shard_busy_frac",
        busy_sum / (shards * closed.wall_s * 1e9), "ratio"},
       {"runtime.shard_skew", busy_mean > 0.0 ? busy_max / busy_mean : 0.0,
        "ratio"},
       {"runtime.parallel_efficiency",
        verify.timed_inline_s / (shards * closed.wall_s), "ratio"},
       {"durability.journal_append_p50_ns",
        static_cast<double>(journal_open.Percentile(0.5)), "ns"},
       {"durability.journal_append_p99_ns",
        static_cast<double>(journal_open.Percentile(0.99)), "ns"},
       {"durability.journal_bytes_per_tuple",
        ingested > 0.0 ? journal_bytes / ingested : 0.0, "B/tuple"},
       {"durability.checkpoint_write_ms",
        static_cast<double>(checkpoint_write.Percentile(0.5)) * 1e-6, "ms"},
       {"durability.checkpoint_bytes",
        checkpoint_writes > 0.0 ? checkpoint_bytes / checkpoint_writes : 0.0,
        "B"},
       {"core.process_tuple_p50_ns", core.process_tuple_ns.p50, "ns"},
       {"core.process_tuple_p99_ns", core.process_tuple_ns.tail, "ns"},
       {"core.events_per_tuple", core.events_per_tuple, "events/tuple"},
       {"core.theta_sample_ns", core.theta_sample_ns, "ns"},
       {"core.sampling_active_frac", core.sampling_active_frac, "ratio"},
       {"core.fitness_query_us", core.fitness_query_us_p99, "us"},
       {"core.gram_solve_ns", core.gram_solve_ns, "ns"},
       {"stream.window_advance_ns", core.window_advance_ns, "ns"},
       {"tensor.window_nnz", static_cast<double>(verify.window_nnz), "count"},
       {"tensor.slice_nnz_p99", core.slice_nnz_p99, "count"},
       {"losses.loss_update_p50_us",
        static_cast<double>(loss_open.Percentile(0.5)) * 1e-3, "us"},
       {"losses.loss_update_p99_us",
        static_cast<double>(loss_open.Percentile(0.99)) * 1e-3, "us"},
       {"losses.outlier_captures_per_ktuple",
        ingested > 0.0 ? captures * 1000.0 / ingested : 0.0, "1/ktuple"},
       {"losses.outlier_store_size",
        static_cast<double>(verify.outlier_store_size), "count"},
       {"telemetry.trace_overhead_frac",
        untraced_tps > 0.0 ? 1.0 - closed.segmented_tps / untraced_tps
                           : 0.0,
        "ratio"}});
  return 0;
}

// Proves the checks can fail: the byte-identity check must reject a
// reference replay with one perturbed tuple, and the backlog check must
// flag an open loop at the workload's max_capacity, 2–3× what it sustains.
int RunSelfTest(const Args& args, const WorkloadSpec& spec) {
  constexpr double kSeconds = 4.0;
  const double overload = spec.max_capacity / spec.open_rate;
  const Inputs inputs = GenerateInputs(spec, args.seed, kSeconds);
  SpanRecorder no_spans(false);
  ServiceHarness harness(spec, inputs, /*metrics=*/false,
                         WorkDir(args, "selftest"), &no_spans);
  if (!harness.Setup()) return 1;
  const OpenLoopResult overloaded = harness.RunOpenLoop(
      static_cast<int64_t>(spec.max_capacity * 1.5), overload);
  if (!harness.CaptureFinalState()) return 1;
  const VerifyResult clean =
      VerifyAgainstInline(spec, inputs, harness, 0, 0, 0);
  const VerifyResult perturbed = VerifyAgainstInline(
      spec, inputs, harness, 0, 0, 0, harness.consumed() / 2);

  const bool ok =
      clean.identical && !perturbed.identical && overloaded.backlog_grew;
  std::printf("self-test %s: unperturbed replay identical: %s\n",
              spec.name.c_str(), clean.identical ? "yes" : "NO");
  std::printf("self-test %s: perturbed replay rejected: %s (%s)\n",
              spec.name.c_str(), perturbed.identical ? "NO" : "yes",
              perturbed.detail.c_str());
  std::printf("self-test %s: backlog growth flagged at %.0f tuples/s: %s "
              "(backlog %.1f -> %.1f tuples)\n",
              spec.name.c_str(), spec.max_capacity,
              overloaded.backlog_grew ? "yes" : "NO", overloaded.backlog_first,
              overloaded.backlog_last);
  std::printf("self-test %s: %s\n", spec.name.c_str(), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--self-test]\n",
                 argv[0]);
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr, "refusing to benchmark a %s build without "
                         "optimization; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n",
                 SNS_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  PrintProvenance(args);
  if (args.self_test) return RunSelfTest(args, spec);
  return args.trace == 1 ? RunTraced(args, spec) : RunEndToEnd(args, spec);
}
