#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/continuous_cpd.h"
#include "core/gram_solve.h"
#include "core/slice_sampler.h"
#include "linalg/matrix.h"
#include "stream/continuous_window.h"

namespace perfbench {
namespace {

// Every kSampleProbeEvery-th replayed tuple probes θ-sampling; its
// ProcessTuple time is left out of the process_tuple statistics.
constexpr int64_t kSampleProbeEvery = 4;
constexpr int kGramSolveRepetitions = 4000;

bool VariantSamples(sns::SnsVariant variant) {
  return variant == sns::SnsVariant::kRnd ||
         variant == sns::SnsVariant::kRndPlus;
}

// Observer state of the θ-sampling probe.
struct SampleProbe {
  bool active = false;
  bool timed = false;  // The variant samples: time SampleSliceCellsInto.
  int64_t theta = 0;
  int64_t parent = SpanRecorder::kNone;
  sns::Rng rng{0x7e7a};
  std::vector<sns::SampledCell> cells;
  std::vector<double> sample_ns;
  std::vector<double> degrees;
  int64_t rows = 0;
  int64_t active_rows = 0;
  // Events caused by replayed (not warm-up) tuples: ≤ W+1 per tuple.
  int64_t warmup_end = 0;
  int64_t live_events = 0;
  SpanRecorder* spans = nullptr;

  // The rows RowUpdaterBase::OnEvent updates for `delta`: the time-mode
  // slices the value left and entered, then the tuple's row of every
  // non-time mode.
  void OnEvent(const sns::WindowDelta& delta,
               const sns::SparseTensor& window) {
    if (delta.tuple.time > warmup_end) ++live_events;
    if (!active || delta.cells.empty()) return;
    const int time_mode = window.num_modes() - 1;
    const int w_size = static_cast<int>(window.dim(time_mode));
    if (delta.w > 0) Row(time_mode, w_size - delta.w, delta, window);
    if (delta.w < w_size) Row(time_mode, w_size - delta.w - 1, delta, window);
    for (int m = 0; m < time_mode; ++m) {
      Row(m, delta.tuple.index[m], delta, window);
    }
  }

  void Row(int mode, int64_t row, const sns::WindowDelta& delta,
           const sns::SparseTensor& window) {
    const int64_t degree = window.Degree(mode, row);
    degrees.push_back(static_cast<double>(degree));
    ++rows;
    if (degree <= theta) return;
    ++active_rows;
    if (!timed) return;
    const int64_t start = NowNs();
    sns::SampleSliceCellsInto(window, mode, row, theta, delta, rng, cells);
    const int64_t end = NowNs();
    sample_ns.push_back(static_cast<double>(end - start));
    spans->Add("core.theta_sample", start, end, parent);
  }
};

double MeasureGramSolve(int64_t rank, SpanRecorder& spans) {
  sns::Rng rng(0x6a5);
  const sns::Matrix a = sns::Matrix::RandomUniform(4 * rank, rank, rng);
  sns::Matrix h(rank, rank);
  for (int64_t i = 0; i < rank; ++i) {
    for (int64_t j = 0; j < rank; ++j) {
      double dot = 0.0;
      for (int64_t r = 0; r < a.rows(); ++r) dot += a(r, i) * a(r, j);
      h(i, j) = dot + (i == j ? 1e-3 : 0.0);
    }
  }
  std::vector<double> b(static_cast<size_t>(rank));
  std::vector<double> x(static_cast<size_t>(rank));
  for (double& v : b) v = rng.UniformDouble();
  sns::GramSolver solver;
  std::vector<double> samples;
  samples.reserve(kGramSolveRepetitions);
  for (int i = 0; i < kGramSolveRepetitions; ++i) {
    const int64_t start = NowNs();
    solver.Factorize(h);
    solver.Solve(b.data(), x.data());
    const int64_t end = NowNs();
    samples.push_back(static_cast<double>(end - start));
    spans.Add("core.gram_solve", start, end);
  }
  return Quantile(samples, 0.5);
}

}  // namespace

CoreLayers MeasureCoreLayers(const WorkloadSpec& spec, const Inputs& inputs,
                             int64_t max_items, int64_t fitness_cadence,
                             SpanRecorder& spans) {
  CoreLayers out;
  const size_t num_streams = inputs.streams.size();
  const int64_t n = std::min<int64_t>(
      max_items, static_cast<int64_t>(inputs.order.size()));

  // Engine replay.
  SampleProbe probe;
  probe.theta = spec.engine.sample_threshold;
  probe.timed = VariantSamples(spec.engine.variant);
  probe.warmup_end =
      static_cast<int64_t>(spec.engine.window_size) * spec.engine.period;
  probe.spans = &spans;
  std::vector<std::unique_ptr<sns::ContinuousCpd>> engines;
  for (const StreamInput& input : inputs.streams) {
    auto created =
        sns::ContinuousCpd::Create(spec.preset.stream.mode_dims, spec.engine);
    if (!created.ok()) {
      std::fprintf(stderr, "engine: %s\n", created.status().ToString().c_str());
      std::exit(2);
    }
    engines.push_back(std::move(created).value());
    for (const sns::Tuple& tuple : input.warmup) {
      engines.back()->IngestOnly(tuple);
    }
    engines.back()->InitializeWithAls();
    engines.back()->SetEventObserver(
        [&probe](const sns::WindowDelta& delta, const sns::KruskalModel&,
                 const sns::SparseTensor& window,
                 double) { probe.OnEvent(delta, window); });
  }
  const int64_t replay = spans.Open("phase.core_replay");
  std::vector<double> process_ns;
  std::vector<double> fitness_us;
  std::vector<int64_t> since_query(num_streams, 0);
  for (int64_t i = 0; i < n; ++i) {
    const LiveItem& item = inputs.order[static_cast<size_t>(i)];
    const size_t s = static_cast<size_t>(item.stream);
    const bool probing = i % kSampleProbeEvery == kSampleProbeEvery - 1;
    probe.active = probing;
    const int64_t span = spans.Open("core.process_tuple", replay, i);
    probe.parent = span;
    const int64_t start = NowNs();
    engines[s]->ProcessTuple(inputs.tuple(item));
    const int64_t end = NowNs();
    spans.Close(span);
    if (!probing) process_ns.push_back(static_cast<double>(end - start));
    if (++since_query[s] >= fitness_cadence) {
      since_query[s] = 0;
      const int64_t q_start = NowNs();
      (void)engines[s]->RunningFitness();
      const int64_t q_end = NowNs();
      fitness_us.push_back(static_cast<double>(q_end - q_start) * 1e-3);
      spans.Add("core.fitness_query", q_start, q_end, replay, i);
    }
  }
  spans.Close(replay);

  out.tuples = n;
  out.process_tuple_ns = SummarizeTail(process_ns);
  out.process_tuple_mean_ns = Mean(process_ns);
  out.events_per_tuple =
      n > 0 ? static_cast<double>(probe.live_events) / static_cast<double>(n)
            : 0.0;
  out.theta_sample_ns = Mean(probe.sample_ns);
  out.sampling_active_frac =
      probe.rows > 0 ? static_cast<double>(probe.active_rows) /
                           static_cast<double>(probe.rows)
                     : 0.0;
  out.slice_nnz_p99 = Quantile(probe.degrees, 0.99);
  out.fitness_query_us_p99 = SummarizeTail(fitness_us).tail;
  engines.clear();

  // Window and entry-pool storage alone: the same tuples through a bare
  // ContinuousTensorWindow, no-op event callback.
  std::vector<sns::ContinuousTensorWindow> windows;
  windows.reserve(num_streams);
  for (const StreamInput& input : inputs.streams) {
    windows.emplace_back(spec.preset.stream.mode_dims,
                         spec.engine.window_size, spec.engine.period);
    for (const sns::Tuple& tuple : input.warmup) {
      windows.back().AdvanceTo(tuple.time);
      windows.back().Ingest(tuple);
    }
  }
  const int64_t window_phase = spans.Open("phase.window_replay");
  std::vector<double> window_ns;
  window_ns.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const LiveItem& item = inputs.order[static_cast<size_t>(i)];
    const sns::Tuple& tuple = inputs.tuple(item);
    sns::ContinuousTensorWindow& window =
        windows[static_cast<size_t>(item.stream)];
    const int64_t start = NowNs();
    window.AdvanceTo(tuple.time, [](const sns::WindowDelta&) {});
    window.Ingest(tuple);
    const int64_t end = NowNs();
    window_ns.push_back(static_cast<double>(end - start));
    spans.Add("stream.window_advance", start, end, window_phase, i);
  }
  spans.Close(window_phase);
  out.window_advance_ns = Quantile(window_ns, 0.5);

  out.gram_solve_ns = MeasureGramSolve(spec.engine.rank, spans);
  return out;
}

}  // namespace perfbench
