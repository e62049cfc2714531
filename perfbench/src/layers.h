// Per-layer measurements of the traced run that come from calling each
// module's public functions directly (the service-side layers come from
// SnsService::Metrics()). Nothing inside src/ is instrumented.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {

struct CoreLayers {
  int64_t tuples = 0;
  TailSummary process_tuple_ns;
  double process_tuple_mean_ns = 0.0;
  /// Window events caused by the replayed tuples, per tuple (Theorem 1:
  /// at most W+1; less for tuples still inside the window at the end).
  double events_per_tuple = 0.0;
  /// Mean SampleSliceCellsInto time per sampled row; 0 when the variant
  /// does not sample.
  double theta_sample_ns = 0.0;
  /// Share of updated rows whose slice nnz exceeds θ.
  double sampling_active_frac = 0.0;
  double slice_nnz_p99 = 0.0;
  double fitness_query_us_p99 = 0.0;
  double window_advance_ns = 0.0;
  double gram_solve_ns = 0.0;
};

/// Replays the first `max_items` live items of the run through one
/// ContinuousCpd per stream (spans around ProcessTuple; every fourth tuple
/// instead probes θ-sampling on the live window), the same tuples through a
/// bare ContinuousTensorWindow, and times GramSolver at the workload's
/// rank. RunningFitness is timed every `fitness_cadence` tuples per stream.
CoreLayers MeasureCoreLayers(const WorkloadSpec& spec, const Inputs& inputs,
                             int64_t max_items, int64_t fitness_cadence,
                             SpanRecorder& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
