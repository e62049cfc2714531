// The benchmark's workloads and their generated inputs.
//
// Each workload is a fixed service configuration plus a synthetic input
// profile from data/datasets.h; only the generator seeds come from the
// command line. README.md records why each workload exists and which layer
// it stresses.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "data/datasets.h"
#include "stream/event.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int num_streams = 1;
  /// Shape, generator profile and Table III engine defaults.
  sns::DatasetSpec preset;
  /// Engine options of every stream (preset defaults plus overrides).
  sns::ContinuousCpdOptions engine;
  /// Worker shards; 0 = inline service, synchronous Ingest.
  int shards = 1;
  /// Tuples per ingest call.
  int batch = 1;
  bool journal = false;
  /// Closed-loop query client during the open loop (else queries are
  /// measured in a probe after ingestion).
  bool live_queries = false;
  /// Bench-side anomaly EventSink scoring |observed − predicted|.
  bool anomaly_sink = false;
  /// Generated tuples per window span W·T, per stream.
  int64_t tuples_per_span = 0;
  /// Open-loop mean rate, tuples/s over all streams. A committed constant,
  /// about 40% of the closed-loop capacity measured when it was chosen, so
  /// the diurnal peaks of the schedule stay below two thirds of capacity
  /// (README.md, "Fixed rates").
  double open_rate = 0.0;
  /// Upper bound on closed-loop capacity, tuples/s: sizes the generated
  /// input so the closed loop never runs out of tuples, and is the rate of
  /// the self-test's overloaded open loop.
  double max_capacity = 0.0;
  /// Live tuples between two checkpoints (0 = no checkpoints).
  int64_t checkpoint_every = 0;
};

/// The spec of `name`; false if unknown.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

struct StreamInput {
  std::string name;
  std::vector<sns::Tuple> warmup;  // Tuples of the first window span.
  std::vector<sns::Tuple> live;    // Everything after, chronological.
};

/// One live tuple in global send order.
struct LiveItem {
  int stream = 0;
  int64_t index = 0;  // Into streams[stream].live.
};

struct Inputs {
  std::vector<StreamInput> streams;
  /// All live tuples, interleaved by stream time (ties by stream).
  std::vector<LiveItem> order;
  /// Open-loop schedule: wall seconds per stream time unit, chosen so the
  /// mean send rate equals the workload's open_rate.
  double seconds_per_time_unit = 0.0;

  const sns::Tuple& tuple(const LiveItem& item) const {
    return streams[static_cast<size_t>(item.stream)]
        .live[static_cast<size_t>(item.index)];
  }
};

/// Share of a run's seconds given to the closed-loop phase; the open loop
/// gets the rest.
inline constexpr double kClosedLoopShare = 0.4;

/// Generates the inputs of one run: deterministic in (spec, seed, seconds).
Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed, double seconds);

/// Slices of a stretch of stream time, each made of whole cycles of the
/// generator's diurnal rate modulation and lasting at least `min_seconds`
/// of wall time. Load and per-tuple cost follow the modulation, so such
/// slices are alike and the median over them is steady, where the median of
/// shorter slices would flip between peak and trough slices. A stretch
/// shorter than two slices is one slice.
struct CycleSlices {
  int64_t t_first = 0;
  double units_per_slice = 1.0;
  int count = 1;

  /// Slice of stream time `t`; times past the last full slice join it.
  int Of(int64_t t) const;
};
CycleSlices MakeCycleSlices(const WorkloadSpec& spec, int64_t t_first,
                            int64_t t_last, double units_per_second,
                            double min_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
