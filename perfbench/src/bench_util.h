// Shared helpers of the end-to-end benchmark: clock, percentiles, the
// bench-side span recorder, and the metric list a run prints.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/histogram.h"
#include "telemetry/scoped_timer.h"

namespace perfbench {

inline int64_t NowNs() { return sns::telemetry::MonotonicNanos(); }

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);

/// A latency distribution summarized the way every timing is reported: the
/// median, and p99 or — when fewer than 10 samples lie above p99 — the
/// highest percentile that still has 10 samples above it.
struct TailSummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;  // Quantile the tail value was taken at.
  int64_t count = 0;
};
TailSummary SummarizeTail(const std::vector<double>& samples);

/// The median, over the slices of a phase, of each slice's SummarizeTail.
/// `segment[i]` is the slice of `samples[i]`. A stall of the host confined
/// to a few slices moves this far less than a percentile of the pooled
/// samples. `count` is the pooled sample count and `tail_q` the lowest
/// quantile any slice's tail was taken at.
TailSummary SliceTail(const std::vector<double>& samples,
                      const std::vector<int>& segment, int segments);

double Mean(const std::vector<double>& samples);
/// Median; the mean of the middle two for an even count.
double Median(std::vector<double> samples);

/// `after` − `before` of a cumulative telemetry histogram: the samples
/// recorded during one phase.
sns::telemetry::HistogramSnapshot DiffHistogram(
    const sns::telemetry::HistogramSnapshot& after,
    const sns::telemetry::HistogramSnapshot& before);

/// Bench-side spans: name, start, end, parent span and operation id. Kept
/// in memory (preallocated, capped) and written out when the run ends.
/// Disabled recorders (untraced runs) record nothing.
class SpanRecorder {
 public:
  static constexpr int64_t kNone = -1;

  explicit SpanRecorder(bool enabled, int64_t capacity = 1 << 20);

  bool enabled() const { return enabled_; }
  /// Opens a span starting now; returns its id (kNone when not recorded).
  int64_t Open(const char* name, int64_t parent = kNone, int64_t op = kNone);
  void Close(int64_t id);
  /// Records an already-measured span.
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent = kNone, int64_t op = kNone);
  int64_t dropped() const { return dropped_; }
  int64_t size() const { return static_cast<int64_t>(spans_.size()); }
  /// One tab-separated line per span: id, name, start, end, parent, op.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    int64_t op;
  };
  bool enabled_;
  int64_t capacity_;
  int64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// One named metric of a run's result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
