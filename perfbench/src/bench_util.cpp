#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

TailSummary SummarizeTail(const std::vector<double>& samples) {
  TailSummary out;
  out.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return out;
  out.p50 = Quantile(samples, 0.50);
  // p99 needs 1000 samples to leave 10 above it; with fewer, step down to
  // the highest quantile that still does.
  const double n = static_cast<double>(samples.size());
  out.tail_q = std::min(0.99, std::max(0.5, (n - 10.0) / n));
  out.tail = Quantile(samples, out.tail_q);
  return out;
}

TailSummary SliceTail(const std::vector<double>& samples,
                      const std::vector<int>& segment, int segments) {
  std::vector<std::vector<double>> slices(static_cast<size_t>(segments));
  for (size_t i = 0; i < samples.size(); ++i) {
    slices[static_cast<size_t>(segment[i])].push_back(samples[i]);
  }
  std::vector<double> p50s;
  std::vector<double> tails;
  TailSummary out;
  out.count = static_cast<int64_t>(samples.size());
  out.tail_q = 1.0;
  for (const std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    const TailSummary s = SummarizeTail(slice);
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    out.tail_q = std::min(out.tail_q, s.tail_q);
  }
  out.p50 = Median(p50s);
  out.tail = Median(tails);
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

sns::telemetry::HistogramSnapshot DiffHistogram(
    const sns::telemetry::HistogramSnapshot& after,
    const sns::telemetry::HistogramSnapshot& before) {
  sns::telemetry::HistogramSnapshot diff = after;
  diff.count = 0;
  diff.sum = after.sum - before.sum;
  for (size_t i = 0; i < diff.buckets.size(); ++i) {
    diff.buckets[i] -= before.buckets[i];
    diff.count += diff.buckets[i];
  }
  return diff;
}

SpanRecorder::SpanRecorder(bool enabled, int64_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  if (enabled_) spans_.reserve(static_cast<size_t>(capacity_));
}

int64_t SpanRecorder::Open(const char* name, int64_t parent, int64_t op) {
  if (!enabled_) return kNone;
  const int64_t now = NowNs();
  return Add(name, now, now, parent, op);
}

void SpanRecorder::Close(int64_t id) {
  if (id == kNone) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int64_t SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                          int64_t parent, int64_t op) {
  if (!enabled_) return kNone;
  if (static_cast<int64_t>(spans_.size()) >= capacity_) {
    ++dropped_;
    return kNone;
  }
  spans_.push_back({name, start_ns, end_ns, parent, op});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id\tname\tstart_ns\tend_ns\tparent\top\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%zu\t%s\t%lld\t%lld\t%lld\t%lld\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
