// Drives one workload through the public service surface (SnsService /
// StreamHandle): set-up, the closed-loop and open-loop ingest phases, the
// query client, checkpoints, and the final state capture the correctness
// check compares against an inline replay.
#ifndef PERFBENCH_SERVICE_HARNESS_H_
#define PERFBENCH_SERVICE_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/sns_service.h"
#include "bench_util.h"
#include "workloads.h"

namespace perfbench {

/// Bench-side EventSink of the §VI-G anomaly use: scores every window event
/// by |observed − predicted|. Runs on the stream's shard; read its tallies
/// only after the service has drained.
class AnomalySink : public sns::EventSink {
 public:
  void OnStreamEvent(const sns::StreamEvent& event) override {
    const double error = event.AbsError();
    if (error > max_error_) max_error_ = error;
    ++events_;
  }
  int64_t events() const { return events_; }
  double max_error() const { return max_error_; }

 private:
  int64_t events_ = 0;
  double max_error_ = 0.0;
};

struct ClosedLoopResult {
  int64_t tuples = 0;  // Applied OK.
  double wall_s = 0.0;
  /// Throughput of each CycleSlices slice of the tuples sent (its tuples ÷
  /// the time from the previous slice's last completion to its own), and
  /// the median over slices.
  std::vector<double> slice_tps;
  double segmented_tps = 0.0;
};

struct OpenLoopResult {
  /// Per tuple, scheduled send → completion seen by the generator.
  std::vector<double> latency_us;
  /// Per tuple, its CycleSlices slice.
  std::vector<int> segment;
  int segments = 1;
  /// Per tuple, actual send → completion (reconciliation input).
  std::vector<double> send_to_done_ns;
  /// Per send operation: how late the generator sent it.
  std::vector<double> late_us;
  /// Per send operation: wall time of the IngestAsync / Ingest call.
  std::vector<double> submit_ns;
  /// Tuples not yet complete when the last tuple became due.
  int64_t backlog_end = 0;
  /// Mean backlog (tuples due − tuples completed) over the first and last
  /// fifth of the schedule.
  double backlog_first = 0.0;
  double backlog_last = 0.0;
  /// Backlog-growth verdict (the rule is at the end of RunOpenLoop).
  bool backlog_grew = false;
  int64_t tuples = 0;
};

/// Position of one RunningFitness query in its stream's event sequence: the
/// query resyncs the fitness accumulators, which are part of the serialized
/// state, so the inline reference replays it at the same point.
struct FitnessQueryMark {
  int stream = 0;
  int64_t events_processed = 0;
};

class ServiceHarness {
 public:
  /// `work_dir` holds journals and checkpoints; removed on destruction.
  ServiceHarness(const WorkloadSpec& spec, const Inputs& inputs,
                 bool metrics, std::string work_dir, SpanRecorder* spans);
  ~ServiceHarness();
  ServiceHarness(const ServiceHarness&) = delete;
  ServiceHarness& operator=(const ServiceHarness&) = delete;

  /// Creates the service and every stream, opens journals, attaches sinks,
  /// warms up and initializes. Returns false (after printing why) on error.
  bool Setup();

  /// Keeps the mailboxes full for `seconds` (or until the input runs out),
  /// then drains.
  ClosedLoopResult RunClosedLoop(double seconds);

  /// Sends the next `count` tuples on the stream-time schedule at
  /// open_rate × `rate_multiplier`, with the live query client running when
  /// the workload has one; drains at the end.
  OpenLoopResult RunOpenLoop(int64_t count, double rate_multiplier);

  /// Serializes every stream. Must follow the last ingest and precede
  /// QueryProbe (RunningFitness queries mutate cached accumulators).
  bool CaptureFinalState();

  /// Query latency of a quiesced service: `rounds` rounds of the three
  /// rotated queries, back to back (a think time would let the idle shard's
  /// vCPU halt, and the figure would then measure the host's wake-up
  /// latency). Records one sample per round: its mean query latency.
  void QueryProbe(int rounds);

  sns::SnsService& service() { return *service_; }
  /// Live items consumed so far, and which of them were applied OK.
  int64_t consumed() const { return next_item_; }
  const std::vector<uint8_t>& item_ok() const { return item_ok_; }
  const std::vector<FitnessQueryMark>& fitness_marks() const {
    return fitness_marks_;
  }
  /// Query latencies with the slice each fell in (the open loop's slices
  /// for the live client, equal index slices for the probe).
  const std::vector<double>& query_latency_us() const {
    return query_latency_us_;
  }
  const std::vector<int>& query_segment() const { return query_segment_; }
  int query_segments() const { return query_segments_; }
  const std::vector<std::string>& state_bytes() const { return state_bytes_; }
  const AnomalySink& sink() const { return sink_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  struct Pending;
  class OperatorClient;
  void RecordOutcome(const sns::Status& status);
  /// Starts the operator thread when the workload checkpoints or (with
  /// `queries`) runs a live query client; null otherwise.
  std::unique_ptr<OperatorClient> StartOperator(
      bool queries, std::function<int(int64_t)> slice_at);
  bool RunQuery(int k, double* latency_us);

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  bool metrics_;
  std::string work_dir_;
  SpanRecorder* spans_;
  std::unique_ptr<sns::SnsService> service_;
  std::vector<std::string> names_;
  AnomalySink sink_;
  int64_t next_item_ = 0;
  /// Live items sent, published for the operator thread's cadence.
  std::atomic<int64_t> sent_{0};
  std::vector<uint8_t> item_ok_;
  /// Operator-thread state: the next checkpoint's item count.
  int64_t next_checkpoint_ = 0;
  int64_t checkpoints_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<FitnessQueryMark> fitness_marks_;
  std::vector<double> query_latency_us_;
  std::vector<int> query_segment_;
  int query_segments_ = 1;
  std::vector<std::string> state_bytes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVICE_HARNESS_H_
