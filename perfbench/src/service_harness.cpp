#include "service_harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <span>
#include <thread>
#include <tuple>
#include <utility>

#include "common/serial.h"

namespace perfbench {
namespace {

// Think time of the closed-loop query client between two queries.
constexpr auto kQueryThinkTime = std::chrono::microseconds(1000);
// Open-loop sends start this long after the schedule is computed.
constexpr int64_t kScheduleLeadNs = 2'000'000;
// A backlog rising by more than this many seconds of input between the
// first and last fifth of the open loop counts as growth.
constexpr double kBacklogGrowthSeconds = 0.25;
constexpr double kBacklogGrowthMinTuples = 64.0;

constexpr int kMaxReportedErrors = 5;
// Slices of the query probe (SliceTail).
constexpr int kProbeSegments = 5;

// Shortest CycleSlices slice: a second in the open loop, so each slice has
// enough latency samples for its own tail; half a second in the closed loop.
constexpr double kOpenSliceSeconds = 1.0;
constexpr double kClosedSliceSeconds = 0.5;

// Busy-wait step of the open-loop generator between completion polls.
inline void SpinPause() {
#if defined(__x86_64__) || defined(__i386__)
  for (int i = 0; i < 16; ++i) __builtin_ia32_pause();
#endif
}

}  // namespace

struct ServiceHarness::Pending {
  int64_t item;
  int64_t k;  // Index within the open loop (−1 in the closed loop).
  sns::Ticket ticket;
};

// The workload's operator thread, beside the generator: checkpoints one
// stream (round robin) every checkpoint_every sent tuples and, with
// `queries`, runs the closed-loop query client with a fixed think time in
// between. Checkpoints run here, not on the generator, so a checkpoint
// stalls only its own shard. Tallies and spans merge into the harness on
// Join.
class ServiceHarness::OperatorClient {
 public:
  OperatorClient(ServiceHarness& harness, bool queries,
                 std::function<int(int64_t)> slice_at)
      : harness_(harness),
        queries_(queries),
        slice_at_(std::move(slice_at)),
        thread_([this] { Loop(); }) {}
  OperatorClient(const OperatorClient&) = delete;
  OperatorClient& operator=(const OperatorClient&) = delete;
  ~OperatorClient() { Join(); }

  void Join() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    thread_.join();
    harness_.attempted_ += attempted_;
    harness_.failed_ += failed_;
    for (const auto& [name, start, end] : spans_) {
      harness_.spans_->Add(name, start, end);
    }
  }

 private:
  void Loop() {
    const WorkloadSpec& spec = harness_.spec_;
    for (int k = 0; !stop_.load(std::memory_order_acquire);) {
      if (spec.checkpoint_every > 0 &&
          harness_.sent_.load(std::memory_order_acquire) >=
              harness_.next_checkpoint_) {
        harness_.next_checkpoint_ += spec.checkpoint_every;
        const size_t s = static_cast<size_t>(harness_.checkpoints_++) %
                         harness_.names_.size();
        const int64_t start = NowNs();
        Count(harness_.service_
                  ->CheckpointToFile(harness_.names_[s],
                                     harness_.work_dir_ + "/checkpoint-" +
                                         std::to_string(s))
                  .ok());
        spans_.emplace_back("durability.checkpoint", start, NowNs());
        continue;
      }
      if (queries_) {
        double latency_us = 0.0;
        const int64_t start = NowNs();
        Count(harness_.RunQuery(k++, &latency_us));
        spans_.emplace_back("api.query", start, NowNs());
        harness_.query_latency_us_.push_back(latency_us);
        harness_.query_segment_.push_back(slice_at_(start));
      }
      std::this_thread::sleep_for(kQueryThinkTime);
    }
  }

  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  ServiceHarness& harness_;
  const bool queries_;
  const std::function<int(int64_t)> slice_at_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::tuple<const char*, int64_t, int64_t>> spans_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Last: starts once everything above exists.
};

std::unique_ptr<ServiceHarness::OperatorClient> ServiceHarness::StartOperator(
    bool queries, std::function<int(int64_t)> slice_at) {
  if (spec_.checkpoint_every <= 0 && !(queries && spec_.live_queries)) {
    return nullptr;
  }
  if (next_checkpoint_ == 0) next_checkpoint_ = spec_.checkpoint_every;
  return std::make_unique<OperatorClient>(
      *this, queries && spec_.live_queries, std::move(slice_at));
}

ServiceHarness::ServiceHarness(const WorkloadSpec& spec, const Inputs& inputs,
                               bool metrics, std::string work_dir,
                               SpanRecorder* spans)
    : spec_(spec),
      inputs_(inputs),
      metrics_(metrics),
      work_dir_(std::move(work_dir)),
      spans_(spans) {}

ServiceHarness::~ServiceHarness() {
  service_.reset();  // Shuts the shards down before the journals go away.
  std::error_code ignored;
  std::filesystem::remove_all(work_dir_, ignored);
}

bool ServiceHarness::Setup() {
  std::error_code ec;
  std::filesystem::create_directories(work_dir_, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", work_dir_.c_str(),
                 ec.message().c_str());
    return false;
  }
  sns::ServiceOptions options;
  options.shards = spec_.shards;
  options.backpressure = sns::BackpressurePolicy::kBlock;
  options.metrics.enabled = metrics_;
  auto created = sns::SnsService::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "service: %s\n", created.status().ToString().c_str());
    return false;
  }
  service_ = std::make_unique<sns::SnsService>(std::move(created).value());
  item_ok_.assign(inputs_.order.size(), 0);

  for (size_t s = 0; s < inputs_.streams.size(); ++s) {
    const std::string& name = inputs_.streams[s].name;
    names_.push_back(name);
    auto handle = service_->CreateStream(name, spec_.preset.stream.mode_dims,
                                         spec_.engine);
    if (!handle.ok()) {
      std::fprintf(stderr, "create %s: %s\n", name.c_str(),
                   handle.status().ToString().c_str());
      return false;
    }
    if (spec_.journal) {
      const std::string dir = work_dir_ + "/journal-" + std::to_string(s);
      const sns::Status status = service_->EnableJournal(name, dir);
      if (!status.ok()) {
        std::fprintf(stderr, "journal %s: %s\n", name.c_str(),
                     status.ToString().c_str());
        return false;
      }
    }
    // No task has touched the stream yet, so attaching through the raw
    // handle cannot race its shard.
    if (spec_.anomaly_sink && !handle.value()->AddSink(&sink_).ok()) {
      return false;
    }
  }
  for (size_t s = 0; s < inputs_.streams.size(); ++s) {
    sns::Status status =
        service_->Warmup(names_[s], inputs_.streams[s].warmup);
    if (status.ok()) status = service_->Initialize(names_[s]);
    if (!status.ok()) {
      std::fprintf(stderr, "warm-up %s: %s\n", names_[s].c_str(),
                   status.ToString().c_str());
      return false;
    }
  }
  return true;
}

void ServiceHarness::RecordOutcome(const sns::Status& status) {
  ++attempted_;
  if (status.ok()) return;
  if (failed_ < kMaxReportedErrors) {
    std::fprintf(stderr, "operation failed: %s\n", status.ToString().c_str());
  }
  ++failed_;
}

ClosedLoopResult ServiceHarness::RunClosedLoop(double seconds) {
  ClosedLoopResult result;
  const int64_t phase = spans_->Open("phase.closed_loop");
  std::vector<std::deque<Pending>> pending(names_.size());
  int64_t applied = 0;
  // (item, completion time) of every tuple.
  std::vector<std::pair<int64_t, int64_t>> completions;
  auto settle = [&](Pending& p) {
    const sns::Status status = p.ticket.Wait();
    completions.emplace_back(p.item, NowNs());
    RecordOutcome(status);
    if (status.ok()) {
      item_ok_[static_cast<size_t>(p.item)] = 1;
      ++applied;
    }
  };
  const int64_t limit = static_cast<int64_t>(inputs_.order.size());
  const int64_t begin = next_item_;
  std::unique_ptr<OperatorClient> client =
      StartOperator(/*queries=*/false, [](int64_t) { return 0; });
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  while (next_item_ < limit && NowNs() < deadline) {
    const LiveItem& item = inputs_.order[static_cast<size_t>(next_item_)];
    const std::vector<sns::Tuple>& live =
        inputs_.streams[static_cast<size_t>(item.stream)].live;
    if (spec_.batch == 1) {
      pending[static_cast<size_t>(item.stream)].push_back(
          {next_item_, -1,
           service_->IngestAsync(
               names_[static_cast<size_t>(item.stream)],
               std::span<const sns::Tuple>(&live[static_cast<size_t>(
                                               item.index)],
                                           1))});
      sent_.store(++next_item_, std::memory_order_release);
      for (auto& queue : pending) {
        while (!queue.empty() && queue.front().ticket.done()) {
          settle(queue.front());
          queue.pop_front();
        }
      }
    } else {
      // Synchronous batches of one stream (the inline workload).
      const int64_t n = std::min<int64_t>(spec_.batch, limit - next_item_);
      const sns::Status status = service_->Ingest(
          names_[static_cast<size_t>(item.stream)],
          std::span<const sns::Tuple>(&live[static_cast<size_t>(item.index)],
                                      static_cast<size_t>(n)));
      const int64_t end = NowNs();
      for (int64_t j = 0; j < n; ++j) {
        completions.emplace_back(next_item_ + j, end);
        RecordOutcome(status);
        if (status.ok()) {
          item_ok_[static_cast<size_t>(next_item_ + j)] = 1;
          ++applied;
        }
      }
      next_item_ += n;
      sent_.store(next_item_, std::memory_order_release);
    }
  }
  for (auto& queue : pending) {
    for (Pending& p : queue) settle(p);
  }
  const int64_t t1 = NowNs();
  if (client != nullptr) client->Join();
  spans_->Close(phase);
  result.tuples = applied;
  result.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  // Slices by stream time, so each holds whole diurnal cycles of the tuples
  // sent; its rate counts from the previous slice's last completion.
  if (next_item_ > begin) {
    const int64_t t_first = inputs_.tuple(inputs_.order[begin]).time;
    const int64_t t_last = inputs_.tuple(inputs_.order[next_item_ - 1]).time;
    const CycleSlices slices = MakeCycleSlices(
        spec_, t_first, t_last,
        static_cast<double>(t_last - t_first) / result.wall_s,
        kClosedSliceSeconds);
    std::vector<int64_t> last_done(static_cast<size_t>(slices.count), t0);
    std::vector<double> count(static_cast<size_t>(slices.count), 0.0);
    for (const auto& [item, done] : completions) {
      const size_t s = static_cast<size_t>(slices.Of(
          inputs_.tuple(inputs_.order[static_cast<size_t>(item)]).time));
      last_done[s] = std::max(last_done[s], done);
      count[s] += 1.0;
    }
    int64_t previous = t0;
    for (size_t s = 0; s < last_done.size(); ++s) {
      if (count[s] > 0.0 && last_done[s] > previous) {
        result.slice_tps.push_back(count[s] * 1e9 /
                                   static_cast<double>(last_done[s] - previous));
      }
      previous = std::max(previous, last_done[s]);
    }
  }
  result.segmented_tps = Median(result.slice_tps);
  return result;
}

bool ServiceHarness::RunQuery(int k, double* latency_us) {
  const std::string& name = names_[static_cast<size_t>(k / 3) % names_.size()];
  const int64_t start = NowNs();
  bool ok = false;
  switch (k % 3) {
    case 0: {
      auto top = service_->TopK(name, 0, 10);
      ok = top.ok() && !top.value().empty();
      break;
    }
    case 1: {
      auto activity = service_->ComponentActivity(name);
      ok = activity.ok() &&
           static_cast<int64_t>(activity.value().size()) == spec_.engine.rank;
      break;
    }
    default: {
      // RunningFitness, plus the event count it ran at (same hop) so the
      // inline reference can replay the query at the same point.
      auto fit = service_->Query(name, [](const sns::StreamHandle& handle) {
        return std::pair<double, int64_t>(handle.RunningFitness(),
                                          handle.Stats().events_processed);
      });
      ok = fit.ok() && std::isfinite(fit.value().first);
      if (ok) {
        fitness_marks_.push_back(
            {static_cast<int>(static_cast<size_t>(k / 3) % names_.size()),
             fit.value().second});
      }
      break;
    }
  }
  *latency_us = static_cast<double>(NowNs() - start) * 1e-3;
  return ok;
}

OpenLoopResult ServiceHarness::RunOpenLoop(int64_t count,
                                           double rate_multiplier) {
  OpenLoopResult result;
  const int64_t begin = next_item_;
  const int64_t n = std::min<int64_t>(
      count, static_cast<int64_t>(inputs_.order.size()) - begin);
  if (n <= 0) return result;
  const int64_t phase = spans_->Open("phase.open_loop");

  // Send times follow the stream's own timestamps, scaled to the mean rate.
  std::vector<int64_t> sched(static_cast<size_t>(n));
  std::vector<int64_t> send_ns(static_cast<size_t>(n), 0);
  std::vector<int64_t> done_ns(static_cast<size_t>(n), 0);
  const int64_t t_first =
      inputs_.tuple(inputs_.order[static_cast<size_t>(begin)]).time;
  const double ns_per_unit =
      inputs_.seconds_per_time_unit * 1e9 / rate_multiplier;
  const int64_t start = NowNs() + kScheduleLeadNs;
  for (int64_t k = 0; k < n; ++k) {
    const int64_t t =
        inputs_.tuple(inputs_.order[static_cast<size_t>(begin + k)]).time;
    sched[static_cast<size_t>(k)] =
        start + static_cast<int64_t>(static_cast<double>(t - t_first) *
                                     ns_per_unit);
  }

  const int64_t t_last =
      inputs_.tuple(inputs_.order[static_cast<size_t>(begin + n - 1)]).time;
  const CycleSlices slices = MakeCycleSlices(
      spec_, t_first, t_last, 1e9 / ns_per_unit, kOpenSliceSeconds);
  // Queries fall in the slice of the schedule time they started at.
  auto slice_at = [&](int64_t wall_ns) {
    return slices.Of(t_first + static_cast<int64_t>(
                                   static_cast<double>(wall_ns - start) /
                                   ns_per_unit));
  };
  query_segments_ = slices.count;
  std::unique_ptr<OperatorClient> client =
      StartOperator(/*queries=*/true, slice_at);

  int64_t completed = 0;
  std::vector<std::deque<Pending>> pending(names_.size());
  auto reap = [&] {
    for (auto& queue : pending) {
      while (!queue.empty() && queue.front().ticket.done()) {
        Pending& p = queue.front();
        done_ns[static_cast<size_t>(p.k)] = NowNs();
        const sns::Status status = p.ticket.Wait();
        RecordOutcome(status);
        if (status.ok()) item_ok_[static_cast<size_t>(p.item)] = 1;
        ++completed;
        queue.pop_front();
      }
    }
  };

  for (int64_t k = 0; k < n;) {
    const int64_t item_id = begin + k;
    const LiveItem& item = inputs_.order[static_cast<size_t>(item_id)];
    const std::vector<sns::Tuple>& live =
        inputs_.streams[static_cast<size_t>(item.stream)].live;
    const std::string& name = names_[static_cast<size_t>(item.stream)];
    // A synchronous batch is sent when its last tuple is due.
    const int64_t last =
        spec_.batch == 1 ? k : std::min<int64_t>(k + spec_.batch, n) - 1;
    for (int64_t now = NowNs(); now < sched[static_cast<size_t>(last)];
         now = NowNs()) {
      reap();
      SpinPause();
    }
    const int64_t send = NowNs();
    result.late_us.push_back(
        static_cast<double>(send - sched[static_cast<size_t>(last)]) * 1e-3);
    const std::span<const sns::Tuple> tuples(
        &live[static_cast<size_t>(item.index)],
        static_cast<size_t>(last - k + 1));
    if (spec_.batch == 1) {
      sns::Ticket ticket = service_->IngestAsync(name, tuples);
      const int64_t end = NowNs();
      spans_->Add("api.submit", send, end, phase, item_id);
      result.submit_ns.push_back(static_cast<double>(end - send));
      send_ns[static_cast<size_t>(k)] = send;
      pending[static_cast<size_t>(item.stream)].push_back(
          {item_id, k, std::move(ticket)});
    } else {
      const sns::Status status = service_->Ingest(name, tuples);
      const int64_t end = NowNs();
      spans_->Add("api.submit", send, end, phase, item_id);
      result.submit_ns.push_back(static_cast<double>(end - send));
      for (int64_t j = k; j <= last; ++j) {
        send_ns[static_cast<size_t>(j)] = send;
        done_ns[static_cast<size_t>(j)] = end;
        RecordOutcome(status);
        if (status.ok()) item_ok_[static_cast<size_t>(begin + j)] = 1;
        ++completed;
      }
    }
    next_item_ = begin + last + 1;
    sent_.store(next_item_, std::memory_order_release);
    k = last + 1;
    reap();
  }
  while (completed < n) {
    reap();
    SpinPause();
  }
  if (client != nullptr) client->Join();
  spans_->Close(phase);

  const int64_t last_due = sched.back();
  result.segments = slices.count;
  for (int64_t k = 0; k < n; ++k) {
    const size_t i = static_cast<size_t>(k);
    result.latency_us.push_back(static_cast<double>(done_ns[i] - sched[i]) *
                                1e-3);
    result.segment.push_back(slices.Of(
        inputs_.tuple(inputs_.order[static_cast<size_t>(begin + k)]).time));
    result.send_to_done_ns.push_back(
        static_cast<double>(done_ns[i] - send_ns[i]));
    if (done_ns[i] > last_due) ++result.backlog_end;
  }
  // Growth rule: an unsustainable rate makes the backlog — tuples due minus
  // tuples completed — rise for the whole schedule; a sustainable one only
  // fluctuates with its bursts. Sampled at evenly spaced schedule times.
  std::vector<int64_t> done_sorted = done_ns;
  std::sort(done_sorted.begin(), done_sorted.end());
  auto backlog_at = [&](int64_t t) {
    return static_cast<double>(
        (std::upper_bound(sched.begin(), sched.end(), t) - sched.begin()) -
        (std::upper_bound(done_sorted.begin(), done_sorted.end(), t) -
         done_sorted.begin()));
  };
  constexpr int kBacklogSamples = 100;
  for (int j = 0; j < kBacklogSamples / 5; ++j) {
    const auto at = [&](int sample) {
      return start + (last_due - start) * sample / (kBacklogSamples - 1);
    };
    result.backlog_first += backlog_at(at(j)) / (kBacklogSamples / 5);
    result.backlog_last +=
        backlog_at(at(kBacklogSamples - 1 - j)) / (kBacklogSamples / 5);
  }
  const double allowed =
      std::max(kBacklogGrowthMinTuples,
               kBacklogGrowthSeconds * spec_.open_rate * rate_multiplier);
  result.backlog_grew =
      result.backlog_last - result.backlog_first > allowed;
  result.tuples = n;
  return result;
}

bool ServiceHarness::CaptureFinalState() {
  service_->Drain();
  state_bytes_.clear();
  for (const std::string& name : names_) {
    auto bytes = service_->Query(name, [](const sns::StreamHandle& handle) {
      sns::serial::StringSink sink;
      sns::serial::Writer writer(sink);
      const sns::Status status = handle.SerializeState(writer);
      if (!status.ok() || !writer.status().ok()) return std::string();
      return sink.TakeData();
    });
    if (!bytes.ok() || bytes.value().empty()) {
      std::fprintf(stderr, "cannot serialize %s\n", name.c_str());
      return false;
    }
    state_bytes_.push_back(std::move(bytes).value());
  }
  return true;
}

void ServiceHarness::QueryProbe(int rounds) {
  const int64_t phase = spans_->Open("phase.query_probe");
  const size_t marks = fitness_marks_.size();
  query_segments_ = kProbeSegments;
  for (int round = 0; round < rounds; ++round) {
    // One sample per round of the three query types: the types differ in
    // cost by 10x, and a percentile of the mix would flip between them.
    double round_us = 0.0;
    for (int k = 3 * round; k < 3 * round + 3; ++k) {
      double latency_us = 0.0;
      const int64_t start = NowNs();
      const bool ok = RunQuery(k, &latency_us);
      spans_->Add("api.query", start, NowNs(), phase);
      RecordOutcome(ok ? sns::Status::OK()
                       : sns::Status::Internal("query returned no result"));
      round_us += latency_us;
    }
    query_latency_us_.push_back(round_us / 3.0);
    query_segment_.push_back(round * query_segments_ / rounds);
  }
  // Probe queries run after the state capture; nothing replays them.
  fitness_marks_.resize(marks);
  spans_->Close(phase);
}

}  // namespace perfbench
