#include "checks.h"

#include <cmath>
#include <memory>
#include <vector>

#include "api/stream_handle.h"
#include "common/serial.h"
#include "losses/loss_function.h"
#include "losses/reference_objective.h"
#include "stream/continuous_window.h"
#include "tensor/sparse_tensor.h"

namespace perfbench {
namespace {

// Points of the replay at which the exact fitness is taken and averaged:
// one window's fitness swings with the diurnal density, the mean of several
// much less.
constexpr int64_t kFitnessPoints = 16;

std::vector<int64_t> WindowDims(const WorkloadSpec& spec) {
  std::vector<int64_t> dims = spec.preset.stream.mode_dims;
  dims.push_back(spec.engine.window_size);
  return dims;
}

// A reference stream's window rebuilt from its events, so the generalized
// fitness can be taken over the window non-zeros through the public API.
// Events reach sinks only once the stream is live, so the mirror starts
// from a replay of the warm-up span.
class WindowMirror : public sns::EventSink {
 public:
  WindowMirror(const WorkloadSpec& spec, const StreamInput& input)
      : tensor_(WindowDims(spec)) {
    sns::ContinuousTensorWindow window(spec.preset.stream.mode_dims,
                                       spec.engine.window_size,
                                       spec.engine.period);
    for (const sns::Tuple& tuple : input.warmup) {
      window.AdvanceTo(tuple.time);
      window.Ingest(tuple);
    }
    window.tensor().ForEachNonzero(
        [this](const sns::ModeIndex& cell, double value) {
          tensor_.Add(cell, value);
        });
  }

  void OnStreamEvent(const sns::StreamEvent& event) override {
    for (const sns::DeltaCell& cell : event.raw_delta().cells) {
      tensor_.Add(cell.index, cell.delta);
    }
  }

  const sns::SparseTensor& tensor() const { return tensor_; }

 private:
  sns::SparseTensor tensor_;
};

std::string Serialize(const sns::StreamHandle& handle) {
  sns::serial::StringSink sink;
  sns::serial::Writer writer(sink);
  if (!handle.SerializeState(writer).ok() || !writer.status().ok()) return {};
  return sink.TakeData();
}

std::string DescribeMismatch(const std::string& name, const std::string& got,
                             const std::string& want) {
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return name + ": service state (" + std::to_string(got.size()) +
         " B) differs from the inline reference (" +
         std::to_string(want.size()) + " B) at byte " + std::to_string(at);
}

}  // namespace

VerifyResult VerifyAgainstInline(const WorkloadSpec& spec,
                                 const Inputs& inputs,
                                 const ServiceHarness& harness,
                                 int64_t fitness_end, int64_t timed_begin,
                                 int64_t timed_end, int64_t perturb_item) {
  VerifyResult result;
  const size_t num_streams = inputs.streams.size();
  if (harness.state_bytes().size() != num_streams) {
    result.detail = "no captured service state";
    return result;
  }
  const bool generalized = spec.engine.loss != sns::LossKind::kGaussian;

  // Mirrors outlive the handles they are attached to as sinks.
  std::vector<std::unique_ptr<WindowMirror>> mirrors;
  std::vector<sns::StreamHandle> refs;
  for (size_t s = 0; s < num_streams; ++s) {
    const StreamInput& input = inputs.streams[s];
    auto created = sns::StreamHandle::Create(
        input.name, spec.preset.stream.mode_dims, spec.engine);
    if (!created.ok()) {
      result.detail = created.status().ToString();
      return result;
    }
    refs.push_back(std::move(created).value());
    sns::Status status = refs.back().Warmup(input.warmup);
    if (status.ok()) status = refs.back().Initialize();
    if (!status.ok()) {
      result.detail = "reference warm-up: " + status.ToString();
      return result;
    }
    if (generalized) {
      mirrors.push_back(std::make_unique<WindowMirror>(spec, input));
      if (!refs.back().AddSink(mirrors.back().get()).ok()) return result;
    }
  }

  // RunningFitness queries resync cached accumulators that are part of the
  // state, so they are replayed at the event count they ran at.
  std::vector<std::vector<int64_t>> marks(num_streams);
  for (const FitnessQueryMark& mark : harness.fitness_marks()) {
    marks[static_cast<size_t>(mark.stream)].push_back(mark.events_processed);
  }
  std::vector<size_t> next_mark(num_streams, 0);
  auto replay_marks = [&](size_t s) {
    if (next_mark[s] == marks[s].size()) return;
    const int64_t events = refs[s].Stats().events_processed;
    while (next_mark[s] < marks[s].size() && marks[s][next_mark[s]] == events) {
      (void)refs[s].RunningFitness();
      ++next_mark[s];
    }
  };
  for (size_t s = 0; s < num_streams; ++s) replay_marks(s);

  const sns::LossFunction& loss = sns::GetLossFunction(spec.engine.loss);
  int64_t fitness_taken = 0;
  double fitness_sum = 0.0;
  auto take_fitness = [&] {
    ++fitness_taken;
    double sum = 0.0;
    for (size_t s = 0; s < num_streams; ++s) {
      if (!generalized) {
        sum += refs[s].ExactFitness();
        continue;
      }
      // 1 − WindowLoss / WindowLossBaseline over the window non-zeros.
      const sns::SparseTensor& window = mirrors[s]->tensor();
      double window_loss = 0.0;
      window.ForEachNonzero([&](const sns::ModeIndex& cell, double value) {
        window_loss += loss.Value(value, refs[s].Reconstruct(cell).value());
      });
      sum += 1.0 - window_loss / sns::WindowLossBaseline(window, loss);
    }
    fitness_sum += sum / static_cast<double>(num_streams);
  };
  auto fitness_point = [&](int64_t i) {
    return fitness_end > 0 && (i + 1) * kFitnessPoints % fitness_end <
                                  kFitnessPoints;
  };

  const std::vector<uint8_t>& ok = harness.item_ok();
  for (int64_t i = 0; i < harness.consumed(); ++i) {
    if (ok[static_cast<size_t>(i)] == 0) continue;
    const LiveItem& item = inputs.order[static_cast<size_t>(i)];
    const size_t s = static_cast<size_t>(item.stream);
    sns::Tuple tuple = inputs.tuple(item);
    if (i == perturb_item) tuple.value += 1.0;
    const int64_t start = NowNs();
    const sns::Status status = refs[s].Ingest(tuple);
    if (i >= timed_begin && i < timed_end) {
      result.timed_inline_s += static_cast<double>(NowNs() - start) * 1e-9;
    }
    if (!status.ok()) {
      result.detail = "reference ingest: " + status.ToString();
      return result;
    }
    replay_marks(s);
    if (i < fitness_end && fitness_point(i)) take_fitness();
  }
  if (fitness_taken == 0) take_fitness();
  result.fitness = fitness_sum / static_cast<double>(fitness_taken);

  result.identical = true;
  for (size_t s = 0; s < num_streams; ++s) {
    if (next_mark[s] != marks[s].size()) {
      result.identical = false;
      result.detail = inputs.streams[s].name +
                      ": a RunningFitness query could not be placed";
      break;
    }
    const std::string bytes = Serialize(refs[s]);
    if (bytes.empty() || bytes != harness.state_bytes()[s]) {
      result.identical = false;
      result.detail =
          DescribeMismatch(inputs.streams[s].name, harness.state_bytes()[s],
                           bytes);
      break;
    }
    const sns::StreamStats stats = refs[s].Stats();
    result.window_nnz += stats.window_nnz;
    result.outlier_store_size += stats.outlier_cells;
    if (generalized && mirrors[s]->tensor().nnz() != stats.window_nnz) {
      result.identical = false;
      result.detail = inputs.streams[s].name + ": window mirror diverged";
      break;
    }
  }
  return result;
}

}  // namespace perfbench
