#include "api/stream_handle.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/serial.h"
#include "durability/checkpoint.h"
#include "tensor/mode_index.h"

namespace sns {
namespace {

/// Ranks all rows of one factor by `score(i)`, best first, keeping k.
template <typename ScoreFn>
std::vector<TopEntry> RankTop(int64_t rows, int k, ScoreFn&& score) {
  std::vector<TopEntry> ranking(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    ranking[static_cast<size_t>(i)] = {i, score(i)};
  }
  const size_t keep = std::min<size_t>(static_cast<size_t>(k), ranking.size());
  std::partial_sort(ranking.begin(), ranking.begin() + keep, ranking.end(),
                    [](const TopEntry& a, const TopEntry& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.index < b.index;  // Deterministic ties.
                    });
  ranking.resize(keep);
  return ranking;
}

}  // namespace

StatusOr<StreamHandle> StreamHandle::Create(
    std::string name, std::vector<int64_t> mode_dims,
    const ContinuousCpdOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("stream name must not be empty");
  }
  auto engine = ContinuousCpd::Create(mode_dims, options);
  if (!engine.ok()) return engine.status();
  return StreamHandle(std::move(name), std::move(mode_dims),
                      std::move(engine).value());
}

StreamHandle::StreamHandle(std::string name, std::vector<int64_t> mode_dims,
                           std::unique_ptr<ContinuousCpd> engine)
    : name_(std::move(name)),
      mode_dims_(std::move(mode_dims)),
      engine_(std::move(engine)),
      fanout_(std::make_unique<SinkFanout>()) {
  // The closure captures the fan-out's stable address, not `this`: the
  // handle may move, the engine and fan-out allocations never do.
  SinkFanout* fan = fanout_.get();
  engine_->SetEventObserver([fan](const WindowDelta& delta,
                                  const KruskalModel& model,
                                  const SparseTensor& window,
                                  double outlier_capture) {
    if (fan->sinks.empty()) return;
    const StreamEvent event(&delta, &model, &window, outlier_capture);
    for (EventSink* sink : fan->sinks) sink->OnStreamEvent(event);
  });
}

Status internal::CheckTupleSchema(std::span<const Tuple> tuples,
                                  std::span<const int64_t> mode_dims) {
  const size_t arity = mode_dims.size();
  for (size_t n = 0; n < tuples.size(); ++n) {
    const Tuple& tuple = tuples[n];
    if (static_cast<size_t>(tuple.index.size()) != arity) {
      return Status::InvalidArgument(
          "tuple " + std::to_string(n) + " has " +
          std::to_string(tuple.index.size()) +
          " mode indices; the stream has " + std::to_string(arity) +
          " non-time modes");
    }
    for (size_t m = 0; m < arity; ++m) {
      if (tuple.index[m] < 0 || tuple.index[m] >= mode_dims[m]) {
        return Status::InvalidArgument(
            "tuple " + std::to_string(n) + " index " +
            std::to_string(tuple.index[m]) + " is outside mode " +
            std::to_string(m) + " of size " + std::to_string(mode_dims[m]));
      }
    }
    // Hostile-input guard: a NaN/Inf value would be silently dropped by the
    // window tensor at apply time (SparseTensor::Set erases non-finite),
    // desynchronizing journal replay from caller intent. Reject the whole
    // batch up front instead.
    if (!std::isfinite(tuple.value)) {
      return Status::InvalidArgument(
          "tuple " + std::to_string(n) +
          " carries a non-finite value; stream values must be finite");
    }
  }
  return Status::OK();
}

Status StreamHandle::ValidateBatch(std::span<const Tuple> tuples) const {
  // The first offending tuple decides, and within one tuple the schema
  // rule comes before chronology: find the first time regression, then
  // check the schema up to and including that tuple.
  size_t n = 0;
  int64_t prev_time = last_time_;
  while (n < tuples.size() && tuples[n].time >= prev_time) {
    prev_time = tuples[n++].time;
  }
  SNS_RETURN_IF_ERROR(internal::CheckTupleSchema(
      tuples.first(std::min(n + 1, tuples.size())), mode_dims_));
  if (n == tuples.size()) return Status::OK();
  return Status::FailedPrecondition(
      "tuple " + std::to_string(n) + " regresses in time (" +
      std::to_string(tuples[n].time) + " < " + std::to_string(prev_time) +
      "); streams are strictly chronological");
}

Status StreamHandle::Warmup(std::span<const Tuple> tuples) {
  if (initialized_) {
    return Status::FailedPrecondition(
        "stream '" + name_ + "' is already live; Warmup only precedes "
        "Initialize");
  }
  SNS_RETURN_IF_ERROR(ValidateBatch(tuples));
  for (const Tuple& tuple : tuples) {
    engine_->IngestOnly(tuple);
    last_time_ = tuple.time;
  }
  return Status::OK();
}

Status StreamHandle::Initialize() {
  if (initialized_) {
    return Status::FailedPrecondition("stream '" + name_ +
                                      "' is already initialized");
  }
  engine_->InitializeWithAls();
  initialized_ = true;
  return Status::OK();
}

Status StreamHandle::Ingest(std::span<const Tuple> tuples) {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "stream '" + name_ + "' is not initialized; Warmup + Initialize "
        "before live ingestion");
  }
  SNS_RETURN_IF_ERROR(ValidateBatch(tuples));
  if (tuples.empty()) return Status::OK();
  engine_->ProcessBatch(tuples);
  last_time_ = tuples.back().time;
  return Status::OK();
}

Status StreamHandle::Ingest(const Tuple& tuple) {
  return Ingest(std::span<const Tuple>(&tuple, 1));
}

Status StreamHandle::AdvanceTo(int64_t time) {
  if (time < last_time_) {
    return Status::FailedPrecondition("cannot advance stream '" + name_ +
                                      "' backwards in time");
  }
  engine_->AdvanceTo(time);
  last_time_ = time;
  return Status::OK();
}

StatusOr<double> StreamHandle::Reconstruct(const ModeIndex& window_cell) const {
  if (window_cell.size() != num_modes()) {
    return Status::InvalidArgument(
        "window cell has " + std::to_string(window_cell.size()) +
        " coordinates; expected " + std::to_string(num_modes()) +
        " (non-time indices + time slice)");
  }
  for (size_t m = 0; m < mode_dims_.size(); ++m) {
    if (window_cell[static_cast<int>(m)] < 0 ||
        window_cell[static_cast<int>(m)] >= mode_dims_[m]) {
      return Status::OutOfRange("cell index out of range in mode " +
                                std::to_string(m));
    }
  }
  const int time_index = window_cell[num_modes() - 1];
  if (time_index < 0 || time_index >= window_size()) {
    return Status::OutOfRange("time slice out of range (window size " +
                              std::to_string(window_size()) + ")");
  }
  return engine_->model().Evaluate(window_cell);
}

StatusOr<std::vector<double>> StreamHandle::ComponentActivity() const {
  const KruskalModel& model = engine_->model();
  const Matrix& time_factor = model.factor(model.num_modes() - 1);
  const int64_t newest = time_factor.rows() - 1;
  std::vector<double> activity(static_cast<size_t>(model.rank()));
  for (int64_t r = 0; r < model.rank(); ++r) {
    activity[static_cast<size_t>(r)] =
        model.lambda()[static_cast<size_t>(r)] * time_factor(newest, r);
  }
  return activity;
}

StatusOr<std::vector<TopEntry>> StreamHandle::TopK(int mode, int k) const {
  if (mode < 0 || mode >= static_cast<int>(mode_dims_.size())) {
    return Status::InvalidArgument(
        "TopK addresses non-time modes 0.." +
        std::to_string(mode_dims_.size() - 1) +
        " (use ComponentActivity for the time mode)");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  auto activity = ComponentActivity();
  if (!activity.ok()) return activity.status();
  const Matrix& factor = engine_->model().factor(mode);
  const std::vector<double>& weights = activity.value();
  return RankTop(factor.rows(), k, [&](int64_t i) {
    const double* row = factor.Row(i);
    double score = 0.0;
    for (size_t r = 0; r < weights.size(); ++r) {
      score += row[r] * weights[r];
    }
    return score;
  });
}

StatusOr<std::vector<TopEntry>> StreamHandle::TopKForComponent(
    int mode, int64_t component, int k) const {
  if (mode < 0 || mode >= static_cast<int>(mode_dims_.size())) {
    return Status::InvalidArgument("TopKForComponent addresses non-time modes");
  }
  if (component < 0 || component >= rank()) {
    return Status::OutOfRange("component out of range (rank " +
                              std::to_string(rank()) + ")");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const Matrix& factor = engine_->model().factor(mode);
  return RankTop(factor.rows(), k,
                 [&](int64_t i) { return factor(i, component); });
}

Status StreamHandle::ValidateFactorQuery(int mode, int64_t row) const {
  if (mode < 0 || mode >= num_modes()) {
    return Status::InvalidArgument("mode out of range (tensor has " +
                                   std::to_string(num_modes()) + " modes)");
  }
  const int64_t rows = engine_->model().factor(mode).rows();
  if (row < 0 || row >= rows) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range in mode " + std::to_string(mode) +
                              " (" + std::to_string(rows) + " rows)");
  }
  return Status::OK();
}

StatusOr<FactorRowView> StreamHandle::FactorRow(int mode, int64_t row) const {
  SNS_RETURN_IF_ERROR(ValidateFactorQuery(mode, row));
  const Matrix& factor = engine_->model().factor(mode);
  return FactorRowView(factor.Row(row), factor.cols());
}

StatusOr<std::vector<TopEntry>> StreamHandle::OutlierActivity(int mode,
                                                              int k) const {
  if (!engine_->options().robust.enabled) {
    return Status::FailedPrecondition(
        "stream '" + name_ + "' runs without robust mode; OutlierActivity "
        "requires ContinuousCpdOptions::robust.enabled");
  }
  if (mode < 0 || mode >= static_cast<int>(mode_dims_.size())) {
    return Status::InvalidArgument(
        "OutlierActivity addresses non-time modes 0.." +
        std::to_string(mode_dims_.size() - 1));
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  // Fold |S| onto the queried mode: one pass over the (capacity-bounded)
  // store, then the same ranking used by TopK.
  std::vector<double> mass(
      static_cast<size_t>(mode_dims_[static_cast<size_t>(mode)]), 0.0);
  for (const auto& [cell, value] : engine_->outliers().entries()) {
    mass[static_cast<size_t>(cell[mode])] += std::fabs(value);
  }
  return RankTop(mode_dims_[static_cast<size_t>(mode)], k,
                 [&](int64_t i) { return mass[static_cast<size_t>(i)]; });
}

Status StreamHandle::AddSink(EventSink* sink) {
  if (sink == nullptr) return Status::InvalidArgument("sink must not be null");
  auto& sinks = fanout_->sinks;
  if (std::find(sinks.begin(), sinks.end(), sink) != sinks.end()) {
    return Status::FailedPrecondition("sink is already attached");
  }
  sinks.push_back(sink);
  return Status::OK();
}

Status StreamHandle::RemoveSink(EventSink* sink) {
  auto& sinks = fanout_->sinks;
  auto it = std::find(sinks.begin(), sinks.end(), sink);
  if (it == sinks.end()) {
    return Status::NotFound("sink is not attached to stream '" + name_ + "'");
  }
  sinks.erase(it);
  return Status::OK();
}

void StreamHandle::MoveSinksFrom(StreamHandle& other) {
  fanout_->sinks = std::move(other.fanout_->sinks);
  other.fanout_->sinks.clear();
}

void StreamHandle::NotifyHealthTransition(const HealthTransition& transition) {
  for (EventSink* sink : fanout_->sinks) {
    sink->OnHealthTransition(transition);
  }
}

void StreamHandle::NotifyMetrics(const telemetry::StreamMetricsSnapshot& metrics) {
  for (EventSink* sink : fanout_->sinks) {
    sink->OnMetrics(metrics);
  }
}

Status StreamHandle::Checkpoint(serial::ByteSink& sink) const {
  return durability::WriteStreamCheckpoint(*this, /*sequence=*/0, sink);
}

StatusOr<StreamHandle> StreamHandle::Restore(serial::ByteSource& source) {
  auto restored = durability::ReadStreamCheckpoint(source);
  if (!restored.ok()) return restored.status();
  return std::move(restored).value().handle;
}

Status StreamHandle::SerializeState(serial::Writer& w) const {
  w.Str(name_);
  w.U32(static_cast<uint32_t>(mode_dims_.size()));
  for (int64_t dim : mode_dims_) w.I64(dim);
  const ContinuousCpdOptions& opt = engine_->options();
  w.I64(opt.rank);
  w.I32(opt.window_size);
  w.I64(opt.period);
  w.U8(static_cast<uint8_t>(opt.variant));
  w.I64(opt.sample_threshold);
  w.F64(opt.clip_bound);
  w.U8(opt.nonnegative_factors ? 1 : 0);
  w.I64(opt.expected_nnz);
  w.I64(opt.fitness_resync_interval);
  // Retired bytes of the float32 factor mode and the per-engine generic
  // kernel flag: always 0, kept so checkpoints stay byte-compatible.
  w.U8(0);
  w.U8(0);
  w.I32(opt.init.max_iterations);
  w.F64(opt.init.fitness_tolerance);
  w.U8(opt.init.normalize_columns ? 1 : 0);
  w.U64(opt.seed);
  if (engine_->UsesExtendedState()) {
    // Version-2 extension: the loss/robust configuration must round-trip so
    // restore rebuilds the same engine. Gaussian non-robust streams skip
    // this block, keeping their payload byte-identical to version-1
    // checkpoints from pre-loss builds.
    w.U8(static_cast<uint8_t>(opt.loss));
    w.U8(opt.robust.enabled ? 1 : 0);
    w.F64(opt.robust.threshold);
    w.F64(opt.robust.decay);
    w.I64(opt.robust.capacity);
  }
  w.I64(last_time_);
  w.U8(initialized_ ? 1 : 0);
  engine_->SerializeTo(w);
  return w.status();
}

StatusOr<StreamHandle> StreamHandle::DeserializeState(serial::Reader& r,
                                                      uint32_t format_version) {
  std::string name;
  SNS_RETURN_IF_ERROR(r.Str(&name));
  uint32_t num_dims = 0;
  SNS_RETURN_IF_ERROR(r.U32(&num_dims));
  if (num_dims < 1 || num_dims >= static_cast<uint32_t>(kMaxTensorModes)) {
    return Status::DataLoss("checkpoint stream has " +
                            std::to_string(num_dims) + " non-time modes");
  }
  std::vector<int64_t> mode_dims(num_dims);
  for (uint32_t m = 0; m < num_dims; ++m) {
    SNS_RETURN_IF_ERROR(r.I64(&mode_dims[m]));
  }
  ContinuousCpdOptions opt;
  uint8_t variant = 0;
  uint8_t nonnegative = 0;
  uint8_t precision = 0;
  uint8_t force_generic = 0;
  uint8_t normalize = 0;
  SNS_RETURN_IF_ERROR(r.I64(&opt.rank));
  SNS_RETURN_IF_ERROR(r.I32(&opt.window_size));
  SNS_RETURN_IF_ERROR(r.I64(&opt.period));
  SNS_RETURN_IF_ERROR(r.U8(&variant));
  SNS_RETURN_IF_ERROR(r.I64(&opt.sample_threshold));
  SNS_RETURN_IF_ERROR(r.F64(&opt.clip_bound));
  SNS_RETURN_IF_ERROR(r.U8(&nonnegative));
  SNS_RETURN_IF_ERROR(r.I64(&opt.expected_nnz));
  SNS_RETURN_IF_ERROR(r.I64(&opt.fitness_resync_interval));
  SNS_RETURN_IF_ERROR(r.U8(&precision));
  SNS_RETURN_IF_ERROR(r.U8(&force_generic));
  SNS_RETURN_IF_ERROR(r.I32(&opt.init.max_iterations));
  SNS_RETURN_IF_ERROR(r.F64(&opt.init.fitness_tolerance));
  SNS_RETURN_IF_ERROR(r.U8(&normalize));
  SNS_RETURN_IF_ERROR(r.U64(&opt.seed));
  if (format_version >= 2) {
    // Version-2 payloads name their loss/robust configuration explicitly.
    // Version-1 payloads predate the loss subsystem and keep the Gaussian
    // non-robust defaults already in `opt` — by construction they can only
    // have been written by a Gaussian stream, so this is a faithful
    // restore, not a guess.
    uint8_t loss = 0;
    uint8_t robust_enabled = 0;
    SNS_RETURN_IF_ERROR(r.U8(&loss));
    SNS_RETURN_IF_ERROR(r.U8(&robust_enabled));
    SNS_RETURN_IF_ERROR(r.F64(&opt.robust.threshold));
    SNS_RETURN_IF_ERROR(r.F64(&opt.robust.decay));
    SNS_RETURN_IF_ERROR(r.I64(&opt.robust.capacity));
    if (loss > static_cast<uint8_t>(LossKind::kBernoulliLogit)) {
      return Status::DataLoss("checkpoint names unknown loss kind " +
                              std::to_string(loss));
    }
    opt.loss = static_cast<LossKind>(loss);
    opt.robust.enabled = robust_enabled != 0;
  }
  if (variant > static_cast<uint8_t>(SnsVariant::kRndPlus)) {
    return Status::DataLoss("checkpoint names unknown variant " +
                            std::to_string(variant));
  }
  if (precision != 0) {
    return Status::DataLoss(
        "checkpoint uses the removed float32 factor precision mode (byte " +
        std::to_string(precision) + "); only float64 is supported");
  }
  if (force_generic != 0) {
    return Status::DataLoss(
        "checkpoint sets the removed per-engine generic-kernel flag; "
        "pin the generic tier with SNS_FORCE_GENERIC_KERNELS instead");
  }
  opt.variant = static_cast<SnsVariant>(variant);
  opt.nonnegative_factors = nonnegative != 0;
  opt.init.normalize_columns = normalize != 0;
  auto handle = StreamHandle::Create(std::move(name), std::move(mode_dims),
                                     opt);
  if (!handle.ok()) return handle.status();
  int64_t last_time = 0;
  uint8_t initialized = 0;
  SNS_RETURN_IF_ERROR(r.I64(&last_time));
  SNS_RETURN_IF_ERROR(r.U8(&initialized));
  SNS_RETURN_IF_ERROR(handle.value().engine_->RestoreFrom(r));
  handle.value().last_time_ = last_time;
  handle.value().initialized_ = initialized != 0;
  return handle;
}

StreamStats StreamHandle::Stats() const {
  StreamStats stats;
  stats.events_processed = engine_->events_processed();
  stats.mean_update_micros = engine_->MeanUpdateMicros();
  stats.update_seconds = engine_->update_seconds();
  stats.window_nnz = engine_->window().nnz();
  stats.active_tuples = engine_->window_model().ActiveTupleCount();
  stats.last_time = last_time_ == INT64_MIN ? 0 : last_time_;
  stats.has_ingested = last_time_ != INT64_MIN;
  stats.initialized = initialized_;
  const OutlierStore& outliers = engine_->outliers();
  stats.outlier_cells = static_cast<int64_t>(outliers.size());
  stats.outlier_magnitude = outliers.TotalMagnitude();
  stats.outlier_captures = outliers.captures();
  stats.outlier_evictions = outliers.evictions();
  return stats;
}

}  // namespace sns
