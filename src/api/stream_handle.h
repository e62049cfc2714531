// StreamHandle — one continuously decomposed stream behind a typed surface.
//
// The handle owns a pinned ContinuousCpd engine (unique_ptr pimpl, so the
// handle itself moves freely while the updaters' internal pointers into
// CpdState stay valid) and layers three things on top of it:
//   - validated, batched ingestion: Warmup / Initialize / Ingest(span) with
//     whole-batch validation before any mutation and event ordering
//     identical to per-tuple processing,
//   - a typed query surface (Reconstruct, TopK, ComponentActivity,
//     FactorRow, RunningFitness) replacing raw CpdState / SparseTensor
//     access,
//   - multi-subscriber event delivery (EventSink fan-out).
// Handles are created standalone (StreamHandle::Create) or pooled and
// routed by name through SnsService (api/sns_service.h).

#ifndef SLICENSTITCH_API_STREAM_HANDLE_H_
#define SLICENSTITCH_API_STREAM_HANDLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/stream_event.h"
#include "common/status.h"
#include "core/continuous_cpd.h"
#include "core/options.h"

namespace sns {

namespace serial {
class ByteSink;
class ByteSource;
class Writer;
class Reader;
}  // namespace serial

/// One ranked result of a TopK query.
struct TopEntry {
  int64_t index = 0;  // Row index within the queried mode.
  double score = 0.0;
};

/// Non-owning view of one factor row — the live R-dimensional embedding of
/// one entity. The pointed-to storage is stable for the lifetime of the
/// stream (factor shapes never change after creation), but the values
/// refresh with every processed event; copy the row if a snapshot is needed.
class FactorRowView {
 public:
  FactorRowView() = default;

  int64_t rank() const { return rank_; }
  double operator[](int64_t r) const {
    SNS_DCHECK(r >= 0 && r < rank_);
    return data_[r];
  }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + rank_; }

 private:
  friend class StreamHandle;
  FactorRowView(const double* data, int64_t rank)
      : data_(data), rank_(rank) {}

  const double* data_ = nullptr;
  int64_t rank_ = 0;
};

/// Point-in-time counters of one stream.
struct StreamStats {
  int64_t events_processed = 0;  // Window events that updated the factors.
  double mean_update_micros = 0.0;
  double update_seconds = 0.0;
  int64_t window_nnz = 0;        // Non-zeros currently in the window.
  int64_t active_tuples = 0;     // Tuples inside the window span.
  int64_t last_time = 0;         // Largest stream time seen (0 before any).
  bool has_ingested = false;     // Any Warmup/Ingest/AdvanceTo happened.
  bool initialized = false;      // InitializeWithAls has run.
  // Robust-mode counters (all 0 when robust mode is off).
  int64_t outlier_cells = 0;          // Entries currently held in S.
  double outlier_magnitude = 0.0;     // Σ|S| over those entries.
  uint64_t outlier_captures = 0;      // Arrivals that fed mass into S.
  uint64_t outlier_evictions = 0;     // Entries displaced at capacity.
};

/// Facade over one continuous CP decomposition. Move-only.
///
/// Lifecycle: Create → Warmup(tuples of the first window span) →
/// Initialize → Ingest live tuples (single or batched) — the protocol of
/// §VI-A. Ingestion is strictly chronological across all calls; every
/// mutating entry point validates its whole input against the stream schema
/// before touching the engine, so a failed call leaves the stream unchanged.
class StreamHandle {
 public:
  /// Validates options/schema and builds an uninitialized stream over the
  /// given non-time mode sizes.
  static StatusOr<StreamHandle> Create(std::string name,
                                       std::vector<int64_t> mode_dims,
                                       const ContinuousCpdOptions& options);

  StreamHandle(StreamHandle&&) = default;
  StreamHandle& operator=(StreamHandle&&) = default;

  // --- Ingestion --------------------------------------------------------

  /// Applies tuples to the window only (no factor updates). Valid before
  /// Initialize; typically fed the first window span of the stream.
  Status Warmup(std::span<const Tuple> tuples);

  /// Fits the initial factors to the warmed-up window with batch ALS and
  /// switches the stream live. Fails once initialized (the engine refits
  /// only through a fresh stream).
  Status Initialize();

  /// Processes one chronological batch of live tuples. Event order is
  /// identical to ingesting tuple-by-tuple (pinned by tests); shared
  /// slide/expiry draining is batched through the engine's cached schedule
  /// bound. The whole span is validated first — on error nothing was
  /// ingested.
  Status Ingest(std::span<const Tuple> tuples);

  /// Single-tuple convenience form of Ingest.
  Status Ingest(const Tuple& tuple);

  /// Drains scheduled slide/expiry events due at or before `time` (factor
  /// updates included once initialized). Time must not regress.
  Status AdvanceTo(int64_t time);

  // --- Typed queries ----------------------------------------------------

  /// Model reconstruction x̃ at one full window coordinate (non-time indices
  /// + time index in [0, W), 0 = oldest slice).
  StatusOr<double> Reconstruct(const ModeIndex& window_cell) const;

  /// Top-k entities of one non-time mode by current activity-weighted
  /// loading: score_i = Σ_r A(mode)(i, r) · ComponentActivity()[r]. Returns
  /// min(k, mode size) entries, best first.
  StatusOr<std::vector<TopEntry>> TopK(int mode, int k) const;

  /// Top-k entities of one non-time mode by raw loading in a single
  /// component — the interpretable "what is this pattern made of" query.
  StatusOr<std::vector<TopEntry>> TopKForComponent(int mode,
                                                   int64_t component,
                                                   int k) const;

  /// Current per-component activity: λ_r times the newest time-mode factor
  /// row — how strongly each recurring pattern expresses right now.
  StatusOr<std::vector<double>> ComponentActivity() const;

  /// Live factor row (embedding) of entity `row` in mode `mode`. Non-time
  /// modes address entities; the time mode addresses window slices.
  StatusOr<FactorRowView> FactorRow(int mode, int64_t row) const;

  /// Top-k entities of one non-time mode by accumulated outlier mass:
  /// score_i = Σ |S(J)| over stored outlier cells J with J[mode] = i — the
  /// "which entities is the model currently refusing to explain" query.
  /// Requires ContinuousCpdOptions::robust.enabled (kFailedPrecondition
  /// otherwise). Returns min(k, mode size) entries, best first.
  StatusOr<std::vector<TopEntry>> OutlierActivity(int mode, int k) const;

  /// Incrementally maintained fitness estimate — O(M·R²) per query, no
  /// window rescan. 0 before Initialize.
  double RunningFitness() const { return engine_->RunningFitness(); }

  /// Exact fitness 1 − ‖X̃ − X‖_F/‖X‖_F — a full O(nnz·M·R) rescan.
  double ExactFitness() const { return engine_->Fitness(); }

  // --- Event sinks ------------------------------------------------------

  /// Subscribes a sink to every window event (delivery in attachment
  /// order). The sink is borrowed and must stay alive until removed.
  Status AddSink(EventSink* sink);

  /// Unsubscribes a previously added sink.
  Status RemoveSink(EventSink* sink);

  /// Takes over `other`'s sink subscriptions (this handle's own list is
  /// replaced). Recovery uses this to carry live subscriptions onto a
  /// rebuilt handle — sinks are process-local wiring, not stream state.
  void MoveSinksFrom(StreamHandle& other);

  /// Delivers one health state-machine edge to every attached sink
  /// (EventSink::OnHealthTransition), in attachment order. Called by the
  /// service's supervisor on the owning shard.
  void NotifyHealthTransition(const HealthTransition& transition);

  /// Delivers one periodic metrics sample to every attached sink
  /// (EventSink::OnMetrics), in attachment order. Called by the service's
  /// periodic exporter on the owning shard.
  void NotifyMetrics(const telemetry::StreamMetricsSnapshot& metrics);

  // --- Durability -------------------------------------------------------

  /// Writes a versioned, CRC-guarded checkpoint of the complete stream
  /// state (durability/checkpoint.h envelope) with sequence token 0 — the
  /// standalone-handle form; SnsService::Checkpoint stamps the stream's
  /// live token instead.
  Status Checkpoint(serial::ByteSink& sink) const;

  /// Rebuilds a stream from a Checkpoint byte stream. After an OK return
  /// the restored stream's observable behavior — every factor value, query
  /// result, and future trajectory — is bitwise identical to the stream the
  /// checkpoint was taken from. Corrupt input fails with a typed Status
  /// (kDataLoss / kInvalidArgument / kFailedPrecondition), never a crash.
  static StatusOr<StreamHandle> Restore(serial::ByteSource& source);

  /// Raw state payload (schema, options, clock, engine) without the
  /// checkpoint envelope; durability/checkpoint.h wraps it with the magic /
  /// version / CRC frame. Event sinks are not serialized — subscriptions
  /// are process-local wiring and must be re-attached after Restore.
  Status SerializeState(serial::Writer& w) const;

  /// Inverse of SerializeState. Only safe over CRC-verified bytes — the
  /// decoder validates shapes and enum ranges but trusts verified payloads.
  /// `format_version` is the checkpoint envelope version the bytes were
  /// framed under: version 1 payloads (pre-loss builds) carry no loss/robust
  /// fields and always restore as Gaussian; version 2 payloads carry them
  /// explicitly, so a non-Gaussian stream can never be silently
  /// misinterpreted as Gaussian.
  static StatusOr<StreamHandle> DeserializeState(serial::Reader& r,
                                                 uint32_t format_version = 1);

  /// True when the stream's checkpoint payload carries loss/robust state
  /// beyond the Gaussian baseline and therefore needs the version-2
  /// envelope. Gaussian non-robust streams keep writing version-1 bytes.
  bool UsesExtendedState() const { return engine_->UsesExtendedState(); }

  // --- Introspection ----------------------------------------------------

  const std::string& name() const { return name_; }
  /// Sizes of the non-time modes (the stream schema).
  const std::vector<int64_t>& mode_dims() const { return mode_dims_; }
  /// Modes of the window tensor (non-time modes + time).
  int num_modes() const { return static_cast<int>(mode_dims_.size()) + 1; }
  int64_t rank() const { return engine_->options().rank; }
  int window_size() const { return engine_->options().window_size; }
  int64_t period() const { return engine_->options().period; }
  std::string_view variant_name() const { return engine_->updater_name(); }
  bool initialized() const { return initialized_; }
  const ContinuousCpdOptions& options() const { return engine_->options(); }
  /// Monotone robust-mode counters (0 when robust mode is off). The service
  /// layer diffs them around each mutation to feed per-stream telemetry.
  uint64_t OutlierCaptures() const { return engine_->outliers().captures(); }
  uint64_t OutlierEvictions() const { return engine_->outliers().evictions(); }

  StreamStats Stats() const;

 private:
  StreamHandle(std::string name, std::vector<int64_t> mode_dims,
               std::unique_ptr<ContinuousCpd> engine);

  /// Whole-batch schema/chronology validation; on OK the batch is safe to
  /// apply atomically.
  Status ValidateBatch(std::span<const Tuple> tuples) const;
  Status ValidateFactorQuery(int mode, int64_t row) const;

  // The sink list lives behind its own stable allocation: the engine's
  // observer closure captures its address, which must survive handle moves.
  struct SinkFanout {
    std::vector<EventSink*> sinks;
  };

  std::string name_;
  std::vector<int64_t> mode_dims_;
  std::unique_ptr<ContinuousCpd> engine_;
  std::unique_ptr<SinkFanout> fanout_;
  int64_t last_time_ = INT64_MIN;
  bool initialized_ = false;
};

namespace internal {

/// The schema rule every stream tuple obeys: one index per non-time mode,
/// each inside its mode's range, and a finite value. Returns
/// kInvalidArgument naming the first tuple of `tuples` that breaks it, or
/// OK. The one definition behind StreamHandle's batch validation and the
/// service's admission control.
Status CheckTupleSchema(std::span<const Tuple> tuples,
                        std::span<const int64_t> mode_dims);

}  // namespace internal

}  // namespace sns

#endif  // SLICENSTITCH_API_STREAM_HANDLE_H_
