// Typed event delivery of the service facade: StreamEvent + EventSink.
//
// Replaces the engine's single std::function observer with a fan-out of
// subscriber objects. Each window event is delivered to every sink attached
// to the stream, wrapped in a StreamEvent that answers the questions
// downstream consumers actually ask (observed vs predicted value at the
// event's cell) without handing out the raw window/state internals.

#ifndef SLICENSTITCH_API_STREAM_EVENT_H_
#define SLICENSTITCH_API_STREAM_EVENT_H_

#include <cmath>
#include <cstdint>

#include "api/stream_health.h"
#include "stream/event.h"
#include "telemetry/metrics_registry.h"
#include "tensor/kruskal.h"
#include "tensor/sparse_tensor.h"

namespace sns {

/// Read-only view of one window event, valid only for the duration of the
/// sink callback. Sinks observe the moment after the event's delta has been
/// applied to the window but before the factor update — the point where
/// |observed − predicted| is the event's reconstruction error (§VI-G).
class StreamEvent {
 public:
  /// Arrival, slide, or expiry (§IV-B).
  EventKind kind() const { return delta_->kind; }
  /// Stream time at which the event occurred.
  int64_t time() const { return delta_->time; }
  /// The originating stream tuple (non-time mode indices + value).
  const Tuple& tuple() const { return delta_->tuple; }
  /// True when the event changed no window cell (zero-valued tuple).
  bool empty() const { return delta_->cells.empty(); }

  /// The event's primary window cell: where the value landed (the newest
  /// slice for arrivals, the slice entered for slides) or left (expiries).
  ModeIndex Cell() const;

  /// Window value at the primary cell, delta already applied.
  double ObservedValue() const { return window_->Get(Cell()); }
  /// Pre-update model reconstruction at the primary cell.
  double PredictedValue() const { return model_->Evaluate(Cell()); }
  /// |observed − predicted|: the event's reconstruction error.
  double AbsError() const {
    return std::fabs(ObservedValue() - PredictedValue());
  }

  /// Signed outlier mass the robust mode (ContinuousCpdOptions::robust)
  /// diverted from this arrival into the sparse outlier structure S — the
  /// model-separated anomaly signal. 0 when robust mode is off, for
  /// slide/expiry events, and for arrivals the model explains within the
  /// soft threshold.
  double OutlierCapture() const { return outlier_capture_; }

  /// Raw change record (Definition 6) — escape hatch for advanced sinks.
  const WindowDelta& raw_delta() const { return *delta_; }

 private:
  friend class StreamHandle;
  StreamEvent(const WindowDelta* delta, const KruskalModel* model,
              const SparseTensor* window, double outlier_capture)
      : delta_(delta),
        model_(model),
        window_(window),
        outlier_capture_(outlier_capture) {}

  const WindowDelta* delta_;
  const KruskalModel* model_;
  const SparseTensor* window_;
  double outlier_capture_;
};

inline ModeIndex StreamEvent::Cell() const {
  if (!delta_->cells.empty()) {
    // Slides carry two cells: [0] the slice left (−v), [1] the slice
    // entered (+v). Arrivals and expiries carry one.
    const size_t slot = delta_->kind == EventKind::kSlide ? 1 : 0;
    return delta_->cells[slot].index;
  }
  // Zero-valued arrival: the newest-slice cell it would have landed in.
  return delta_->tuple.index.WithAppended(
      static_cast<int32_t>(window_->dim(window_->num_modes() - 1) - 1));
}

/// Subscriber interface for window events. Attach any number of sinks to a
/// StreamHandle with AddSink; each event is delivered to all of them in
/// attachment order. Sinks are borrowed, never owned — they must outlive
/// their registration (or be removed with RemoveSink first) and must not
/// ingest into or reconfigure the stream from inside the callback.
class EventSink {
 public:
  virtual ~EventSink() = default;

  virtual void OnStreamEvent(const StreamEvent& event) = 0;

  /// Health state-machine edge of the stream (quarantine, recovery attempt,
  /// healed, failed — api/stream_health.h). Delivered on the stream's
  /// owning shard as the transition happens; the default ignores it, so
  /// sinks that only care about window events need no change.
  virtual void OnHealthTransition(const HealthTransition& transition) {
    (void)transition;
  }

  /// Periodic metrics sample for the stream, fired every
  /// ServiceOptions::metrics.export_interval_ms when the periodic exporter
  /// is configured. Delivered on the stream's lane: its owning shard
  /// (shards >= 1), or the caller lane (shards = 0), which here means the
  /// exporter thread that submits the delivery. SnsService::Remove waits for
  /// an in-flight delivery to the stream, so none arrives after Remove
  /// returns. The default ignores it.
  virtual void OnMetrics(const telemetry::StreamMetricsSnapshot& metrics) {
    (void)metrics;
  }
};

}  // namespace sns

#endif  // SLICENSTITCH_API_STREAM_EVENT_H_
