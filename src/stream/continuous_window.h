// Event-driven implementation of the continuous tensor model (Algorithm 1).
//
// The window D(t, W) is an M-mode sparse tensor whose last mode is time with
// W indices (0 = oldest unit, W−1 = newest). Each ingested tuple immediately
// adds its value to the newest slice and schedules its first slide; the
// scheduled events move the value backwards one slice per period until it
// expires, exactly reproducing events S.1–S.3. Complexity matches Theorems
// 1–2: O(M + W) per event, O(W+1) events per tuple, space linear in the
// active tuples.
//
// The schedule needs no priority queue. A tuple arriving at t has its w-th
// event due at t + w·T (Theorem 1), so the tuples whose next event is the
// w-th one — stage w — fall due in arrival order, and stage w+1 holds only
// tuples that arrived no later than any tuple of stage w. Active tuples are
// therefore kept once, in arrival order, and the stages are W consecutive
// runs of that sequence marked by W cursors; the next event is the earliest
// (due, seq) among the W stage heads.

#ifndef SLICENSTITCH_STREAM_CONTINUOUS_WINDOW_H_
#define SLICENSTITCH_STREAM_CONTINUOUS_WINDOW_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "stream/event.h"
#include "tensor/sparse_tensor.h"

namespace sns {

namespace serial {
class Writer;
class Reader;
}  // namespace serial

/// Maintains the up-to-date tensor window of a multi-aspect data stream
/// under the continuous tensor model.
///
/// Callers interleave Ingest (tuple arrivals, chronological) with draining
/// scheduled events: before ingesting a tuple at time t, drain every
/// scheduled event due at or before t (AdvanceTo(t)) so window state always
/// reflects D(t, W). Scheduled events due exactly at an arrival's timestamp
/// are processed before the arrival, making replays deterministic.
class ContinuousTensorWindow {
 public:
  /// mode_dims: sizes of the M−1 non-time modes. window_size: W ≥ 1 time
  /// indices. period: T ≥ 1 time units per tensor unit. expected_nnz
  /// (optional) pre-sizes the window tensor for that many simultaneous
  /// non-zeros, avoiding rehash/realloc storms during warm-up ingestion.
  ContinuousTensorWindow(std::vector<int64_t> mode_dims, int window_size,
                         int64_t period, int64_t expected_nnz = 0);

  /// The live window tensor X = D(t, W); last mode is time.
  const SparseTensor& tensor() const { return window_; }

  int window_size() const { return window_size_; }
  int64_t period() const { return period_; }
  /// Number of modes of the window tensor (M = non-time modes + 1).
  int num_modes() const { return window_.num_modes(); }
  const std::vector<int64_t>& mode_dims() const { return window_.dims(); }

  /// Applies S.1 for a tuple: adds v at slice W−1, schedules the next event.
  /// Tuples must arrive in non-decreasing time order and only after all
  /// earlier-due scheduled events have been drained. Zero-valued tuples
  /// produce an empty delta and schedule nothing.
  WindowDelta Ingest(const Tuple& tuple);

  /// Validating wrapper around Ingest for API-boundary use.
  Status IngestChecked(const Tuple& tuple, WindowDelta* delta);

  bool HasScheduled() const { return next_ != 0; }

  /// Due time of the earliest scheduled slide/expiry event;
  /// int64_t max when none are pending.
  int64_t NextScheduledTime() const { return stages_[next_].due; }

  /// Pops the earliest scheduled event, applies it (S.2 or S.3), schedules
  /// the follow-up, and returns its delta. Requires HasScheduled().
  WindowDelta PopScheduled();

  /// Applies every scheduled event due at or before `time`, invoking
  /// `on_event(delta)` after each application. Statically dispatched so the
  /// per-event path carries no std::function indirection.
  template <typename Fn>
  void AdvanceTo(int64_t time, Fn&& on_event) {
    while (HasScheduled() && NextScheduledTime() <= time) {
      on_event(PopScheduled());
    }
  }

  /// Applies every scheduled event due at or before `time`.
  void AdvanceTo(int64_t time) {
    while (HasScheduled() && NextScheduledTime() <= time) PopScheduled();
  }

  /// Number of tuples currently inside the window span (active tuples).
  int64_t ActiveTupleCount() const {
    return static_cast<int64_t>(stages_[0].head - stages_[window_size_].head);
  }

  /// Serializes the window tensor (with storage layout), the event clock,
  /// and the pending schedule in deterministic (due, seq) order.
  void SerializeTo(serial::Writer& w) const;

  /// Restores into this window, which must be freshly constructed with the
  /// same shape/period. Replays are then bitwise identical: events are
  /// applied in the strict (due, seq) order the snapshot recorded. Corrupt
  /// input fails with kDataLoss, including a schedule no stream could have
  /// produced (an entry not due at its tuple's time + w·T, entries out of
  /// (due, seq) order, or a stage holding a tuple newer than a later stage's).
  Status RestoreFrom(serial::Reader& r);

 private:
  // An active tuple, stored once for its whole stay in the window.
  struct Active {
    Tuple tuple;
    uint64_t seq = 0;  // Seq of its pending event: FIFO tie-break on due.
  };
  // Stage w ∈ [1, W] holds the active tuples whose next event is the w-th
  // (w = W: expiry): arrival numbers [stages_[w].head, stages_[w − 1].head).
  // stages_[0] is the end marker: head = one past the newest arrival, and
  // its key (INT64_MAX, UINT64_MAX) loses to every pending event.
  struct Stage {
    uint64_t head = 0;
    int64_t due = std::numeric_limits<int64_t>::max();  // Head event's.
    uint64_t seq = std::numeric_limits<uint64_t>::max();
  };

  Active& Slot(uint64_t arrival) { return active_[arrival & slot_mask_]; }
  const Active& Slot(uint64_t arrival) const {
    return active_[arrival & slot_mask_];
  }
  /// Sets `stage`'s key from the tuple at its head, as stage w's first
  /// event, or to the empty key when the head has reached `end`.
  void LoadHeadKey(int w, uint64_t end, Stage& stage) const;
  /// Re-reads stage w's head key after its head or its end moved.
  void RefreshStage(int w) { LoadHeadKey(w, stages_[w - 1].head, stages_[w]); }
  /// The stage (index into `stages`) whose head key is the earliest in
  /// (due, seq); 0 when every stage is empty.
  static int EarliestStage(const std::vector<Stage>& stages);
  /// Doubles the ring of active tuples (arrival numbers are kept).
  void GrowSlots();

  SparseTensor window_;
  int window_size_;
  int64_t period_;
  uint64_t next_seq_ = 0;
  int64_t last_event_time_ = INT64_MIN;
  // Active tuples in arrival order: a power-of-two ring indexed by arrival
  // number, holding arrivals [stages_[W].head, stages_[0].head).
  std::vector<Active> active_;
  uint64_t slot_mask_ = 0;
  std::vector<Stage> stages_;  // W + 1 entries; see Stage.
  int next_ = 0;               // EarliestStage(), kept current.
};

}  // namespace sns

#endif  // SLICENSTITCH_STREAM_CONTINUOUS_WINDOW_H_
