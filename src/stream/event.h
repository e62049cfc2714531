// Event types of the continuous tensor model.
//
// A timestamped tuple (Definition 1) causes W+1 window events (§IV-B):
// its arrival (S.1), W−1 slides between adjacent tensor units (S.2), and
// its expiry (S.3). WindowDelta captures the resulting change ΔX of the
// tensor window (Definition 6) that the updaters consume.

#ifndef SLICENSTITCH_STREAM_EVENT_H_
#define SLICENSTITCH_STREAM_EVENT_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "tensor/mode_index.h"

namespace sns {

/// One record of a multi-aspect data stream: (i_1, …, i_{M-1}, v) at time t.
/// `index` holds the M−1 categorical (non-time) mode indices.
struct Tuple {
  ModeIndex index;
  double value = 0.0;
  int64_t time = 0;
};

/// Kind of window event caused by a tuple.
enum class EventKind {
  kArrival,  // S.1: +v at time slice W−1 (0-based newest).
  kSlide,    // S.2: −v at slice W−w, +v at slice W−w−1 (0-based), 1 ≤ w < W.
  kExpiry,   // S.3: −v at slice 0.
};

/// One changed cell of the window: full M-mode coordinate and signed delta.
struct DeltaCell {
  ModeIndex index;  // Window coordinate (non-time indices + time index).
  double delta = 0.0;
};

/// The changed cells of one event, stored inline: under Definition 6 an
/// event changes at most two cells, so producing a window event never
/// touches the heap. A third push_back is a logic error (SNS_CHECK).
class DeltaCells {
 public:
  static constexpr size_t kCapacity = 2;

  void push_back(const DeltaCell& cell) {
    SNS_CHECK(size_ < kCapacity);
    cells_[size_++] = cell;
  }
  void clear() { size_ = 0; }
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  const DeltaCell& operator[](size_t i) const {
    SNS_DCHECK(i < size_);
    return cells_[i];
  }
  const DeltaCell* begin() const { return cells_.data(); }
  const DeltaCell* end() const { return cells_.data() + size_; }

 private:
  std::array<DeltaCell, kCapacity> cells_;
  size_t size_ = 0;
};

/// The change ΔX in the window due to one event (Definition 6): one cell for
/// arrival/expiry, two for a slide. `w = (t − t_n)/T` distinguishes the
/// cases (0 = arrival, 1..W−1 = slide, W = expiry).
struct WindowDelta {
  EventKind kind = EventKind::kArrival;
  int w = 0;
  int64_t time = 0;      // When the event occurred.
  Tuple tuple;           // Originating stream tuple.
  DeltaCells cells;
};

}  // namespace sns

#endif  // SLICENSTITCH_STREAM_EVENT_H_
