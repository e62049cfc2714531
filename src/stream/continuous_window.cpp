#include "stream/continuous_window.h"

#include <algorithm>
#include <string>

#include "common/serial.h"

namespace sns {
namespace {

constexpr int64_t kNoDue = std::numeric_limits<int64_t>::max();
constexpr uint64_t kNoSeq = std::numeric_limits<uint64_t>::max();
constexpr uint64_t kMinSlots = 16;

std::vector<int64_t> WindowDims(std::vector<int64_t> mode_dims,
                                int window_size) {
  mode_dims.push_back(window_size);
  return mode_dims;
}

}  // namespace

ContinuousTensorWindow::ContinuousTensorWindow(std::vector<int64_t> mode_dims,
                                               int window_size, int64_t period,
                                               int64_t expected_nnz)
    : window_(WindowDims(std::move(mode_dims), window_size), expected_nnz),
      window_size_(window_size),
      period_(period) {
  SNS_CHECK(window_size_ >= 1);
  SNS_CHECK(period_ >= 1);
  stages_.resize(window_size_ + 1);
}

WindowDelta ContinuousTensorWindow::Ingest(const Tuple& tuple) {
  SNS_CHECK(tuple.index.size() == num_modes() - 1);
  SNS_CHECK(tuple.time >= last_event_time_);
  SNS_CHECK(NextScheduledTime() >= tuple.time);  // Drain the schedule first.
  last_event_time_ = tuple.time;

  WindowDelta delta;
  delta.kind = EventKind::kArrival;
  delta.w = 0;
  delta.time = tuple.time;
  delta.tuple = tuple;
  if (tuple.value == 0.0) return delta;

  const ModeIndex cell = tuple.index.WithAppended(window_size_ - 1);
  window_.Add(cell, tuple.value);
  delta.cells.push_back({cell, tuple.value});

  // The tuple joins the tail of stage 1; it is the stage's head, and may be
  // the earliest event, only when the stage was empty.
  if (ActiveTupleCount() == static_cast<int64_t>(active_.size())) GrowSlots();
  const bool first_of_stage = stages_[1].head == stages_[0].head;
  Active& slot = Slot(stages_[0].head++);
  slot.tuple = tuple;
  slot.seq = next_seq_++;
  if (first_of_stage) {
    RefreshStage(1);
    next_ = EarliestStage(stages_);
  }
  return delta;
}

Status ContinuousTensorWindow::IngestChecked(const Tuple& tuple,
                                             WindowDelta* delta) {
  if (tuple.index.size() != num_modes() - 1) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  for (int m = 0; m < tuple.index.size(); ++m) {
    if (tuple.index[m] < 0 || tuple.index[m] >= window_.dim(m)) {
      return Status::OutOfRange("tuple index out of range in mode " +
                                std::to_string(m));
    }
  }
  if (tuple.time < last_event_time_) {
    return Status::FailedPrecondition("tuples must be chronological");
  }
  if (NextScheduledTime() < tuple.time) {
    return Status::FailedPrecondition(
        "scheduled events before this tuple must be drained first");
  }
  WindowDelta out = Ingest(tuple);
  if (delta != nullptr) *delta = std::move(out);
  return Status::OK();
}

WindowDelta ContinuousTensorWindow::PopScheduled() {
  SNS_CHECK(HasScheduled());
  const int w = next_;
  Stage& stage = stages_[w];
  SNS_CHECK(stage.due >= last_event_time_);
  last_event_time_ = stage.due;
  // The head leaves stage w; advancing the cursor appends it to the tail of
  // stage w + 1 (or drops it from the window when w = W).
  Active& active = Slot(stage.head++);
  const Tuple& tuple = active.tuple;
  const double v = tuple.value;

  WindowDelta delta;
  delta.w = w;
  delta.time = last_event_time_;
  delta.tuple = tuple;

  // S.2 / S.3: remove from slice W−w (0-based), the slice the value has
  // occupied for the past period.
  const ModeIndex from = tuple.index.WithAppended(window_size_ - w);
  window_.Add(from, -v);
  delta.cells.push_back({from, -v});

  if (w < window_size_) {
    delta.kind = EventKind::kSlide;
    const ModeIndex to = tuple.index.WithAppended(window_size_ - w - 1);
    window_.Add(to, v);
    delta.cells.push_back({to, v});
    active.seq = next_seq_++;
    RefreshStage(w + 1);
  } else {
    delta.kind = EventKind::kExpiry;
  }
  RefreshStage(w);
  next_ = EarliestStage(stages_);
  return delta;
}

void ContinuousTensorWindow::LoadHeadKey(int w, uint64_t end,
                                         Stage& stage) const {
  if (stage.head == end) {
    stage.due = kNoDue;
    stage.seq = kNoSeq;
    return;
  }
  const Active& active = Slot(stage.head);
  stage.due = active.tuple.time + static_cast<int64_t>(w) * period_;
  stage.seq = active.seq;
}

int ContinuousTensorWindow::EarliestStage(const std::vector<Stage>& stages) {
  int best = 0;
  for (int w = 1; w < static_cast<int>(stages.size()); ++w) {
    const Stage& s = stages[w];
    const Stage& b = stages[best];
    if (s.due < b.due || (s.due == b.due && s.seq < b.seq)) best = w;
  }
  return best;
}

void ContinuousTensorWindow::GrowSlots() {
  const uint64_t capacity =
      std::max<uint64_t>(kMinSlots, 2 * static_cast<uint64_t>(active_.size()));
  std::vector<Active> grown(capacity);
  for (uint64_t a = stages_[window_size_].head; a != stages_[0].head; ++a) {
    grown[a & (capacity - 1)] = Slot(a);
  }
  active_.swap(grown);
  slot_mask_ = capacity - 1;
}

void ContinuousTensorWindow::SerializeTo(serial::Writer& w) const {
  window_.SerializeTo(w);
  w.U64(next_seq_);
  w.I64(last_event_time_);
  // Merge the stage FIFOs: entries emerge in the exact (due, seq) order the
  // events will be applied in, which is also a canonical encoding.
  w.U64(static_cast<uint64_t>(ActiveTupleCount()));
  std::vector<Stage> cursors = stages_;
  for (int s = EarliestStage(cursors); s != 0; s = EarliestStage(cursors)) {
    Stage& cursor = cursors[s];
    const Tuple& tuple = Slot(cursor.head).tuple;
    w.I64(cursor.due);
    w.U64(cursor.seq);
    w.I32(s);
    w.U32(static_cast<uint32_t>(tuple.index.size()));
    for (int m = 0; m < tuple.index.size(); ++m) w.I32(tuple.index[m]);
    w.F64(tuple.value);
    w.I64(tuple.time);
    ++cursor.head;
    LoadHeadKey(s, stages_[s - 1].head, cursor);
  }
}

Status ContinuousTensorWindow::RestoreFrom(serial::Reader& r) {
  SNS_RETURN_IF_ERROR(window_.RestoreFrom(r));
  SNS_RETURN_IF_ERROR(r.U64(&next_seq_));
  SNS_RETURN_IF_ERROR(r.I64(&last_event_time_));
  uint64_t pending = 0;
  SNS_RETURN_IF_ERROR(r.U64(&pending));
  const int arity = num_modes() - 1;
  // Entries come in (due, seq) order; within one stage that is arrival
  // order, so each stage's FIFO is rebuilt by appending.
  std::vector<std::vector<Active>> staged(window_size_ + 1);
  int64_t prev_due = 0;
  uint64_t prev_seq = 0;
  for (uint64_t i = 0; i < pending; ++i) {
    int64_t due = 0;
    uint64_t seq = 0;
    int32_t w = 0;
    Active entry;
    SNS_RETURN_IF_ERROR(r.I64(&due));
    SNS_RETURN_IF_ERROR(r.U64(&seq));
    SNS_RETURN_IF_ERROR(r.I32(&w));
    uint32_t stored_arity = 0;
    SNS_RETURN_IF_ERROR(r.U32(&stored_arity));
    if (static_cast<int>(stored_arity) != arity) {
      return Status::DataLoss("scheduled event " + std::to_string(i) +
                              " has arity " + std::to_string(stored_arity) +
                              ", window expects " + std::to_string(arity));
    }
    for (int m = 0; m < arity; ++m) {
      int32_t c = 0;
      SNS_RETURN_IF_ERROR(r.I32(&c));
      if (c < 0 || c >= window_.dim(m)) {
        return Status::DataLoss("scheduled event " + std::to_string(i) +
                                " index out of range in mode " +
                                std::to_string(m));
      }
      entry.tuple.index.PushBack(c);
    }
    SNS_RETURN_IF_ERROR(r.F64(&entry.tuple.value));
    SNS_RETURN_IF_ERROR(r.I64(&entry.tuple.time));
    entry.seq = seq;
    const int64_t time = entry.tuple.time;
    if (w < 1 || w > window_size_ || seq >= next_seq_ ||
        due < last_event_time_ || time > last_event_time_) {
      return Status::DataLoss("scheduled event " + std::to_string(i) +
                              " is inconsistent with the window clock");
    }
    // Theorem 1: the w-th event of a tuple arriving at t is due at t + w·T.
    const int64_t offset = static_cast<int64_t>(w) * period_;
    if (time > std::numeric_limits<int64_t>::max() - offset ||
        time + offset != due) {
      return Status::DataLoss("scheduled event " + std::to_string(i) +
                              " is not due at its tuple's time + w * period");
    }
    if (i > 0 && (due < prev_due || (due == prev_due && seq <= prev_seq))) {
      return Status::DataLoss("scheduled event " + std::to_string(i) +
                              " is out of (due, seq) order");
    }
    prev_due = due;
    prev_seq = seq;
    staged[w].push_back(std::move(entry));
  }
  // Arrival order is stage W first; the stage FIFOs stay in (due, seq)
  // order only if no stage holds a tuple newer than a later stage's.
  uint64_t capacity = kMinSlots;
  while (capacity < pending) capacity *= 2;
  active_.assign(capacity, Active{});
  slot_mask_ = capacity - 1;
  uint64_t arrival = 0;
  int64_t newest = std::numeric_limits<int64_t>::min();
  for (int w = window_size_; w >= 1; --w) {
    stages_[w].head = arrival;
    for (Active& entry : staged[w]) {
      if (entry.tuple.time < newest) {
        return Status::DataLoss("scheduled stage " + std::to_string(w) +
                                " holds a tuple older than stage " +
                                std::to_string(w + 1) + "'s newest");
      }
      newest = entry.tuple.time;
      Slot(arrival++) = std::move(entry);
    }
  }
  stages_[0].head = arrival;
  for (int w = 1; w <= window_size_; ++w) RefreshStage(w);
  next_ = EarliestStage(stages_);
  return Status::OK();
}

}  // namespace sns
