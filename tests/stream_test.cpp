// Tests for the continuous tensor model (Algorithm 1) and the conventional
// periodic window, including the brute-force D(t, W) equivalence property.

#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serial.h"
#include "stream/continuous_window.h"
#include "stream/data_stream.h"
#include "stream/periodic_window.h"

namespace sns {
namespace {

// Brute-force D(t, W) from Definitions 3-4: tuple t_n is active iff
// t_n ∈ (t − WT, t], and sits at 0-based time index W−1−⌊(t−t_n)/T⌋.
SparseTensor BruteForceWindow(const std::vector<Tuple>& tuples,
                              const std::vector<int64_t>& mode_dims, int w_size,
                              int64_t period, int64_t now) {
  std::vector<int64_t> dims = mode_dims;
  dims.push_back(w_size);
  SparseTensor window(dims);
  for (const Tuple& tuple : tuples) {
    if (tuple.time > now) continue;
    const int64_t age = (now - tuple.time) / period;
    if (age >= w_size) continue;
    window.Add(tuple.index.WithAppended(w_size - 1 - static_cast<int32_t>(age)),
               tuple.value);
  }
  return window;
}

bool TensorsEqual(const SparseTensor& a, const SparseTensor& b,
                  double tol = 1e-9) {
  if (a.nnz() != b.nnz()) return false;
  bool equal = true;
  a.ForEachNonzero([&](const ModeIndex& index, double value) {
    if (std::fabs(b.Get(index) - value) > tol) equal = false;
  });
  return equal;
}

TEST(DataStreamTest, AppendValidations) {
  DataStream stream({3, 4});
  EXPECT_TRUE(stream.Append({{1, 2}, 1.0, 10}).ok());
  EXPECT_FALSE(stream.Append({{1}, 1.0, 11}).ok());       // Arity.
  EXPECT_FALSE(stream.Append({{3, 0}, 1.0, 11}).ok());    // Range.
  EXPECT_FALSE(stream.Append({{0, 0}, 1.0, 5}).ok());     // Time regression.
  EXPECT_EQ(stream.size(), 1);
  EXPECT_EQ(stream.start_time(), 10);
}

TEST(ContinuousWindowTest, ArrivalAddsToNewestSlice) {
  ContinuousTensorWindow window({4, 4}, /*window_size=*/3, /*period=*/10);
  WindowDelta delta = window.Ingest({{1, 2}, 5.0, 100});
  EXPECT_EQ(delta.kind, EventKind::kArrival);
  ASSERT_EQ(delta.cells.size(), 1u);
  EXPECT_EQ(delta.cells[0].index, (ModeIndex{1, 2, 2}));
  EXPECT_EQ(delta.cells[0].delta, 5.0);
  EXPECT_EQ(window.tensor().Get({1, 2, 2}), 5.0);
  EXPECT_EQ(window.NextScheduledTime(), 110);
}

TEST(ContinuousWindowTest, SlideMovesValueBackOneSlice) {
  ContinuousTensorWindow window({4, 4}, 3, 10);
  window.Ingest({{1, 2}, 5.0, 100});
  WindowDelta slide = window.PopScheduled();
  EXPECT_EQ(slide.kind, EventKind::kSlide);
  EXPECT_EQ(slide.w, 1);
  EXPECT_EQ(slide.time, 110);
  ASSERT_EQ(slide.cells.size(), 2u);
  EXPECT_EQ(slide.cells[0].index, (ModeIndex{1, 2, 2}));
  EXPECT_EQ(slide.cells[0].delta, -5.0);
  EXPECT_EQ(slide.cells[1].index, (ModeIndex{1, 2, 1}));
  EXPECT_EQ(slide.cells[1].delta, 5.0);
  EXPECT_EQ(window.tensor().Get({1, 2, 2}), 0.0);
  EXPECT_EQ(window.tensor().Get({1, 2, 1}), 5.0);
}

TEST(ContinuousWindowTest, TupleExpiresAfterWSlides) {
  ContinuousTensorWindow window({2, 2}, 3, 10);
  window.Ingest({{0, 1}, 2.0, 50});
  // Slides at 60, 70; expiry at 80. W+1 = 4 events total including arrival.
  WindowDelta s1 = window.PopScheduled();
  WindowDelta s2 = window.PopScheduled();
  WindowDelta s3 = window.PopScheduled();
  EXPECT_EQ(s1.kind, EventKind::kSlide);
  EXPECT_EQ(s2.kind, EventKind::kSlide);
  EXPECT_EQ(s3.kind, EventKind::kExpiry);
  EXPECT_EQ(s3.time, 80);
  ASSERT_EQ(s3.cells.size(), 1u);
  EXPECT_EQ(s3.cells[0].index, (ModeIndex{0, 1, 0}));
  EXPECT_EQ(s3.cells[0].delta, -2.0);
  EXPECT_EQ(window.tensor().nnz(), 0);
  EXPECT_FALSE(window.HasScheduled());
}

TEST(ContinuousWindowTest, ZeroValueTupleIsNoOp) {
  ContinuousTensorWindow window({2, 2}, 3, 10);
  WindowDelta delta = window.Ingest({{0, 0}, 0.0, 5});
  EXPECT_TRUE(delta.cells.empty());
  EXPECT_FALSE(window.HasScheduled());
}

TEST(ContinuousWindowTest, OverlappingTuplesAccumulate) {
  ContinuousTensorWindow window({2, 2}, 2, 10);
  window.Ingest({{0, 0}, 1.0, 10});
  window.Ingest({{0, 0}, 2.0, 12});
  EXPECT_EQ(window.tensor().Get({0, 0, 1}), 3.0);
  // First tuple slides at 20, second at 22.
  window.AdvanceTo(20);
  EXPECT_EQ(window.tensor().Get({0, 0, 1}), 2.0);
  EXPECT_EQ(window.tensor().Get({0, 0, 0}), 1.0);
  window.AdvanceTo(22);
  EXPECT_EQ(window.tensor().Get({0, 0, 1}), 0.0);
  EXPECT_EQ(window.tensor().Get({0, 0, 0}), 3.0);
}

TEST(ContinuousWindowTest, IngestCheckedValidates) {
  ContinuousTensorWindow window({2, 2}, 2, 10);
  WindowDelta delta;
  EXPECT_TRUE(window.IngestChecked({{1, 1}, 1.0, 10}, &delta).ok());
  EXPECT_FALSE(window.IngestChecked({{2, 0}, 1.0, 11}, nullptr).ok());
  EXPECT_FALSE(window.IngestChecked({{0}, 1.0, 11}, nullptr).ok());
  EXPECT_FALSE(window.IngestChecked({{0, 0}, 1.0, 5}, nullptr).ok());
  // Scheduled slide at 20 must be drained before ingesting at 25.
  EXPECT_FALSE(window.IngestChecked({{0, 0}, 1.0, 25}, nullptr).ok());
  window.AdvanceTo(25);
  EXPECT_TRUE(window.IngestChecked({{0, 0}, 1.0, 25}, nullptr).ok());
}

TEST(ContinuousWindowTest, EventCountMatchesTheorem1) {
  // Each tuple causes exactly W+1 events (1 arrival + W scheduled).
  const int w_size = 4;
  ContinuousTensorWindow window({3, 3}, w_size, 5);
  int scheduled_events = 0;
  for (int i = 0; i < 10; ++i) {
    window.AdvanceTo(i * 3,
                     [&](const WindowDelta&) { ++scheduled_events; });
    window.Ingest({{static_cast<int32_t>(i % 3), 0}, 1.0, i * 3});
  }
  window.AdvanceTo(std::numeric_limits<int64_t>::max(),
                   [&](const WindowDelta&) { ++scheduled_events; });
  EXPECT_EQ(scheduled_events, 10 * w_size);
}

// The central property: replaying any random stream through Algorithm 1
// yields exactly D(t, W) at every instant.
class ContinuousWindowPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ContinuousWindowPropertyTest, MatchesBruteForceWindow) {
  Rng rng(1000 + GetParam());
  const std::vector<int64_t> mode_dims = {4, 3};
  const int w_size = 1 + GetParam() % 5;
  const int64_t period = 3 + GetParam() % 7;

  ContinuousTensorWindow window(mode_dims, w_size, period);
  std::vector<Tuple> history;
  int64_t now = 0;

  for (int step = 0; step < 400; ++step) {
    now += rng.UniformInt(0, 4);
    if (rng.UniformDouble() < 0.8) {
      Tuple tuple{{static_cast<int32_t>(rng.UniformInt(0, 3)),
                   static_cast<int32_t>(rng.UniformInt(0, 2))},
                  static_cast<double>(rng.UniformInt(1, 5)), now};
      window.AdvanceTo(now);
      window.Ingest(tuple);
      history.push_back(tuple);
    } else {
      window.AdvanceTo(now);
    }
    SparseTensor expected =
        BruteForceWindow(history, mode_dims, w_size, period, now);
    ASSERT_TRUE(TensorsEqual(window.tensor(), expected))
        << "step " << step << " now " << now;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, ContinuousWindowPropertyTest,
                         ::testing::Range(0, 10));

// Reference model of the schedule: every pending event in one binary heap
// ordered by (due, seq), applied exactly as Algorithm 1 states it, and
// serialized in the window's snapshot format by draining a copy of the heap.
class HeapScheduleWindow {
 public:
  HeapScheduleWindow(std::vector<int64_t> mode_dims, int w_size,
                     int64_t period)
      : tensor_(WithTimeMode(std::move(mode_dims), w_size)),
        w_size_(w_size),
        period_(period) {}

  WindowDelta Ingest(const Tuple& tuple) {
    last_event_time_ = tuple.time;
    WindowDelta delta;
    delta.kind = EventKind::kArrival;
    delta.time = tuple.time;
    delta.tuple = tuple;
    if (tuple.value == 0.0) return delta;
    const ModeIndex cell = tuple.index.WithAppended(w_size_ - 1);
    tensor_.Add(cell, tuple.value);
    delta.cells.push_back({cell, tuple.value});
    heap_.push({tuple.time + period_, next_seq_++, tuple, 1});
    return delta;
  }

  int64_t NextDue() const {
    return heap_.empty() ? std::numeric_limits<int64_t>::max()
                         : heap_.top().due;
  }

  WindowDelta Pop() {
    const Event event = heap_.top();
    heap_.pop();
    last_event_time_ = event.due;
    const double v = event.tuple.value;
    WindowDelta delta;
    delta.w = event.w;
    delta.time = event.due;
    delta.tuple = event.tuple;
    const ModeIndex from = event.tuple.index.WithAppended(w_size_ - event.w);
    tensor_.Add(from, -v);
    delta.cells.push_back({from, -v});
    if (event.w < w_size_) {
      delta.kind = EventKind::kSlide;
      const ModeIndex to =
          event.tuple.index.WithAppended(w_size_ - event.w - 1);
      tensor_.Add(to, v);
      delta.cells.push_back({to, v});
      heap_.push({event.tuple.time + (event.w + 1) * period_, next_seq_++,
                  event.tuple, event.w + 1});
    } else {
      delta.kind = EventKind::kExpiry;
    }
    return delta;
  }

  std::string Serialize() const {
    serial::StringSink sink;
    serial::Writer w(sink);
    tensor_.SerializeTo(w);
    w.U64(next_seq_);
    w.I64(last_event_time_);
    auto copy = heap_;
    w.U64(copy.size());
    for (; !copy.empty(); copy.pop()) {
      const Event& e = copy.top();
      w.I64(e.due);
      w.U64(e.seq);
      w.I32(e.w);
      w.U32(static_cast<uint32_t>(e.tuple.index.size()));
      for (int m = 0; m < e.tuple.index.size(); ++m) w.I32(e.tuple.index[m]);
      w.F64(e.tuple.value);
      w.I64(e.tuple.time);
    }
    return sink.TakeData();
  }

 private:
  struct Event {
    int64_t due;
    uint64_t seq;
    Tuple tuple;
    int w;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  static std::vector<int64_t> WithTimeMode(std::vector<int64_t> dims,
                                           int w_size) {
    dims.push_back(w_size);
    return dims;
  }

  SparseTensor tensor_;
  int w_size_;
  int64_t period_;
  uint64_t next_seq_ = 0;
  int64_t last_event_time_ = std::numeric_limits<int64_t>::min();
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

std::string SerializeWindow(const ContinuousTensorWindow& window) {
  serial::StringSink sink;
  serial::Writer w(sink);
  window.SerializeTo(w);
  return sink.TakeData();
}

void ExpectSameDelta(const WindowDelta& got, const WindowDelta& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.w, want.w);
  EXPECT_EQ(got.time, want.time);
  EXPECT_TRUE(got.tuple.index == want.tuple.index);
  EXPECT_EQ(got.tuple.value, want.tuple.value);
  EXPECT_EQ(got.tuple.time, want.tuple.time);
  ASSERT_EQ(got.cells.size(), want.cells.size());
  for (size_t i = 0; i < got.cells.size(); ++i) {
    EXPECT_TRUE(got.cells[i].index == want.cells[i].index) << "cell " << i;
    EXPECT_EQ(got.cells[i].delta, want.cells[i].delta) << "cell " << i;
  }
}

// The per-stage FIFO schedule against the heap reference: the same event
// stream (kind, w, time, tuple, cells) and the same snapshot bytes after
// every step. Periods of 1–3 with bursts of equal timestamps make due ties
// across stages common (seq decides them), ~15% of the tuples are
// zero-valued (never scheduled), and one mid-stream restore swaps the live
// window for its snapshot's replica.
class ScheduleDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleDifferentialTest, MatchesHeapScheduleEventForEventAndBytewise) {
  Rng rng(2000 + GetParam());
  const std::vector<int64_t> mode_dims = {3, 2};
  const int w_size = 1 + GetParam() % 5;
  const int64_t period = 1 + GetParam() % 3;
  auto window =
      std::make_unique<ContinuousTensorWindow>(mode_dims, w_size, period);
  HeapScheduleWindow reference(mode_dims, w_size, period);
  const int restore_step = 150 + 7 * GetParam();
  int64_t now = 0;
  int64_t events = 0;

  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    now += rng.UniformInt(0, 2);
    std::vector<WindowDelta> got;
    window->AdvanceTo(now, [&](const WindowDelta& d) { got.push_back(d); });
    std::vector<WindowDelta> want;
    while (reference.NextDue() <= now) want.push_back(reference.Pop());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) ExpectSameDelta(got[i], want[i]);
    events += static_cast<int64_t>(got.size());

    for (int64_t burst = rng.UniformInt(0, 3); burst > 0; --burst) {
      const double value = rng.UniformDouble() < 0.15
                               ? 0.0
                               : static_cast<double>(rng.UniformInt(1, 5));
      const Tuple tuple{{static_cast<int32_t>(rng.UniformInt(0, 2)),
                         static_cast<int32_t>(rng.UniformInt(0, 1))},
                        value,
                        now};
      ExpectSameDelta(window->Ingest(tuple), reference.Ingest(tuple));
    }
    ASSERT_EQ(window->NextScheduledTime(), reference.NextDue());
    const std::string bytes = SerializeWindow(*window);
    ASSERT_EQ(bytes, reference.Serialize());

    if (step == restore_step) {
      auto restored =
          std::make_unique<ContinuousTensorWindow>(mode_dims, w_size, period);
      serial::StringSource source(bytes);
      serial::Reader r(source);
      ASSERT_TRUE(restored->RestoreFrom(r).ok());
      ASSERT_EQ(SerializeWindow(*restored), bytes);
      window = std::move(restored);
    }
  }
  EXPECT_GT(events, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, ScheduleDifferentialTest,
                         ::testing::Range(0, 12));

TEST(PeriodicWindowTest, UnitsCloseAtBoundaries) {
  PeriodicTensorWindow window({2, 2}, /*window_size=*/2, /*period=*/10);
  window.AddTuple({{0, 0}, 1.0, 3});
  window.AddTuple({{0, 1}, 2.0, 10});  // Still unit (0, 10].
  window.AddTuple({{1, 1}, 4.0, 11});  // Forces closing unit (0, 10].
  EXPECT_EQ(window.num_units(), 1);
  window.CloseUpTo(20);
  EXPECT_EQ(window.num_units(), 2);

  SparseTensor tensor = window.WindowTensor();
  EXPECT_EQ(tensor.Get({0, 0, 0}), 1.0);
  EXPECT_EQ(tensor.Get({0, 1, 0}), 2.0);
  EXPECT_EQ(tensor.Get({1, 1, 1}), 4.0);
}

TEST(PeriodicWindowTest, OldestUnitDropsBeyondW) {
  PeriodicTensorWindow window({2, 2}, 2, 10);
  window.AddTuple({{0, 0}, 1.0, 5});
  window.CloseUpTo(30);  // Units (0,10], (10,20], (20,30] -> first dropped.
  EXPECT_EQ(window.num_units(), 2);
  EXPECT_EQ(window.WindowTensor().nnz(), 0);
}

TEST(PeriodicWindowTest, NewestUnitExtraction) {
  PeriodicTensorWindow window({3, 3}, 3, 10);
  window.AddTuple({{2, 2}, 7.0, 15});
  window.CloseUpTo(20);
  SparseTensor unit = window.NewestUnit();
  EXPECT_EQ(unit.num_modes(), 2);
  EXPECT_EQ(unit.Get({2, 2}), 7.0);
}

TEST(PeriodicWindowTest, AggregationSumsWithinPeriod) {
  PeriodicTensorWindow window({2, 2}, 2, 10);
  window.AddTuple({{1, 0}, 1.0, 11});
  window.AddTuple({{1, 0}, 2.5, 15});
  window.AddTuple({{1, 0}, 0.5, 20});
  window.CloseUpTo(20);
  EXPECT_EQ(window.NewestUnit().Get({1, 0}), 4.0);
}

// Consistency at boundaries: the continuous window evaluated exactly at a
// period boundary must match the conventional window (same partitioning).
TEST(PeriodicWindowTest, ContinuousEqualsPeriodicAtBoundaries) {
  Rng rng(77);
  const std::vector<int64_t> mode_dims = {3, 3};
  const int w_size = 3;
  const int64_t period = 10;

  ContinuousTensorWindow continuous(mode_dims, w_size, period);
  PeriodicTensorWindow periodic(mode_dims, w_size, period);

  int64_t now = 1;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 200; ++i) {
    now += rng.UniformInt(0, 2);
    tuples.push_back({{static_cast<int32_t>(rng.UniformInt(0, 2)),
                       static_cast<int32_t>(rng.UniformInt(0, 2))},
                      1.0, now});
  }
  size_t fed = 0;
  for (int64_t boundary = period; boundary <= now + period;
       boundary += period) {
    while (fed < tuples.size() && tuples[fed].time <= boundary) {
      continuous.AdvanceTo(tuples[fed].time);
      continuous.Ingest(tuples[fed]);
      periodic.AddTuple(tuples[fed]);
      ++fed;
    }
    continuous.AdvanceTo(boundary);
    periodic.CloseUpTo(boundary);
    ASSERT_TRUE(
        TensorsEqual(continuous.tensor(), periodic.WindowTensor()))
        << "boundary " << boundary;
  }
}

}  // namespace
}  // namespace sns
