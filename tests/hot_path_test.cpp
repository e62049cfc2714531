// Hot-path guarantees of the per-event update stack:
//   - a counting global allocator asserting that steady-state event
//     processing performs ZERO heap allocations for every updater variant
//     (the workspace/Gram-cache refactor's core contract),
//   - differential tests pinning the workspace/caching path to a naive
//     reference reimplementation of the pre-refactor algorithm — bitwise
//     identical for the deterministic variants on 3-mode tensors (where the
//     prefix/suffix product order coincides with the sequential one), and
//     tight-tolerance for the sampled RND variants (whose prev-Gram
//     reconstruction U = Q + (p−a)'a is algebraically exact but rounds
//     differently than the deep-copy-and-maintain path),
//   - GramProductCache consistency against scratch recomputation under
//     arbitrary invalidation sequences,
//   - snapshot deduplication + O(1) PrevRow behavior,
//   - MakeUpdater failing loudly on an unhandled SnsVariant.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/random.h"
#include "core/als.h"
#include "core/continuous_cpd.h"
#include "core/cpd_state.h"
#include "core/gram_product_cache.h"
#include "core/gram_solve.h"
#include "core/row_updater_base.h"
#include "core/slice_sampler.h"
#include "core/sns_mat.h"
#include "core/sns_rnd.h"
#include "core/sns_rnd_plus.h"
#include "core/sns_vec.h"
#include "core/sns_vec_plus.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "stream/continuous_window.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/scoped_timer.h"
#include "tensor/mttkrp.h"

// ---------------------------------------------------------------------------
// Counting global allocator. Every operator new in this binary bumps the
// counter; tests snapshot it around updater calls. Deallocation is not
// counted (free is allocation-free by definition here).

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded > 0 ? rounded : alignment)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sns {
namespace {

// The naive reference below is deliberately plain scalar code, so the
// bitwise differentials only hold when the production path runs the
// portable kernels too: pin the whole binary to the generic tier before
// any test constructs an updater. (The allocation-count and cache
// consistency guarantees are tier-independent.)
class ForceGenericTierEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    setenv("SNS_FORCE_GENERIC_KERNELS", "1", /*overwrite=*/1);
    internal::RefreshKernelTierForTest();
  }
};
const auto* const kForceGenericTier =
    ::testing::AddGlobalTestEnvironment(new ForceGenericTierEnvironment);

// ---------------------------------------------------------------------------
// Shared event helpers (mirroring core_updaters_test).

SparseTensor DenseWindowFromModel(const KruskalModel& model) {
  std::vector<int64_t> dims;
  for (int m = 0; m < model.num_modes(); ++m) {
    dims.push_back(model.factor(m).rows());
  }
  SparseTensor x(dims);
  ModeIndex index;
  for (size_t m = 0; m < dims.size(); ++m) index.PushBack(0);
  while (true) {
    x.Set(index, model.Evaluate(index));
    int m = static_cast<int>(dims.size()) - 1;
    while (m >= 0) {
      if (++index[m] < dims[static_cast<size_t>(m)]) break;
      index[m] = 0;
      --m;
    }
    if (m < 0) break;
  }
  return x;
}

WindowDelta MakeArrival(SparseTensor& window, int32_t i0, int32_t i1,
                        double v, int w_size) {
  WindowDelta delta;
  delta.kind = EventKind::kArrival;
  delta.w = 0;
  delta.tuple = Tuple{{i0, i1}, v, 0};
  const ModeIndex cell = ModeIndex{i0, i1}.WithAppended(w_size - 1);
  window.Add(cell, v);
  delta.cells.push_back({cell, v});
  return delta;
}

WindowDelta MakeSlide(SparseTensor& window, int32_t i0, int32_t i1, double v,
                      int w, int w_size) {
  WindowDelta delta;
  delta.kind = EventKind::kSlide;
  delta.w = w;
  delta.tuple = Tuple{{i0, i1}, v, 0};
  const ModeIndex from = ModeIndex{i0, i1}.WithAppended(w_size - w);
  const ModeIndex to = ModeIndex{i0, i1}.WithAppended(w_size - w - 1);
  window.Add(from, -v);
  window.Add(to, v);
  delta.cells.push_back({from, -v});
  delta.cells.push_back({to, v});
  return delta;
}

WindowDelta RandomEvent(SparseTensor& window, Rng& rng, int w_size,
                        int64_t dim0, int64_t dim1) {
  const auto i0 = static_cast<int32_t>(rng.UniformInt(0, dim0 - 1));
  const auto i1 = static_cast<int32_t>(rng.UniformInt(0, dim1 - 1));
  const double v = rng.UniformDouble(0.5, 1.5);
  if (rng.NextUint64(3) == 0 && w_size > 1) {
    const int w = 1 + static_cast<int>(rng.NextUint64(
                          static_cast<uint64_t>(w_size - 1)));
    return MakeSlide(window, i0, i1, v, w, w_size);
  }
  return MakeArrival(window, i0, i1, v, w_size);
}

// ---------------------------------------------------------------------------
// Zero-allocation guarantee.

// Runs `updater` over `total` random events on a dense-ish window and
// returns the number of heap allocations performed by OnEvent calls after
// the first `warmup` events (which are allowed to size workspaces). With
// `final_state`, the state after the last event is copied out.
std::uint64_t SteadyStateAllocations(EventUpdater& updater, int warmup,
                                     int measured, uint64_t seed,
                                     bool duplicate_component = false,
                                     CpdState* final_state = nullptr) {
  Rng rng(seed);
  const int w_size = 4;
  const std::vector<int64_t> dims = {6, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 4, rng);
  if (duplicate_component) {
    // Component 1 repeats component 0 in every factor: every Gram, and
    // every Hadamard product of Grams, is singular.
    for (int m = 0; m < model.num_modes(); ++m) {
      Matrix& factor = model.factor(m);
      for (int64_t i = 0; i < factor.rows(); ++i) factor(i, 1) = factor(i, 0);
    }
  }
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  std::uint64_t counted = 0;
  for (int step = 0; step < warmup + measured; ++step) {
    WindowDelta delta = RandomEvent(window, rng, w_size, dims[0], dims[1]);
    const std::uint64_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    updater.OnEvent(window, delta, state);
    const std::uint64_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    if (step >= warmup) counted += after - before;
  }
  if (final_state != nullptr) *final_state = state;
  return counted;
}

// Numerical rank of H = ∗_{n≠m} Q(n) as the solver sees it: the trace of
// the projection H H†.
double SolverRankOfModeGram(const CpdState& state, int m) {
  const Matrix h = HadamardOfGramsExcept(state.grams, m);
  const Matrix projection =
      Multiply(h, SolveRowsAgainstGram(h, Matrix::Identity(h.rows())));
  double trace = 0.0;
  for (int64_t i = 0; i < h.rows(); ++i) trace += projection(i, i);
  return trace;
}

// SNS-VEC and SNS-RND on a duplicated component: their row rules solve
// against singular Grams on every event, where pivots drop and H† comes
// from the solver's preallocated scratch. The Grams must still be singular
// after the run (rank 3 of 4 in every mode), or the stream would not have
// exercised that path.
void ExpectRankDeficientStreamAllocatesNothing(EventUpdater& updater,
                                               uint64_t seed) {
  CpdState final_state;
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, seed,
                                   /*duplicate_component=*/true,
                                   &final_state),
            0u);
  for (int m = 0; m < final_state.num_modes(); ++m) {
    EXPECT_NEAR(SolverRankOfModeGram(final_state, m), 3.0, 1e-6)
        << "mode " << m;
  }
}

// Canary: the counting allocator must actually be intercepting operator
// new, or every zero-allocation assertion below would pass vacuously.
TEST(ZeroAllocationTest, CountingAllocatorIntercepts) {
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  std::vector<double>* v = new std::vector<double>(64);
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);
  delete v;
  EXPECT_GE(after - before, 2u);  // The vector object + its buffer.
}

TEST(ZeroAllocationTest, SnsVecSteadyStateEventsAllocateNothing) {
  SnsVecUpdater updater;
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c1), 0u);
}

TEST(ZeroAllocationTest, SnsVecPlusSteadyStateEventsAllocateNothing) {
  SnsVecPlusUpdater updater(/*clip_bound=*/50.0);
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c2), 0u);
}

TEST(ZeroAllocationTest, SnsRndSteadyStateEventsAllocateNothing) {
  // θ = 2 forces the sampled path (slice degrees exceed 2 on the dense
  // window), which exercises the prev-Gram reconstruction and the θ-sample
  // buffer.
  SnsRndUpdater updater(/*sample_threshold=*/2, /*seed=*/7);
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c3), 0u);
}

TEST(ZeroAllocationTest, SnsRndPlusSteadyStateEventsAllocateNothing) {
  SnsRndPlusUpdater updater(/*sample_threshold=*/2, /*clip_bound=*/50.0,
                            /*seed=*/7);
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c4), 0u);
}

TEST(ZeroAllocationTest, SnsVecRankDeficientEventsAllocateNothing) {
  SnsVecUpdater updater;
  ExpectRankDeficientStreamAllocatesNothing(updater, 0xa110c6);
}

TEST(ZeroAllocationTest, SnsRndRankDeficientEventsAllocateNothing) {
  SnsRndUpdater updater(/*sample_threshold=*/2, /*seed=*/7);
  ExpectRankDeficientStreamAllocatesNothing(updater, 0xa110c7);
}

TEST(ZeroAllocationTest, SnsMatSteadyStateEventsAllocateNothing) {
  SnsMatUpdater updater;
  EXPECT_EQ(SteadyStateAllocations(updater, 5, 20, 0xa110c5), 0u);
}

// Telemetry hot-path contract: with metrics enabled, the worker-shard
// instrumentation (scoped timer, latency histograms, counters, queue-depth
// gauge) adds relaxed atomics to the event loop but never a heap
// allocation — histogram storage is preallocated inline in the domain.
TEST(ZeroAllocationTest, MetricsRecordingSteadyStateAllocatesNothing) {
  const auto metrics = std::make_unique<telemetry::ShardMetrics>();
  SnsVecPlusUpdater updater(/*clip_bound=*/50.0);
  Rng rng(0xa110c6);
  const int w_size = 4;
  const std::vector<int64_t> dims = {6, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 4, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  std::uint64_t counted = 0;
  for (int step = 0; step < 100; ++step) {
    WindowDelta delta = RandomEvent(window, rng, w_size, dims[0], dims[1]);
    const std::uint64_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    {
      // The exact per-task instrumentation the worker shard performs.
      telemetry::ScopedTimer timer(&metrics->apply_ns);
      metrics->mailbox_pushes.Add(1);
      metrics->queue_depth.Add(1);
      updater.OnEvent(window, delta, state);
      metrics->queue_depth.Add(-1);
      metrics->tasks_executed.Add(1);
      metrics->ingest_latency_ns.Record(timer.ElapsedNanos());
    }
    const std::uint64_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    if (step >= 20) counted += after - before;
  }
  EXPECT_EQ(counted, 0u);
  EXPECT_EQ(metrics->tasks_executed.Get(), 100u);
  EXPECT_EQ(metrics->apply_ns.Snapshot().count, 100u);
  EXPECT_EQ(metrics->queue_depth.Get(), 0);
}

// Window events carry their (at most two) cells inline, so the continuous
// window itself is allocation-free once its storage has grown: a small,
// saturated grid with one tuple per time unit keeps W·T tuples active,
// which bounds the ring of active tuples, the entry pool and every slice
// bucket.
TEST(ZeroAllocationTest, WindowAdvanceAndIngestSteadyStateAllocateNothing) {
  const int w_size = 4;
  const int64_t period = 4;
  ContinuousTensorWindow window({3, 2}, w_size, period);
  Rng rng(0xa110c7);
  int64_t events = 0;
  double net_delta = 0.0;
  std::uint64_t counted = 0;
  const int64_t steps = 2000;
  for (int64_t t = 0; t < steps; ++t) {
    Tuple tuple;
    tuple.index = ModeIndex{static_cast<int32_t>(rng.UniformInt(0, 2)),
                            static_cast<int32_t>(rng.UniformInt(0, 1))};
    tuple.value = 1.0;
    tuple.time = t;
    const std::uint64_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    window.AdvanceTo(t, [&](const WindowDelta& delta) {
      for (const DeltaCell& cell : delta.cells) net_delta += cell.delta;
      ++events;
    });
    const WindowDelta arrival = window.Ingest(tuple);
    net_delta += arrival.cells[0].delta;
    const std::uint64_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    if (t >= 200) counted += after - before;
  }
  EXPECT_EQ(counted, 0u);
  EXPECT_EQ(window.ActiveTupleCount(), w_size * period);
  // A tuple's W scheduled events fall due one period apart after its
  // arrival; those due by the last AdvanceTo were applied.
  int64_t expected_events = 0;
  for (int k = 1; k <= w_size; ++k) expected_events += steps - k * period;
  EXPECT_EQ(events, expected_events);
  EXPECT_EQ(net_delta, static_cast<double>(w_size * period));
}

// ---------------------------------------------------------------------------
// Differential tests against a naive reference reimplementation of the
// pre-refactor update algorithm: per-row Hadamard-of-Grams recomputed from
// scratch, prev Grams deep-copied at event start and maintained by
// ApplyPrevGramRowUpdate, the pre-event model evaluated from a full factor
// copy.

enum class RefKind { kVec, kVecPlus, kRnd, kRndPlus };

class NaiveReference {
 public:
  NaiveReference(RefKind kind, int64_t theta, double clip_bound, uint64_t seed)
      : kind_(kind), theta_(theta), clip_min_(-clip_bound),
        clip_max_(clip_bound), rng_(seed) {}

  void OnEvent(const SparseTensor& window, const WindowDelta& delta,
               CpdState& state) {
    if (delta.cells.empty()) return;
    const int time_mode = state.num_modes() - 1;
    const int w_size =
        static_cast<int>(state.model.factor(time_mode).rows());
    const int w = delta.w;

    const bool sampling = kind_ == RefKind::kRnd || kind_ == RefKind::kRndPlus;
    std::vector<Matrix> prev_grams;
    std::vector<Matrix> prev_factors;
    if (sampling) {
      prev_grams = state.grams;                 // Alg. 3 line 1 (deep copy).
      prev_factors = state.model.factors();     // Full pre-event snapshot.
    }

    auto update_row = [&](int mode, int64_t row) {
      const int64_t rank = state.rank();
      const int64_t padded = PaddedRank(rank);
      Matrix& factor = state.model.factor(mode);
      // Padded-buffer contract of the kernels: rank-length scratch spans
      // the padded stride with zero padding lanes.
      std::vector<double> old_row(factor.Row(row), factor.Row(row) + padded);
      const Matrix h = HadamardOfGramsExcept(state.grams, mode);
      std::vector<double> rhs(static_cast<size_t>(padded), 0.0);
      std::vector<double> had(static_cast<size_t>(padded), 0.0);

      auto accumulate_delta_cells = [&]() {
        for (const DeltaCell& cell : delta.cells) {
          if (cell.index[mode] != row) continue;
          HadamardRowProduct(state.model.factors(), cell.index, mode,
                             had.data());
          for (int64_t r = 0; r < rank; ++r) {
            rhs[static_cast<size_t>(r)] +=
                cell.delta * had[static_cast<size_t>(r)];
          }
        }
      };

      switch (kind_) {
        case RefKind::kVec:
          if (mode == time_mode) {
            accumulate_delta_cells();
            std::vector<double> solution(static_cast<size_t>(rank));
            SolveRowAgainstGram(h, rhs.data(), solution.data());
            double* target = factor.Row(row);
            for (int64_t r = 0; r < rank; ++r) {
              target[r] += solution[static_cast<size_t>(r)];
            }
          } else {
            MttkrpRow(window, state.model.factors(), mode, row, rhs.data());
            std::vector<double> solution(static_cast<size_t>(rank));
            SolveRowAgainstGram(h, rhs.data(), solution.data());
            double* target = factor.Row(row);
            for (int64_t r = 0; r < rank; ++r) {
              target[r] = solution[static_cast<size_t>(r)];
            }
          }
          break;
        case RefKind::kVecPlus:
          if (mode == time_mode) {
            RowTimesMatrix(old_row.data(), h, rhs.data());
            accumulate_delta_cells();
          } else {
            MttkrpRow(window, state.model.factors(), mode, row, rhs.data());
          }
          CoordinateDescentRow(factor.Row(row), rank, h, rhs.data(),
                               clip_min_, clip_max_);
          break;
        case RefKind::kRnd:
        case RefKind::kRndPlus: {
          const int64_t degree = window.Degree(mode, row);
          if (degree <= theta_) {
            MttkrpRow(window, state.model.factors(), mode, row, rhs.data());
          } else {
            const Matrix h_prev = HadamardOfGramsExcept(prev_grams, mode);
            RowTimesMatrix(old_row.data(), h_prev, rhs.data());
            for (const SampledCell& cell : SampleSliceCells(
                     window, mode, row, theta_, delta, rng_)) {
              double prev_value = 0.0;
              for (int64_t r = 0; r < rank; ++r) {
                double prod = 1.0;
                for (int m = 0; m < state.num_modes(); ++m) {
                  prod *= prev_factors[static_cast<size_t>(m)].Row(
                      cell.index[m])[r];
                }
                prev_value += prod;
              }
              const double residual = cell.value - prev_value;
              HadamardRowProduct(state.model.factors(), cell.index, mode,
                                 had.data());
              for (int64_t r = 0; r < rank; ++r) {
                rhs[static_cast<size_t>(r)] +=
                    residual * had[static_cast<size_t>(r)];
              }
            }
            accumulate_delta_cells();
          }
          if (kind_ == RefKind::kRnd) {
            std::vector<double> solution(static_cast<size_t>(rank));
            SolveRowAgainstGram(h, rhs.data(), solution.data());
            double* target = factor.Row(row);
            for (int64_t r = 0; r < rank; ++r) {
              target[r] = solution[static_cast<size_t>(r)];
            }
          } else {
            CoordinateDescentRow(factor.Row(row), rank, h, rhs.data(),
                                 clip_min_, clip_max_);
          }
          break;
        }
      }

      ApplyGramRowUpdate(state.grams[static_cast<size_t>(mode)],
                         old_row.data(), factor.Row(row));
      if (sampling) {
        ApplyPrevGramRowUpdate(prev_grams[static_cast<size_t>(mode)],
                               old_row.data(), factor.Row(row));
      }
    };

    if (w > 0) update_row(time_mode, w_size - w);
    if (w < w_size) update_row(time_mode, w_size - w - 1);
    for (int m = 0; m < time_mode; ++m) update_row(m, delta.tuple.index[m]);
  }

 private:
  RefKind kind_;
  int64_t theta_;
  double clip_min_;
  double clip_max_;
  Rng rng_;
};

void ExpectFactorsBitwiseEqual(const CpdState& a, const CpdState& b,
                               int step) {
  for (int m = 0; m < a.num_modes(); ++m) {
    const Matrix& fa = a.model.factor(m);
    const Matrix& fb = b.model.factor(m);
    for (int64_t i = 0; i < fa.rows(); ++i) {
      for (int64_t r = 0; r < fa.cols(); ++r) {
        ASSERT_EQ(fa(i, r), fb(i, r))
            << "step " << step << " mode " << m << " row " << i;
      }
    }
  }
}

double MaxFactorDiff(const CpdState& a, const CpdState& b) {
  double diff = 0.0;
  for (int m = 0; m < a.num_modes(); ++m) {
    diff = std::max(diff, MaxAbsDiff(a.model.factor(m), b.model.factor(m)));
  }
  return diff;
}

// Runs the real updater and the naive reference over the same 3-mode event
// stream (separate but identically mutated windows).
template <typename Updater>
void RunDifferential(Updater& updater, NaiveReference& reference,
                     bool expect_bitwise, double tolerance, uint64_t seed) {
  Rng rng(seed);
  const int w_size = 4;
  const std::vector<int64_t> dims = {5, 6, w_size};
  KruskalModel model = KruskalModel::Random(dims, 3, rng);
  SparseTensor window_real = DenseWindowFromModel(model);
  SparseTensor window_ref = DenseWindowFromModel(model);
  CpdState state_real(model);
  CpdState state_ref(model);

  Rng events(seed + 1);
  for (int step = 0; step < 60; ++step) {
    Rng events_copy = events;  // Same event on both windows.
    WindowDelta delta_real =
        RandomEvent(window_real, events, w_size, dims[0], dims[1]);
    WindowDelta delta_ref =
        RandomEvent(window_ref, events_copy, w_size, dims[0], dims[1]);
    updater.OnEvent(window_real, delta_real, state_real);
    reference.OnEvent(window_ref, delta_ref, state_ref);
    if (expect_bitwise) {
      ExpectFactorsBitwiseEqual(state_real, state_ref, step);
    } else {
      ASSERT_LT(MaxFactorDiff(state_real, state_ref), tolerance)
          << "step " << step;
    }
  }
}

// On 3-mode tensors the Gram-product cache's prefix/suffix order coincides
// with the sequential Hadamard order, so the deterministic variants must be
// BITWISE identical to the naive reference.
TEST(DifferentialTest, SnsVecBitwiseIdenticalToNaiveReference) {
  SnsVecUpdater updater;
  NaiveReference reference(RefKind::kVec, 0, 1.0, 0);
  RunDifferential(updater, reference, /*expect_bitwise=*/true, 0.0, 0xd1f1);
}

TEST(DifferentialTest, SnsVecPlusBitwiseIdenticalToNaiveReference) {
  SnsVecPlusUpdater updater(/*clip_bound=*/50.0);
  NaiveReference reference(RefKind::kVecPlus, 0, 50.0, 0);
  RunDifferential(updater, reference, /*expect_bitwise=*/true, 0.0, 0xd1f2);
}

// The sampled variants reconstruct U(m) = Q(m) + (p−a)'a instead of deep
// copying and maintaining it; the algebra is exact but the floating-point
// rounding differs from the reference path, so the comparison is a tight
// tolerance instead of bitwise. Identical seeds keep the θ-sampling in
// lockstep.
TEST(DifferentialTest, SnsRndMatchesNaiveReference) {
  SnsRndUpdater updater(/*sample_threshold=*/3, /*seed=*/99);
  NaiveReference reference(RefKind::kRnd, 3, 1.0, 99);
  RunDifferential(updater, reference, /*expect_bitwise=*/false, 1e-7, 0xd1f3);
}

TEST(DifferentialTest, SnsRndPlusMatchesNaiveReference) {
  SnsRndPlusUpdater updater(/*sample_threshold=*/3, /*clip_bound=*/50.0,
                            /*seed=*/99);
  NaiveReference reference(RefKind::kRndPlus, 3, 50.0, 99);
  RunDifferential(updater, reference, /*expect_bitwise=*/false, 1e-7, 0xd1f4);
}

// SNS-MAT: the workspace ALS sweep (in-place solve, MttkrpInto,
// MultiplyTransposeAInto, cached Gram products) against the textbook sweep.
TEST(DifferentialTest, SnsMatBitwiseIdenticalToNaiveSweep) {
  Rng rng(0xd1f5);
  const int w_size = 4;
  const std::vector<int64_t> dims = {5, 6, w_size};
  KruskalModel model = KruskalModel::Random(dims, 3, rng);
  SparseTensor window_real = DenseWindowFromModel(model);
  SparseTensor window_ref = DenseWindowFromModel(model);
  CpdState state_real(model);
  CpdState state_ref(model);
  SnsMatUpdater updater;

  Rng events(0xd1f6);
  for (int step = 0; step < 10; ++step) {
    Rng events_copy = events;
    WindowDelta delta_real =
        RandomEvent(window_real, events, w_size, dims[0], dims[1]);
    // The same event on the reference window; its delta is not needed.
    RandomEvent(window_ref, events_copy, w_size, dims[0], dims[1]);
    updater.OnEvent(window_real, delta_real, state_real);

    // Naive sweep on the reference state.
    for (int m = 0; m < state_ref.num_modes(); ++m) {
      Matrix mttkrp = Mttkrp(window_ref, state_ref.model.factors(), m);
      Matrix h = HadamardOfGramsExcept(state_ref.grams, m);
      Matrix updated = SolveRowsAgainstGram(h, mttkrp);
      // Column norms through the sweep's own table kernel: its fma3 with
      // v = 1 rounds each square before the add, where a plain
      // `norm_sq += u * u` may be contracted into one fused multiply-add
      // when the build targets FMA.
      AlignedVector norm_sq(updated.stride());
      const RankKernelTable& kr =
          GetRankKernelTable(PaddedRank(state_ref.rank()));
      for (int64_t i = 0; i < updated.rows(); ++i) {
        kr.fma3(1.0, updated.Row(i), updated.Row(i), norm_sq.data(),
                updated.stride());
      }
      for (int64_t r = 0; r < state_ref.rank(); ++r) {
        const double norm = std::sqrt(norm_sq[r]);
        state_ref.model.lambda()[static_cast<size_t>(r)] = norm;
        if (norm > 0.0) {
          const double inv = 1.0 / norm;
          for (int64_t i = 0; i < updated.rows(); ++i) updated(i, r) *= inv;
        }
      }
      state_ref.model.factor(m) = std::move(updated);
      state_ref.grams[static_cast<size_t>(m)] = MultiplyTransposeA(
          state_ref.model.factor(m), state_ref.model.factor(m));
    }
    ExpectFactorsBitwiseEqual(state_real, state_ref, step);
  }
}

// ---------------------------------------------------------------------------
// GramProductCache.

TEST(GramProductCacheTest, MatchesScratchRecomputation3ModeBitwise) {
  Rng rng(0xcac4e);
  const int64_t rank = 4;
  std::vector<Matrix> grams;
  for (int m = 0; m < 3; ++m) {
    grams.push_back(Matrix::RandomUniform(rank, rank, rng));
  }
  GramProductCache cache;
  cache.BeginEvent(grams);
  Matrix out(rank, rank);

  const int sequence[] = {2, 2, 0, 1, 2, 0};
  for (int mode : sequence) {
    cache.ProductExcept(mode, out);
    const Matrix expected = HadamardOfGramsExcept(grams, mode);
    for (int64_t i = 0; i < rank; ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        ASSERT_EQ(out(i, j), expected(i, j)) << "mode " << mode;
      }
    }
    // Mutate the mode just read and invalidate it, as a row commit would.
    grams[static_cast<size_t>(mode)] =
        Matrix::RandomUniform(rank, rank, rng);
    cache.NotifyModeChanged(mode);
  }
}

TEST(GramProductCacheTest, MatchesScratchRecomputation5Mode) {
  Rng rng(0xcac5e);
  const int64_t rank = 3;
  std::vector<Matrix> grams;
  for (int m = 0; m < 5; ++m) {
    grams.push_back(Matrix::RandomUniform(rank, rank, rng));
  }
  GramProductCache cache;
  cache.BeginEvent(grams);
  Matrix out(rank, rank);

  for (int step = 0; step < 40; ++step) {
    const int mode = static_cast<int>(rng.NextUint64(5));
    cache.ProductExcept(mode, out);
    const Matrix expected = HadamardOfGramsExcept(grams, mode);
    // 5-mode prefix/suffix grouping differs from the sequential product by
    // rounding only.
    ASSERT_LT(MaxAbsDiff(out, expected), 1e-12) << "step " << step;
    if (rng.NextUint64(2) == 0) {
      const int changed = static_cast<int>(rng.NextUint64(5));
      grams[static_cast<size_t>(changed)] =
          Matrix::RandomUniform(rank, rank, rng);
      cache.NotifyModeChanged(changed);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot deduplication + O(1) PrevRow.

class SnapshotProbeUpdater : public RowUpdaterBase {
 public:
  std::string_view name() const override { return "probe"; }

  int snapshots_seen = -1;

 protected:
  bool NeedsPrevGrams() const override { return true; }

  void UpdateRow(int mode, int64_t row, const SparseTensor&,
                 const WindowDelta&, CpdState& state,
                 UpdateWorkspace& ws) override {
    snapshots_seen = snapshot_count();
    // Overwrite the live row and check PrevRow still serves the event-start
    // value from its snapshot.
    Matrix& factor = state.model.factor(mode);
    const double before = factor(row, 0);
    std::copy(factor.Row(row), factor.Row(row) + state.rank(),
              ws.old_row.begin());
    factor(row, 0) = before + 7.5;
    EXPECT_EQ(PrevRow(mode, row, state)[0], before)
        << "mode " << mode << " row " << row;
    CommitRow(mode, row, ws.old_row.data(), state);
  }
};

TEST(SnapshotTest, DuplicateTimeRowCellsSnapshotOnce) {
  Rng rng(0x54a9);
  const std::vector<int64_t> dims = {4, 3, 5};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  SnapshotProbeUpdater probe;

  // Degenerate delta: two cells living in the SAME time slice. The old code
  // snapshotted the time row once per cell; the deduped path must count it
  // once — 1 time snapshot + 2 non-time snapshots.
  WindowDelta twin;
  twin.kind = EventKind::kArrival;
  twin.w = 0;
  twin.tuple = Tuple{{1, 2}, 2.0, 0};
  const ModeIndex cell = ModeIndex{1, 2}.WithAppended(4);
  window.Add(cell, 2.0);
  twin.cells.push_back({cell, 1.5});
  twin.cells.push_back({cell, 0.5});
  probe.OnEvent(window, twin, state);
  EXPECT_EQ(probe.snapshots_seen, 3);

  // A slide touches two distinct time rows: 2 + 2 snapshots.
  WindowDelta slide = MakeSlide(window, 2, 1, 1.0, 2, 5);
  probe.OnEvent(window, slide, state);
  EXPECT_EQ(probe.snapshots_seen, 4);
}

// ---------------------------------------------------------------------------
// A window event changes at most two cells (Definition 6); a third is a
// logic error that must fail loudly, not overflow the inline storage.

TEST(DeltaCellsDeathTest, ThirdCellFailsLoudly) {
  EXPECT_DEATH(
      {
        WindowDelta delta;
        delta.cells.push_back({ModeIndex{0, 0}, 1.0});
        delta.cells.push_back({ModeIndex{0, 1}, -1.0});
        delta.cells.push_back({ModeIndex{0, 2}, 1.0});
      },
      "size_ < kCapacity");
}

// ---------------------------------------------------------------------------
// MakeUpdater fails loudly on an unhandled variant.

TEST(MakeUpdaterDeathTest, UnhandledVariantFailsLoudly) {
  ContinuousCpdOptions options;
  options.variant = static_cast<SnsVariant>(99);
  EXPECT_DEATH(
      { auto engine = ContinuousCpd::Create({4, 4}, options); },
      "unhandled SnsVariant");
}

}  // namespace
}  // namespace sns
