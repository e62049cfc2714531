// Storage-engine tests for the flat entry pool behind SparseTensor:
//   - randomized differential tests driving thousands of Add / Set /
//     erase-to-zero / slice-iterate / degree operations against a naive
//     std::map reference model at 3, 4 and 8 modes, with restore round
//     trips along the way,
//   - a pin of the Taxi warm window's serialized layout bytes,
//   - a window-churn test asserting no near-zero residue or bucket leak
//     after full slide-expiry cycles,
//   - a regression guard pinning the hash-lookup count of slice iteration
//     and MttkrpRow at zero (the pre-refactor code re-hashed per entry).

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "common/serial.h"
#include "data/datasets.h"
#include "data/synthetic.h"
#include "stream/continuous_window.h"
#include "tensor/kruskal.h"
#include "tensor/mttkrp.h"
#include "tensor/sparse_tensor.h"

namespace sns {
namespace {

ModeIndex RandomIndex(const std::vector<int64_t>& dims, Rng& rng) {
  ModeIndex index;
  for (int64_t dim : dims) {
    index.PushBack(static_cast<int32_t>(rng.UniformInt(0, dim - 1)));
  }
  return index;
}

using ReferenceModel = std::map<std::string, std::pair<ModeIndex, double>>;

// Deep equality between the tensor and the reference: nnz, point lookups,
// per-(mode, index) degrees, slice contents (with values), pool iteration,
// and the Frobenius norm.
void ExpectMatchesReference(const SparseTensor& x,
                            const ReferenceModel& reference,
                            const std::vector<int64_t>& dims) {
  ASSERT_EQ(x.nnz(), static_cast<int64_t>(reference.size()));
  double norm_sq = 0.0;
  for (const auto& [key, entry] : reference) {
    EXPECT_DOUBLE_EQ(x.Get(entry.first), entry.second) << key;
    norm_sq += entry.second * entry.second;
  }
  EXPECT_NEAR(x.FrobeniusNormSquared(), norm_sq, 1e-9 * (1.0 + norm_sq));

  int64_t visited = 0;
  x.ForEachNonzero([&](const ModeIndex& index, double value) {
    ++visited;
    auto it = reference.find(index.ToString());
    ASSERT_NE(it, reference.end()) << index.ToString();
    EXPECT_DOUBLE_EQ(value, it->second.second) << index.ToString();
  });
  EXPECT_EQ(visited, x.nnz());

  for (int m = 0; m < static_cast<int>(dims.size()); ++m) {
    for (int64_t i = 0; i < dims[static_cast<size_t>(m)]; ++i) {
      int64_t expected_degree = 0;
      for (const auto& [key, entry] : reference) {
        if (entry.first[m] == i) ++expected_degree;
      }
      ASSERT_EQ(x.Degree(m, i), expected_degree)
          << "mode " << m << " index " << i;
      int64_t seen = 0;
      for (const auto slice_entry : x.Slice(m, i)) {
        ++seen;
        ASSERT_EQ(slice_entry.coords[m], i);
        auto it = reference.find(slice_entry.coords.ToString());
        ASSERT_NE(it, reference.end()) << slice_entry.coords.ToString();
        EXPECT_DOUBLE_EQ(slice_entry.value, it->second.second);
      }
      EXPECT_EQ(seen, expected_degree);
    }
  }
}

// Serializes `x` with its storage layout (pool order, bucket positions).
std::string LayoutBytes(const SparseTensor& x) {
  serial::StringSink sink;
  serial::Writer w(sink);
  x.SerializeTo(w);
  return sink.TakeData();
}

// 10k randomized storage operations (inserts, in-place updates, exact
// erase-to-zero, Set-to-zero, occasional Clear) diffed against the naive
// reference model. Exercises pool swap-erase, hash backshift deletion, and
// table growth: the live cells reach into the hundreds, so the coordinate
// index (kept at most a quarter full) doubles several times from its
// 16-slot start. Every 2,500 steps the tensor is serialized, restored into
// a fresh tensor, checked, and the run continues on the restored copy.
void RunMapDifferential(const std::vector<int64_t>& dims, uint64_t seed) {
  Rng rng(seed);
  SparseTensor x(dims);
  ReferenceModel reference;
  int64_t peak_nnz = 0;

  auto apply_reference = [&](const ModeIndex& index, double value) {
    if (std::fabs(value) < SparseTensor::kZeroEpsilon) {
      reference.erase(index.ToString());
    } else {
      reference[index.ToString()] = {index, value};
    }
  };

  for (int step = 0; step < 10000; ++step) {
    const ModeIndex index = RandomIndex(dims, rng);
    const uint64_t op = rng.NextUint64(10);
    if (op < 5) {
      // Add a random (possibly negative, possibly zero) delta.
      const double delta = static_cast<double>(rng.UniformInt(-2, 2));
      const double result = x.Add(index, delta);
      auto it = reference.find(index.ToString());
      const double before = it == reference.end() ? 0.0 : it->second.second;
      apply_reference(index, before + delta);
      EXPECT_DOUBLE_EQ(result, x.Get(index));
    } else if (op < 7) {
      // Exact erase-to-zero of an existing cell (the window's
      // add-then-subtract pattern).
      auto it = reference.find(index.ToString());
      const double before = it == reference.end() ? 0.0 : it->second.second;
      EXPECT_DOUBLE_EQ(x.Add(index, -before), 0.0);
      apply_reference(index, 0.0);
      EXPECT_EQ(x.Get(index), 0.0);
    } else if (op < 9) {
      const double value =
          op == 7 ? 0.0 : rng.UniformDouble(-3.0, 3.0);
      x.Set(index, value);
      apply_reference(index, value);
    } else if (rng.NextUint64(200) == 0) {
      x.Clear();
      reference.clear();
    }

    // Light invariants every step; deep diff periodically.
    ASSERT_EQ(x.nnz(), static_cast<int64_t>(reference.size()));
    peak_nnz = std::max(peak_nnz, x.nnz());
    if (step % 500 == 499) ExpectMatchesReference(x, reference, dims);
    if (step % 2500 == 2499) {
      const std::string bytes = LayoutBytes(x);
      SparseTensor restored(dims);
      serial::StringSource source(bytes);
      serial::Reader r(source);
      ASSERT_TRUE(restored.RestoreFrom(r).ok()) << "step " << step;
      ExpectMatchesReference(restored, reference, dims);
      ASSERT_EQ(LayoutBytes(restored), bytes) << "step " << step;
      x = std::move(restored);
    }
  }
  ExpectMatchesReference(x, reference, dims);
  // 16 slots hold 4 cells; this many live cells took ≥ 4 doublings.
  EXPECT_GT(peak_nnz, 64);
}

TEST(EntryPoolStorageTest, DifferentialAgainstMapReference) {
  RunMapDifferential({6, 5, 4}, 0xd1ff);
}

TEST(EntryPoolStorageTest, DifferentialAgainstMapReference4Modes) {
  RunMapDifferential({5, 4, 3, 3}, 0xd1f4);
}

TEST(EntryPoolStorageTest, DifferentialAgainstMapReference8Modes) {
  RunMapDifferential({3, 2, 2, 3, 2, 2, 3, 2}, 0xd1f8);
}

// The reserve hint must be semantics-free: a pre-sized tensor behaves
// identically to an unsized one under the same operation stream.
TEST(EntryPoolStorageTest, ReserveHintDoesNotChangeBehavior) {
  const std::vector<int64_t> dims = {8, 7, 3};
  SparseTensor plain(dims);
  SparseTensor reserved(dims, /*expected_nnz=*/4096);
  Rng rng(77);
  for (int step = 0; step < 2000; ++step) {
    const ModeIndex index = RandomIndex(dims, rng);
    const double delta = static_cast<double>(rng.UniformInt(-2, 2));
    EXPECT_DOUBLE_EQ(plain.Add(index, delta), reserved.Add(index, delta));
  }
  ASSERT_EQ(plain.nnz(), reserved.nnz());
  plain.ForEachNonzero([&](const ModeIndex& index, double value) {
    EXPECT_DOUBLE_EQ(reserved.Get(index), value);
  });
}

// The NY-Taxi preset's warm window — its first window span ingested as a
// stream fills it, with and without the expected_nnz hint — serializes to
// these bytes, pinned at the commit before the coordinate index went to a
// quarter load and the bucket positions went M-wide. The bytes hold pool
// order and every bucket position, so neither change may move a pool id or
// a bucket slot; they hold no computed floating-point result, so the kernel
// tier plays no part.
TEST(EntryPoolStorageTest, TaxiWarmWindowLayoutBytesArePinned) {
  const DatasetSpec spec = NewYorkTaxiPreset();
  auto stream = GenerateSyntheticStream(spec.stream);
  ASSERT_TRUE(stream.ok());
  const int64_t warmup_end = spec.WarmupEndTime();
  for (const bool hinted : {false, true}) {
    SCOPED_TRACE(hinted ? "expected_nnz hint" : "no hint");
    ContinuousTensorWindow window(
        stream.value().mode_dims(), spec.engine.window_size,
        spec.engine.period,
        hinted ? stream.value().CountTuplesThrough(warmup_end) : 0);
    for (const Tuple& tuple : stream.value().tuples()) {
      if (tuple.time > warmup_end) break;
      window.AdvanceTo(tuple.time);
      window.Ingest(tuple);
    }
    const std::string bytes = LayoutBytes(window.tensor());
    EXPECT_EQ(window.tensor().nnz(), 3032);
    EXPECT_EQ(bytes.size(), 97060u);
    EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x5e5e2e1du);
  }
}

// Full window churn: ingest several window spans of tuples, drain every
// scheduled slide and expiry, and require the storage to come back exactly
// empty — no near-zero residue entries, no stale bucket ids in any mode.
TEST(EntryPoolStorageTest, WindowChurnLeavesNoResidue) {
  const std::vector<int64_t> mode_dims = {9, 6};
  const int window_size = 4;
  const int64_t period = 10;
  ContinuousTensorWindow window(mode_dims, window_size, period);
  Rng rng(0xc4u);

  int64_t now = 0;
  for (int t = 0; t < 500; ++t) {
    now += static_cast<int64_t>(rng.NextUint64(4));
    Tuple tuple;
    tuple.index = RandomIndex(mode_dims, rng);
    // Fractional values stress the epsilon-erase path.
    tuple.value = rng.UniformDouble(-2.0, 2.0);
    tuple.time = now;
    window.AdvanceTo(now);
    window.Ingest(tuple);
  }
  // Drain past the last expiry: every tuple has fully slid out.
  while (window.HasScheduled()) window.PopScheduled();

  const SparseTensor& x = window.tensor();
  EXPECT_EQ(x.nnz(), 0);
  EXPECT_EQ(x.FrobeniusNormSquared(), 0.0);
  EXPECT_EQ(x.MaxAbsValue(), 0.0);
  for (int m = 0; m < x.num_modes(); ++m) {
    for (int64_t i = 0; i < x.dim(m); ++i) {
      EXPECT_EQ(x.Degree(m, i), 0) << "bucket leak at mode " << m
                                   << " index " << i;
      EXPECT_TRUE(x.Slice(m, i).empty());
    }
  }
}

// Regression guard for the MttkrpRow re-hash bug: slice iteration carries
// values straight out of the pool, so running MttkrpRow over every slice of
// every mode must perform ZERO coordinate-hash lookups. The pre-refactor
// code called x.Get(index) per slice entry, which would trip this.
TEST(EntryPoolStorageTest, MttkrpRowPerformsNoHashLookups) {
  Rng rng(0x517e);
  const std::vector<int64_t> dims = {12, 9, 7};
  const int64_t rank = 5;
  KruskalModel model = KruskalModel::Random(dims, rank, rng);
  SparseTensor x(dims);
  for (int step = 0; step < 300; ++step) {
    x.Set(RandomIndex(dims, rng), rng.Normal());
  }

  const uint64_t lookups_before = x.hash_lookup_count();
  std::vector<double> row(static_cast<size_t>(PaddedRank(rank)));
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t i = 0; i < dims[static_cast<size_t>(mode)]; ++i) {
      MttkrpRow(x, model.factors(), mode, i, row.data());
    }
  }
  // Full-tensor iteration is hash-free too.
  double sum = 0.0;
  x.ForEachNonzero([&](const ModeIndex&, double value) { sum += value; });
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t i = 0; i < dims[static_cast<size_t>(mode)]; ++i) {
      for (const auto entry : x.Slice(mode, i)) sum += entry.value;
    }
  }
  EXPECT_NE(sum, -1.0);  // Keep the loops observable.
  EXPECT_EQ(x.hash_lookup_count(), lookups_before)
      << "slice/pool iteration must not touch the coordinate hash index";
}

}  // namespace
}  // namespace sns
