// Runtime kernel-tier dispatch (common/cpu_features.h): probe sanity, the
// SNS_FORCE_GENERIC_KERNELS env override, and the cross-tier consistency
// contract — on hosts without AVX2 an env-forced generic engine is bitwise
// identical to the auto-tier default.

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "core/continuous_cpd.h"
#include "linalg/rank_dispatch.h"

namespace sns {
namespace {

// RAII env override + tier refresh, restoring the prior value on exit.
class ScopedForceGenericEnv {
 public:
  explicit ScopedForceGenericEnv(const char* value) {
    const char* old = std::getenv("SNS_FORCE_GENERIC_KERNELS");
    had_old_ = old != nullptr;
    if (had_old_) old_value_ = old;
    if (value != nullptr) {
      setenv("SNS_FORCE_GENERIC_KERNELS", value, /*overwrite=*/1);
    } else {
      unsetenv("SNS_FORCE_GENERIC_KERNELS");
    }
    internal::RefreshKernelTierForTest();
  }
  ~ScopedForceGenericEnv() {
    if (had_old_) {
      setenv("SNS_FORCE_GENERIC_KERNELS", old_value_.c_str(), 1);
    } else {
      unsetenv("SNS_FORCE_GENERIC_KERNELS");
    }
    internal::RefreshKernelTierForTest();
  }

 private:
  bool had_old_ = false;
  std::string old_value_;
};

TEST(CpuFeaturesTest, ProbeIsConsistent) {
  const CpuFeatures f = DetectCpuFeatures();
  // Feature implications on real hardware: avx512f ⊂ avx2 ⊂ avx ⊂ sse4.2.
  if (f.avx512f) {
    EXPECT_TRUE(f.avx2);
  }
  if (f.avx2) {
    EXPECT_TRUE(f.avx);
  }
  if (f.avx) {
    EXPECT_TRUE(f.sse42);
  }
  EXPECT_FALSE(CpuFeaturesSummary().empty());
}

TEST(CpuFeaturesTest, GenericTierAlwaysAvailable) {
  EXPECT_TRUE(KernelTierCompiledIn(KernelTier::kGeneric));
  EXPECT_TRUE(KernelTierSupported(KernelTier::kGeneric));
  EXPECT_STREQ(KernelTierName(KernelTier::kGeneric), "generic");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx2), "avx2");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx512), "avx512");
}

TEST(CpuFeaturesTest, AutoTierIsSupportedAndCompiledIn) {
  const KernelTier tier = ResolveKernelTier();
  EXPECT_TRUE(KernelTierCompiledIn(tier));
  EXPECT_TRUE(KernelTierSupported(tier));
}

TEST(CpuFeaturesTest, EnvOverrideForcesGeneric) {
  ScopedForceGenericEnv env("1");
  EXPECT_EQ(ResolveKernelTier(), KernelTier::kGeneric);
}

TEST(CpuFeaturesTest, EnvZeroDoesNotForce) {
  const KernelTier unforced = [] {
    ScopedForceGenericEnv env(nullptr);
    return ResolveKernelTier();
  }();
  ScopedForceGenericEnv env("0");
  EXPECT_EQ(ResolveKernelTier(), unforced);
}

TEST(KernelTierTableTest, TierFieldMatchesRequest) {
  for (const int64_t padded : {0l, 8l, 20l, 32l}) {
    const RankKernelTable& generic =
        GetRankKernelTable(padded, KernelTier::kGeneric);
    EXPECT_EQ(generic.tier, KernelTier::kGeneric);
    EXPECT_EQ(generic.padded_rank, padded);
    // Unavailable tiers fall back to generic; available ones must report
    // the tier they were asked for.
    for (const KernelTier tier : {KernelTier::kAvx2, KernelTier::kAvx512}) {
      const RankKernelTable& t = GetRankKernelTable(padded, tier);
      EXPECT_EQ(t.padded_rank, padded);
      if (KernelTierCompiledIn(tier)) {
        EXPECT_EQ(t.tier, tier);
      } else {
        EXPECT_EQ(t.tier, KernelTier::kGeneric);
      }
    }
  }
}

// Runs one engine per configuration over the same synthetic stream (warm-up
// + one-sweep ALS init + live events) and returns the final factors.
// max_iterations = 1 keeps the ALS stopping rule out of the picture — its
// fitness (AlsSweepFitness) is read off the sweep's own Grams at the
// sweep's tier, so an iteration count hinging on a fitness ulp would make
// bitwise comparisons tier-sensitive beyond the sweep arithmetic itself.
std::vector<Matrix> RunEngine(ContinuousCpdOptions options) {
  options.rank = 6;
  options.window_size = 4;
  options.period = 5;
  options.init.max_iterations = 1;
  auto created = ContinuousCpd::Create({7, 9}, options);
  SNS_CHECK(created.ok());
  std::unique_ptr<ContinuousCpd> engine = std::move(created).value();
  Rng rng(0xfeed);
  auto next_tuple = [&](int64_t t) {
    return Tuple{{static_cast<int32_t>(rng.UniformInt(0, 6)),
                  static_cast<int32_t>(rng.UniformInt(0, 8))},
                 rng.UniformDouble(), t};
  };
  int64_t t = 1;
  const int64_t warmup_end = 1 + options.window_size * options.period;
  for (; t <= warmup_end; ++t) engine->IngestOnly(next_tuple(t));
  engine->InitializeWithAls();
  for (; t <= warmup_end + 120; ++t) engine->ProcessTuple(next_tuple(t));
  std::vector<Matrix> factors;
  for (int m = 0; m < engine->state().num_modes(); ++m) {
    factors.push_back(engine->state().model.factor(m));
  }
  return factors;
}

void ExpectBitwiseEqual(const std::vector<Matrix>& a,
                        const std::vector<Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t m = 0; m < a.size(); ++m) {
    ASSERT_EQ(a[m].rows(), b[m].rows());
    ASSERT_EQ(a[m].cols(), b[m].cols());
    for (int64_t i = 0; i < a[m].rows(); ++i) {
      for (int64_t j = 0; j < a[m].cols(); ++j) {
        ASSERT_EQ(a[m](i, j), b[m](i, j))
            << "mode " << m << " (" << i << "," << j << ")";
      }
    }
  }
}

// On hosts without a usable AVX2 tier the auto tier IS generic, so forcing
// must change nothing at all.
TEST(ForcedGenericTest, ForcedMatchesAutoWhenHostLacksAvx2) {
  if (KernelTierSupported(KernelTier::kAvx2) &&
      KernelTierCompiledIn(KernelTier::kAvx2)) {
    GTEST_SKIP() << "host dispatches AVX2; auto != generic by design";
  }
  ContinuousCpdOptions options;
  options.variant = SnsVariant::kRndPlus;
  options.sample_threshold = 3;
  std::vector<Matrix> auto_tier;
  {
    ScopedForceGenericEnv env(nullptr);
    auto_tier = RunEngine(options);
  }
  std::vector<Matrix> forced;
  {
    ScopedForceGenericEnv env("1");
    forced = RunEngine(options);
  }
  ExpectBitwiseEqual(auto_tier, forced);
}

}  // namespace
}  // namespace sns
