#include "common/cpu_features.h"

#include <cstdlib>
#include <cstring>

namespace sns {
namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SNS_HAVE_CPU_PROBE 1
#endif

CpuFeatures Probe() {
  CpuFeatures f;
#ifdef SNS_HAVE_CPU_PROBE
  __builtin_cpu_init();
  f.sse42 = __builtin_cpu_supports("sse4.2") != 0;
  f.avx = __builtin_cpu_supports("avx") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
  return f;
}

bool ForcedGenericByEnv() {
  const char* v = std::getenv("SNS_FORCE_GENERIC_KERNELS");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

KernelTier ComputeAutoTier() {
  if (ForcedGenericByEnv()) return KernelTier::kGeneric;
  if (KernelTierSupported(KernelTier::kAvx512)) return KernelTier::kAvx512;
  if (KernelTierSupported(KernelTier::kAvx2)) return KernelTier::kAvx2;
  return KernelTier::kGeneric;
}

KernelTier& CachedAutoTier() {
  static KernelTier tier = ComputeAutoTier();
  return tier;
}

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kGeneric:
      return "generic";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool KernelTierCompiledIn(KernelTier tier) {
#ifdef SNS_HAVE_X86_CODELETS
  (void)tier;
  return true;
#else
  return tier == KernelTier::kGeneric;
#endif
}

bool KernelTierSupported(KernelTier tier) {
  if (!KernelTierCompiledIn(tier)) return false;
  const CpuFeatures& f = DetectCpuFeatures();
  switch (tier) {
    case KernelTier::kGeneric:
      return true;
    case KernelTier::kAvx2:
      return f.avx2 && f.fma;
    case KernelTier::kAvx512:
      return f.avx512f && f.avx2 && f.fma;
  }
  return false;
}

KernelTier ResolveKernelTier() { return CachedAutoTier(); }

std::string CpuFeaturesSummary() {
  const CpuFeatures& f = DetectCpuFeatures();
  std::string out;
  auto add = [&out](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += '+';
    out += name;
  };
  add(f.sse42, "sse4.2");
  add(f.avx, "avx");
  add(f.fma, "fma");
  add(f.avx2, "avx2");
  add(f.avx512f, "avx512f");
  if (out.empty()) out = "baseline";
  out += " tier=";
  out += KernelTierName(ResolveKernelTier());
  return out;
}

namespace internal {
void RefreshKernelTierForTest() { CachedAutoTier() = ComputeAutoTier(); }
}  // namespace internal

}  // namespace sns
