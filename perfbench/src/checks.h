// Correctness check of a run: every stream's serialized state must be
// byte-identical to an inline StreamHandle fed the same warm-up and tuples
// (the sharded-runtime guarantee; for the batched inline workload also
// batched ≡ per-tuple ingest). Runs outside the timed phases.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>

#include "service_harness.h"
#include "workloads.h"

namespace perfbench {

struct VerifyResult {
  bool identical = false;
  std::string detail;  // First mismatch, when not identical.
  /// Exact fitness by the stream's loss, averaged over streams and over
  /// kFitnessPoints evenly spaced points of the replay of items
  /// [0, fitness_end): points fixed by the seed (when fitness_end is), so
  /// the value does not depend on how far a timed phase got.
  double fitness = 0.0;
  /// Wall time the inline reference spent ingesting live items
  /// [timed_begin, timed_end) — the inline baseline of one phase.
  double timed_inline_s = 0.0;
  /// Non-zeros of every reference window at the end.
  int64_t window_nnz = 0;
  /// Outlier-store entries at the end (robust streams).
  int64_t outlier_store_size = 0;
};

/// Replays the harness's applied items through one inline StreamHandle per
/// stream and compares serialized states with the harness's capture.
/// `perturb_item` ≥ 0 changes that item's value in the replay (the
/// self-test that proves the check can fail).
VerifyResult VerifyAgainstInline(const WorkloadSpec& spec,
                                 const Inputs& inputs,
                                 const ServiceHarness& harness,
                                 int64_t fitness_end, int64_t timed_begin,
                                 int64_t timed_end, int64_t perturb_item = -1);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
