#include "api/service_options.h"

#include "common/check.h"

namespace sns {

Status ServiceOptions::Validate() const {
  if (shards < 0) {
    return Status::InvalidArgument("shards must be >= 0 (0 = the caller lane)");
  }
  if (max_queue_depth < 1) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (backpressure != BackpressurePolicy::kBlock &&
      backpressure != BackpressurePolicy::kReject) {
    return Status::InvalidArgument("unknown backpressure policy");
  }
  if (metrics.export_interval_ms < 0) {
    return Status::InvalidArgument("metrics.export_interval_ms must be >= 0");
  }
  if (metrics.export_interval_ms > 0 && !metrics.enabled) {
    return Status::InvalidArgument(
        "metrics.export_interval_ms requires metrics.enabled");
  }
  if (!metrics.json_path.empty() && metrics.export_interval_ms == 0) {
    return Status::InvalidArgument(
        "metrics.json_path requires metrics.export_interval_ms > 0");
  }
  return Status::OK();
}

const char* BackpressurePolicyName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kReject:
      return "reject";
  }
  SNS_CHECK(false &&
            "BackpressurePolicyName: value outside the BackpressurePolicy enum");
}

}  // namespace sns
