#!/usr/bin/env bash
# Header-hygiene check: every public header must compile standalone — as the
# only include of a translation unit — with -Wall -Wextra -Werror, so the
# facade surface never silently depends on include order or transitive
# includes leaking from another header.
#
# Usage: tools/check_header_hygiene.sh [compiler]   (default: $CXX or g++)

set -euo pipefail
cd "$(dirname "$0")/.."

compiler="${1:-${CXX:-g++}}"

# The public surface: the umbrella header, the api/ facade layer (including
# the stream-health / self-healing surface), the runtime layer it exposes
# (tickets, mailboxes, shards), the durability layer (checkpoints, journals,
# serialization primitives), the fault-injection surface, the telemetry
# layer (counters, histograms, registry, timers, JSON export), the kernel
# dispatch surface (CPU probe, codelet table contract), and the
# generalized-loss layer (loss catalog, GCP row update, outlier store,
# reference objectives).
headers=(
  src/slicenstitch.h
  src/api/service_options.h
  src/api/sns_service.h
  src/api/stream_event.h
  src/api/stream_handle.h
  src/api/stream_health.h
  src/common/cpu_features.h
  src/common/crc32.h
  src/common/failpoint.h
  src/common/serial.h
  src/durability/checkpoint.h
  src/durability/journal.h
  src/linalg/codelets/codelet_tables.h
  src/losses/gcp_row_update.h
  src/losses/loss_function.h
  src/losses/outlier_store.h
  src/losses/reference_objective.h
  src/runtime/mailbox.h
  src/runtime/sharded_executor.h
  src/runtime/task.h
  src/runtime/ticket.h
  src/runtime/worker_shard.h
  src/telemetry/counters.h
  src/telemetry/histogram.h
  src/telemetry/json_exporter.h
  src/telemetry/metrics_registry.h
  src/telemetry/scoped_timer.h
)

status=0
for header in "${headers[@]}"; do
  if [ ! -f "$header" ]; then
    echo "MISSING  $header"
    status=1
    continue
  fi
  if "$compiler" -std=c++20 -fsyntax-only -Wall -Wextra -Werror \
      -I src -x c++ "$header"; then
    echo "OK       $header ($compiler)"
  else
    echo "FAILED   $header ($compiler)"
    status=1
  fi
done
exit $status
