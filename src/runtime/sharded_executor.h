// ShardedExecutor — a fixed pool of worker shards with pinned stream
// assignment.
//
// The executor owns S WorkerShards. Streams are assigned a shard once, at
// registration (round-robin for balance), and keep it for life: pinning is
// what turns shard-local FIFO execution into a per-stream total order, and
// therefore into factor state bitwise identical to synchronous execution.
//
// With S = 0 the executor spawns no thread and has exactly one lane, the
// caller lane (lane 0): Submit runs the task on the submitting thread
// before returning. There is no queue, so the lane is never full, deadlines
// never expire, and draining it is a no-op. Tasks are instrumented the same
// way on every lane (RunTask), so callers see one execution surface
// whatever the shard count.
//
// Lifecycle: Drain() flushes every mailbox (all accepted tasks executed);
// Shutdown() drains, closes the mailboxes, and joins the threads. The
// executor is heap-allocated by SnsService so the service stays movable
// while shard threads hold stable pointers into the runtime.

#ifndef SLICENSTITCH_RUNTIME_SHARDED_EXECUTOR_H_
#define SLICENSTITCH_RUNTIME_SHARDED_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
#include "runtime/mailbox.h"
#include "runtime/task.h"
#include "runtime/worker_shard.h"
#include "telemetry/metrics_registry.h"

namespace sns {

class ShardedExecutor {
 public:
  /// Spawns `num_shards` worker threads, each behind a mailbox bounded at
  /// `queue_capacity` tasks; 0 spawns none and leaves the caller lane.
  /// `metrics`, when non-null, must expose at least max(1, num_shards)
  /// shard domains (outliving the executor); lane i records into
  /// metrics->shard(i). Null disables instrumentation.
  ShardedExecutor(int num_shards, int64_t queue_capacity,
                  telemetry::MetricsRegistry* metrics = nullptr);

  /// Joins all shard threads (Shutdown() if the owner did not call it).
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Worker shards (threads); 0 for the caller lane.
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Picks the lane for a newly registered stream: round-robin over the
  /// pool, so K streams spread evenly across S shards (always lane 0 on
  /// the caller lane). The assignment is permanent for the stream's
  /// lifetime.
  int AssignShard() {
    const int shard = next_shard_;
    next_shard_ = (next_shard_ + 1) % lanes();
    return shard;
  }

  /// Enqueues a task onto one shard. Semantics of `block`, `deadline`, and
  /// the result are Mailbox::Push's. The caller lane runs the task before
  /// returning and answers kOk, or kClosed after Shutdown.
  Mailbox::PushResult Submit(
      int shard, Task task, bool block,
      std::optional<Mailbox::Deadline> deadline = std::nullopt) {
    if (WorkerShard* worker = Worker(shard)) {
      return worker->Submit(std::move(task), block, deadline);
    }
    if (shut_down()) return Mailbox::PushResult::kClosed;
    RunTask(task, caller_metrics_);
    return Mailbox::PushResult::kOk;
  }

  /// Blocks until every accepted task on every shard has executed.
  void Drain() const;

  /// Blocks until every accepted task on one shard has executed.
  void DrainShard(int shard) const {
    if (WorkerShard* worker = Worker(shard)) worker->Drain();
  }

  /// Drains, stops accepting work, and joins every shard thread.
  /// Idempotent; after Shutdown, Submit returns kClosed.
  void Shutdown();

  /// True once Shutdown has begun. Lock-free.
  bool shut_down() const {
    return shut_down_.load(std::memory_order_acquire);
  }

 private:
  int lanes() const { return std::max(1, num_shards()); }

  /// The worker shard behind lane `shard`, or null for the caller lane.
  WorkerShard* Worker(int shard) const {
    SNS_CHECK(shard >= 0 && shard < lanes());
    return shards_.empty() ? nullptr
                           : shards_[static_cast<size_t>(shard)].get();
  }

  std::vector<std::unique_ptr<WorkerShard>> shards_;
  telemetry::ShardMetrics* caller_metrics_ = nullptr;  // Caller lane only.
  std::atomic<bool> shut_down_{false};
  int next_shard_ = 0;  // Guarded by the service's registry lock.
};

}  // namespace sns

#endif  // SLICENSTITCH_RUNTIME_SHARDED_EXECUTOR_H_
