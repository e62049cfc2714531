// WorkerShard — one runtime thread draining one mailbox in FIFO order.
//
// A shard owns a disjoint subset of a service's streams: every operation on
// a stream (ingest, advance, query hop) executes on the owning shard's
// thread, so per-stream state needs no locking and per-stream order equals
// enqueue order. Shards never touch each other's streams — cross-shard
// parallelism is free because the engine is single-writer by design.

#ifndef SLICENSTITCH_RUNTIME_WORKER_SHARD_H_
#define SLICENSTITCH_RUNTIME_WORKER_SHARD_H_

#include <cstdint>
#include <optional>
#include <thread>

#include "runtime/mailbox.h"
#include "runtime/task.h"
#include "telemetry/metrics_registry.h"

namespace sns {

class WorkerShard {
 public:
  /// Spawns the shard thread, which immediately starts draining the mailbox.
  /// `metrics`, when non-null, receives this shard's mailbox tallies and
  /// per-task apply-time histogram; it must outlive the shard.
  WorkerShard(int index, int64_t queue_capacity,
              telemetry::ShardMetrics* metrics = nullptr);

  /// Joins the thread (running Shutdown() if the owner did not).
  ~WorkerShard();

  WorkerShard(const WorkerShard&) = delete;
  WorkerShard& operator=(const WorkerShard&) = delete;

  /// Enqueues a task for this shard's thread. Semantics of `block`,
  /// `deadline`, and the result are Mailbox::Push's.
  Mailbox::PushResult Submit(
      Task task, bool block,
      std::optional<Mailbox::Deadline> deadline = std::nullopt) {
    return mailbox_.Push(std::move(task), block, deadline);
  }

  /// Blocks until every accepted task has executed (mailbox quiescent).
  void Drain() const { mailbox_.WaitIdle(); }

  /// Stops accepting tasks, runs everything already accepted, and joins the
  /// thread. Idempotent; after Shutdown, Submit returns kClosed.
  void Shutdown();

  int index() const { return index_; }

 private:
  void Run();

  const int index_;
  telemetry::ShardMetrics* const metrics_;  // Null when telemetry is off.
  Mailbox mailbox_;
  std::thread thread_;
};

/// Runs one task, recording its apply time and completion into `metrics`
/// when non-null. Every execution lane runs tasks through here — a worker
/// shard's thread and the executor's caller lane alike — so both are
/// instrumented identically.
void RunTask(Task& task, telemetry::ShardMetrics* metrics);

}  // namespace sns

#endif  // SLICENSTITCH_RUNTIME_WORKER_SHARD_H_
