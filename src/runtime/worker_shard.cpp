#include "runtime/worker_shard.h"

#include <utility>

#include "telemetry/scoped_timer.h"

namespace sns {

WorkerShard::WorkerShard(int index, int64_t queue_capacity,
                         telemetry::ShardMetrics* metrics)
    : index_(index),
      metrics_(metrics),
      mailbox_(queue_capacity, metrics),
      thread_([this] { Run(); }) {}

WorkerShard::~WorkerShard() { Shutdown(); }

void WorkerShard::Shutdown() {
  mailbox_.Close();
  if (thread_.joinable()) thread_.join();
}

void RunTask(Task& task, telemetry::ShardMetrics* metrics) {
  if (metrics == nullptr) {
    task();
    return;
  }
  const int64_t start_ns = telemetry::MonotonicNanos();
  task();
  metrics->apply_ns.Record(telemetry::MonotonicNanos() - start_ns);
  metrics->tasks_executed.Add(1);
}

void WorkerShard::Run() {
  Task task;
  while (mailbox_.Pop(task)) {
    RunTask(task, metrics_);
    task = Task();  // Release captures before acknowledging completion:
                    // after TaskDone a drained caller may free what the
                    // closure captured (e.g. during stream removal).
    mailbox_.TaskDone();
  }
}

}  // namespace sns
