// Ticket — a lightweight completion token for asynchronous service calls.
//
// IngestAsync / AdvanceToAsync hand the caller a Ticket immediately; the
// operation itself runs later on the stream's owning worker shard (or, on
// the executor's caller lane, before the call returns). The ticket is a
// shared_ptr onto a small completion record the shard fills in: callers
// may Wait() for the Status, poll done(), or drop the ticket
// entirely (fire-and-forget — completion state is reference counted, so a
// dropped ticket never dangles).
//
// Tickets also carry the per-stream *sequence token* assigned at issue
// time: tickets of one stream are numbered 1, 2, 3… in the order their
// operations are applied — on the owning shard, or on the caller lane
// (shards = 0) — and any query issued after a ticket observes that
// ticket's operation (queries ride the same lane). Operations that never
// enter the stream's order — rejected under BackpressurePolicy::kReject,
// submitted after Shutdown, or addressed to an unknown stream — complete
// immediately with a non-OK status and sequence 0.

#ifndef SLICENSTITCH_RUNTIME_TICKET_H_
#define SLICENSTITCH_RUNTIME_TICKET_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "common/status.h"

namespace sns {

namespace internal {

/// Shared completion record behind a Ticket. The runtime completes it
/// exactly once; any number of threads may wait on it.
class TicketRecord {
 public:
  TicketRecord() = default;
  explicit TicketRecord(uint64_t sequence) : sequence_(sequence) {}

  /// Marks the operation finished. Called exactly once, by the task on the
  /// stream's lane (or at issue for operations that never enter it).
  void Complete(Status status) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      SNS_CHECK(!done_);
      status_ = std::move(status);
      done_ = true;
    }
    cv_.notify_all();
  }

  uint64_t sequence() const { return sequence_; }

  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

  Status Wait() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    return status_;
  }

  /// Bounded wait: the operation's Status if it completed within `timeout`,
  /// else kDeadlineExceeded. The operation itself is unaffected — it will
  /// still execute and can be waited on again.
  Status WaitFor(std::chrono::milliseconds timeout) const {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, timeout, [this] { return done_; })) {
      return Status::DeadlineExceeded(
          "operation still pending after " + std::to_string(timeout.count()) +
          " ms");
    }
    return status_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool done_ = false;       // Guarded by mu_.
  Status status_;           // Guarded by mu_; final once done_.
  uint64_t sequence_ = 0;   // Written before the ticket is shared.
};

}  // namespace internal

/// Completion token of one asynchronous service operation. Copyable and
/// cheap to pass around; default-constructed tickets are empty (valid() is
/// false) and must not be waited on.
class Ticket {
 public:
  Ticket() = default;

  /// An already-completed ticket carrying no sequence — issue-time
  /// failures (rejection, shutdown, unknown stream).
  static Ticket Completed(Status status) {
    auto record = std::make_shared<internal::TicketRecord>();
    record->Complete(std::move(status));
    return Ticket(std::move(record));
  }

  /// True if the ticket tracks an operation (empty tickets carry nothing).
  bool valid() const { return record_ != nullptr; }

  /// True once the operation has been applied (or rejected).
  bool done() const {
    SNS_CHECK(record_ != nullptr);
    return record_->done();
  }

  /// Blocks until the operation completes and returns its Status. Safe to
  /// call from any number of threads, repeatedly.
  Status Wait() const {
    SNS_CHECK(record_ != nullptr);
    return record_->Wait();
  }

  /// Bounded Wait: kDeadlineExceeded if the operation is still pending
  /// after `timeout`. A timed-out WaitFor does NOT cancel the operation —
  /// it will still apply in order, and Wait()/WaitFor() may be retried.
  Status WaitFor(std::chrono::milliseconds timeout) const {
    SNS_CHECK(record_ != nullptr);
    return record_->WaitFor(timeout);
  }

  /// The per-stream sequence token, assigned in application order starting
  /// at 1 (on the caller lane too — the surfaces behave identically). Zero
  /// for operations that never entered the stream's order: rejected,
  /// submitted after shutdown, or unknown stream.
  uint64_t sequence() const {
    SNS_CHECK(record_ != nullptr);
    return record_->sequence();
  }

 private:
  friend class SnsService;
  explicit Ticket(std::shared_ptr<internal::TicketRecord> record)
      : record_(std::move(record)) {}

  std::shared_ptr<internal::TicketRecord> record_;
};

}  // namespace sns

#endif  // SLICENSTITCH_RUNTIME_TICKET_H_
