// SnsService — a pool of independently configured, named decomposition
// streams behind one ingest/query front door, executed by an asynchronous
// sharded runtime.
//
// The paper frames SliceNStitch as the engine of always-on applications; a
// deployment serves many of them at once (one stream per city, per metric,
// per tenant...). The service owns one StreamHandle per name — each with
// its own schema, options, and engine — and routes ingestion and queries by
// stream id.
//
// Execution model (src/runtime/): every operation on a stream runs as a
// task on the stream's lane of the service's ShardedExecutor. With
// ServiceOptions::shards >= 1 the lanes are worker shards, each a thread
// draining a bounded MPSC mailbox; every stream is pinned to exactly one
// shard at creation (round-robin) and its operations execute on that
// shard's thread in FIFO order — so per-stream event order, and therefore
// every factor value, is bitwise identical to synchronous execution, while
// distinct streams proceed in parallel. shards = 0 (the default) leaves one
// lane, the caller lane: no threads, each task runs on the calling thread
// before the call returns. The code path, sequence tokens and per-task
// telemetry are the same on both kinds of lane.
//
// Entry points:
//   - IngestAsync / AdvanceToAsync enqueue onto the owning shard and return
//     a completion Ticket carrying the operation's per-stream sequence
//     token. A full mailbox either blocks the producer or rejects the
//     ticket (StatusCode::kResourceExhausted), per BackpressurePolicy; an
//     optional deadline bounds the blocking wait, completing the ticket
//     with kDeadlineExceeded (nothing enqueued, no token consumed) when a
//     wedged shard cannot admit the operation in time. The caller lane has
//     no mailbox: it is never full, so neither policy nor deadline fires.
//   - The synchronous forms (Warmup, Initialize, Ingest, AdvanceTo) and the
//     typed queries (Reconstruct, TopK, ComponentActivity, RunningFitness,
//     Stats, generic Query) execute as request/reply hops on the owning
//     shard: the call enqueues, waits for the reply, and returns the
//     result. Because queries ride the same FIFO mailbox as mutations, a
//     query observes every ingest whose ticket was issued before the query
//     call — the sequence-consistency guarantee. Hops always block for
//     room (the caller self-throttles on the reply), so backpressure
//     policy applies to the ticketed async path only.
//   - Drain() flushes every mailbox; Shutdown() drains, stops the shards,
//     and joins their threads. The destructor shuts down before any handle
//     is destroyed, so no task ever touches a dead stream. After Shutdown,
//     mutations fail (kFailedPrecondition) and queries run directly on the
//     caller — the threads are gone, so those reads are race-free.
//
// Failure containment (api/stream_health.h): every stream carries a health
// state. A failed write-ahead append quarantines the stream — mutations
// are refused with a typed, retryable status and nothing further touches
// the journal, while queries keep serving last-good state. With
// EnableAutoRecovery configured, the owning shard heals the stream in
// place: bounded, backed-off retries rebuild it from the last checkpoint +
// journal suffix (durability::RecoverHandle), pin the rebuilt state
// bitwise against the live state, reopen the journal, and re-append the
// failed record — on success the failure is invisible to the caller.
// Exhausted retries (or no recovery config) end in StreamHealth::kFailed:
// terminal, mutations fail kDataLoss, queries still work. The supervisor
// surface (Health) reads per-stream health, retry counters, and the last
// error lock-free — usable even while a shard is wedged — and every health
// edge is delivered to the stream's EventSinks.
//
// Telemetry (src/telemetry/): with ServiceOptions::metrics.enabled the
// service owns a MetricsRegistry — one lock-free domain per shard (mailbox
// traffic, queue depth, per-task apply time, ingest-to-ticket latency) plus
// one per stream (tuples, journal/checkpoint bytes and latency, health
// counters) — preallocated up front, so recording never allocates and costs
// a null-check plus a relaxed atomic add per event. Metrics() returns a
// merged, sequence-consistent ServiceMetricsSnapshot (every shard is
// drained of already-issued work first). metrics.export_interval_ms > 0
// additionally starts an exporter thread that periodically delivers an
// OnMetrics event to every stream's sinks on its lane (the exporter thread
// itself on the caller lane) and, with metrics.json_path set, appends one
// JSON line per interval. Remove waits for an in-flight delivery. Disabled
// (default), the instrumentation sites cost one null-pointer test each and
// factor state stays bitwise identical either way (pinned by tests).
//
// Hostile-input admission control: Warmup/Ingest batches are validated
// against the stream schema at submission — arity, coordinate range, and
// value finiteness (NaN/Inf) — and rejected whole-batch with
// kInvalidArgument BEFORE a sequence token is issued or a journal record
// written. Chronology violations are detected at apply time (they depend
// on stream state) and are journaled like any acknowledged request.
//
// Thread safety (shards >= 1): all entry points may be called from any
// number of threads concurrently, except that CreateStream / Remove /
// AdvanceAllTo / Shutdown must not race with submissions to the affected
// streams, and Find()'s raw StreamHandle* must not be dereferenced while
// shards are live — route access through the service instead. On the
// caller lane (shards = 0) each operation runs on the thread that calls
// it, so drive a stream from one thread at a time. Handles live behind
// stable allocations: pointers returned by CreateStream/Find stay valid
// until that stream is removed, across pool mutations and moves of the
// service itself.

#ifndef SLICENSTITCH_API_SNS_SERVICE_H_
#define SLICENSTITCH_API_SNS_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/service_options.h"
#include "api/stream_handle.h"
#include "api/stream_health.h"
#include "common/status.h"
#include "core/options.h"
#include "runtime/sharded_executor.h"
#include "runtime/ticket.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/scoped_timer.h"

namespace sns {

namespace serial {
class ByteSink;
class ByteSource;
}  // namespace serial

namespace durability {
class JournalWriter;
struct JournalOptions;
enum class JournalOpType : uint8_t;
}  // namespace durability

/// Multi-stream service facade over the sharded runtime. Move-only; streams
/// and shard threads are owned by the service.
class SnsService {
 public:
  /// Caller-lane service (shards = 0): no runtime threads, synchronous
  /// calls.
  SnsService();

  /// Service with an explicit runtime configuration. SNS_CHECK-fails on
  /// invalid options; use Create for a Status-returning path.
  explicit SnsService(const ServiceOptions& options);

  /// Validating factory form of the options constructor.
  static StatusOr<SnsService> Create(const ServiceOptions& options);

  /// Moves leave `other` as a valid empty caller-lane service (fresh
  /// registry, default options), so accidental use of a moved-from service
  /// degrades to "no streams" instead of undefined behavior.
  SnsService(SnsService&& other);
  SnsService& operator=(SnsService&& other);

  /// Shuts the runtime down (draining all mailboxes) before destroying any
  /// stream handle.
  ~SnsService();

  const ServiceOptions& service_options() const { return options_; }
  /// Worker shards executing stream operations (0 = the caller lane).
  int shards() const { return options_.shards; }

  // --- Pool management --------------------------------------------------

  /// Registers a new stream under a unique name and pins it to a shard.
  /// Fails (leaving the pool unchanged) on duplicate names or invalid
  /// schema/options. The returned handle pointer is owned by the service
  /// and stable until Remove.
  StatusOr<StreamHandle*> CreateStream(std::string name,
                                       std::vector<int64_t> mode_dims,
                                       const ContinuousCpdOptions& options);

  /// The stream registered under `name`, or nullptr. With shards >= 1 the
  /// raw handle must not be dereferenced while shards are live (its engine
  /// runs on the owning shard's thread); route through the service instead.
  StreamHandle* Find(std::string_view name);
  const StreamHandle* Find(std::string_view name) const;

  /// Destroys one stream (its handle pointers become invalid) after
  /// draining the owning shard. Waits for an in-flight periodic OnMetrics
  /// delivery; none reaches the stream after Remove returns. Must not race
  /// with submissions to it.
  Status Remove(std::string_view name);

  /// Registered stream names, sorted.
  std::vector<std::string> StreamNames() const;

  int64_t stream_count() const;
  bool empty() const { return stream_count() == 0; }

  // --- Asynchronous ingestion -------------------------------------------
  // Enqueue onto the owning shard and return immediately. The ticket
  // completes with the operation's Status once the shard applies it.
  // Under BackpressurePolicy::kReject a full mailbox completes the ticket
  // immediately with kResourceExhausted and enqueues nothing; under kBlock
  // the call waits for room — bounded by `deadline` when one is given: a
  // shard still full at the deadline completes the ticket with
  // kDeadlineExceeded, enqueueing nothing and consuming no token, so the
  // stream is left exactly as if the call never happened. (The caller lane
  // has no queue; the operation is applied before the call returns and
  // deadlines never fire there.) Unknown streams, hostile input (admission
  // control), unhealthy streams, and a shut-down service also complete
  // immediately with their typed status.

  /// Processes one chronological batch of live tuples (copied into the
  /// task). Semantics of the applied operation match StreamHandle::Ingest.
  Ticket IngestAsync(
      std::string_view stream, std::span<const Tuple> tuples,
      std::optional<std::chrono::milliseconds> deadline = std::nullopt);

  /// Drains scheduled window events due at or before `time`.
  Ticket AdvanceToAsync(
      std::string_view stream, int64_t time,
      std::optional<std::chrono::milliseconds> deadline = std::nullopt);

  // --- Synchronous routed ingestion -------------------------------------
  // Name-addressed forms of the StreamHandle entry points; unknown names
  // return NotFound, everything else carries the handle's own Status.
  // Equivalent to the async forms followed by Ticket::Wait(): executed on
  // the owning shard, consuming a sequence token, but always blocking for
  // mailbox room (the caller self-throttles on completion, so kReject
  // never applies) and refused with kFailedPrecondition after Shutdown.

  Status Warmup(std::string_view stream, std::span<const Tuple> tuples);
  Status Initialize(std::string_view stream);
  Status Ingest(std::string_view stream, std::span<const Tuple> tuples);
  Status Ingest(std::string_view stream, const Tuple& tuple);
  Status AdvanceTo(std::string_view stream, int64_t time);

  /// Advances every stream whose clock is behind `time`. Streams already
  /// past the horizon and streams that never saw input (whose warm-up must
  /// remain possible with earlier tuples) are left untouched. Used to flush
  /// all windows to a common horizon, e.g. at shutdown or a checkpoint;
  /// must not race with concurrent submissions or pool mutations
  /// (CreateStream / Remove). Every stream is attempted; the first
  /// per-stream failure (e.g. a journal append error — kIOError, or a
  /// failed stream — kDataLoss) is returned. After Shutdown the typed
  /// refusal degrades to an OK no-op.
  Status AdvanceAllTo(int64_t time);

  // --- Sequence-consistent queries --------------------------------------
  // Executed on the owning shard via a request/reply hop: the caller
  // blocks for the reply, and the query observes every ingest whose ticket
  // was issued before the query call (same FIFO mailbox). Queries serve
  // regardless of stream health — a quarantined or failed stream still
  // answers from its last-good state.

  /// Model reconstruction x̃ at one full window coordinate.
  StatusOr<double> Reconstruct(std::string_view stream,
                               const ModeIndex& window_cell);

  /// Top-k entities of one non-time mode by activity-weighted loading.
  StatusOr<std::vector<TopEntry>> TopK(std::string_view stream, int mode,
                                       int k);

  /// Current per-component activity (λ_r · newest time-factor row).
  StatusOr<std::vector<double>> ComponentActivity(std::string_view stream);

  /// Top-k entities of one non-time mode by accumulated outlier mass in the
  /// robust mode's sparse structure S (StreamHandle::OutlierActivity).
  /// kFailedPrecondition when the stream runs without robust mode.
  StatusOr<std::vector<TopEntry>> OutlierActivity(std::string_view stream,
                                                  int mode, int k);

  /// Incrementally maintained fitness estimate.
  StatusOr<double> RunningFitness(std::string_view stream);

  /// Point-in-time counters of one stream.
  StatusOr<StreamStats> Stats(std::string_view stream);

  /// Generic hop: runs `fn(const StreamHandle&)` on the owning shard and
  /// returns its result. `fn` may capture caller-stack references — the
  /// caller blocks until the reply. NotFound for unknown streams.
  template <typename Fn>
  auto Query(std::string_view stream, Fn&& fn)
      -> StatusOr<std::invoke_result_t<Fn&, const StreamHandle&>> {
    StreamEntry* entry = ResolveEntry(stream);
    if (entry == nullptr) return NoSuchStream(stream);
    return RunOnShard(*entry, [&fn](StreamHandle& handle) {
      return fn(static_cast<const StreamHandle&>(handle));
    });
  }

  /// Sequence token of the last ticketed operation the stream has applied
  /// (0 before any). Monotone; once a ticket is done(), AppliedSequence is
  /// >= its sequence(). Lock-free — no shard hop.
  StatusOr<uint64_t> AppliedSequence(std::string_view stream) const;

  // --- Supervision ------------------------------------------------------

  /// Merged telemetry snapshot of the whole service: every shard domain,
  /// every stream domain, and the cross-shard ingest-latency / apply-time
  /// histogram merges. Sequence-consistent like the typed queries: every
  /// shard is first drained of the work already issued to it (one blocking
  /// barrier task per shard), so the snapshot covers every operation whose
  /// ticket was issued before this call. kFailedPrecondition when metrics
  /// are disabled (ServiceOptions::metrics.enabled = false).
  StatusOr<telemetry::ServiceMetricsSnapshot> Metrics();

  /// True when this service records metrics (metrics.enabled at creation).
  bool metrics_enabled() const { return metrics_ != nullptr; }

  /// Supervisor snapshot of one stream's health: state-machine position,
  /// quarantine/recovery counters, and the most recent failure cause. Read
  /// from counters the owning shard maintains — no shard hop, so it works
  /// even while the shard is wedged mid-recovery.
  StatusOr<StreamHealthInfo> Health(std::string_view stream) const;

  /// Arms in-place auto-recovery for one journaled stream: after a failed
  /// write-ahead append, the owning shard rebuilds the stream from the
  /// checkpoint at `checkpoint_path` plus the journal suffix, verifies the
  /// rebuilt state bitwise against the live state, reopens the journal,
  /// and retries the failed append — up to policy.max_attempts times with
  /// jittered exponential backoff (api/stream_health.h). The checkpoint
  /// must cover the journal's start (the usual order: CreateStream/Restore
  /// → EnableJournal → CheckpointToFile → EnableAutoRecovery). Requires an
  /// attached journal; must not race with submissions to the stream.
  Status EnableAutoRecovery(std::string_view stream,
                            const std::string& checkpoint_path,
                            const RecoveryPolicy& policy = {});

  // --- Durability -------------------------------------------------------

  /// Writes a versioned, CRC-guarded checkpoint of one stream into `sink`
  /// (durability/checkpoint.h envelope), stamped with the stream's applied
  /// sequence token. Runs as a request/reply hop on the owning shard, so it
  /// captures a consistent sequence point even during live async ingest:
  /// exactly the operations whose tickets were enqueued before the
  /// checkpoint call are included. After Shutdown the service refuses with
  /// kFailedPrecondition — checkpoint before shutting down.
  Status Checkpoint(std::string_view stream, serial::ByteSink& sink);

  /// Checkpoint into a file, atomically: the envelope is written to a
  /// temporary sibling, fsynced, and renamed over `path`, so a crash or
  /// write failure mid-checkpoint never clobbers the previous good
  /// checkpoint — the invariant auto-recovery depends on.
  Status CheckpointToFile(std::string_view stream, const std::string& path);

  /// Rebuilds a stream from a Checkpoint byte stream and registers it under
  /// its serialized name (like CreateStream: duplicate names fail, the
  /// stream is pinned to a shard, the returned pointer is service-owned).
  /// The stream resumes at its checkpointed sequence token, so attaching a
  /// journal and replaying (durability::RecoverStream) continues the exact
  /// token sequence.
  StatusOr<StreamHandle*> Restore(serial::ByteSource& source);

  /// Attaches a write-ahead event journal to one stream: every subsequent
  /// ticketed mutation is appended to `directory` (durability/journal.h)
  /// before it is applied. The owning shard is drained first, so the
  /// journal starts at a clean sequence point; for crash recovery, enable
  /// journaling right after CreateStream/Restore and checkpoint afterwards.
  /// Fails if the stream already journals, is not healthy, or the service
  /// is shut down. Must not race with submissions to the stream. A failed
  /// append quarantines the stream (see the class comment): the failing
  /// operation is not applied, and whether the stream heals or fails
  /// permanently is decided by EnableAutoRecovery's policy.
  Status EnableJournal(std::string_view stream, const std::string& directory);
  Status EnableJournal(std::string_view stream, const std::string& directory,
                       const durability::JournalOptions& options);

  // --- Runtime lifecycle ------------------------------------------------

  /// Blocks until every accepted task on every shard has executed. With
  /// producers paused, all issued tickets are done afterwards. No-op on
  /// the caller lane.
  void Drain();

  /// Drains, stops accepting mutations, and joins every shard thread.
  /// Idempotent. Afterwards mutations fail with kFailedPrecondition and
  /// queries run directly on the caller.
  void Shutdown();

 private:
  /// Auto-recovery configuration of one stream (set by EnableAutoRecovery;
  /// defined in the .cpp — durability::JournalOptions is incomplete here).
  struct AutoRecoveryConfig;

  /// One registered stream: its handle plus runtime bookkeeping. Heap-
  /// allocated so shard tasks hold stable pointers across pool mutations
  /// and service moves.
  struct StreamEntry {
    StreamEntry();   // Out-of-line: JournalWriter is incomplete here.
    ~StreamEntry();

    std::unique_ptr<StreamHandle> handle;
    int shard = 0;  // Pinned executor lane.
    std::mutex submit_mu;    // Serializes ticket issue + enqueue.
    uint64_t issued_seq = 0;  // Guarded by submit_mu.
    std::atomic<uint64_t> applied_seq{0};  // Written on the owning shard.

    /// Immutable copies of the stream identity/schema, readable from any
    /// thread without touching the handle (which recovery may be swapping
    /// on the owning shard): set once at CreateStream/Restore.
    std::string name;
    std::vector<int64_t> mode_dims;

    /// Write-ahead journal, or null. Like the handle, touched only on the
    /// owning shard once attached (EnableJournal drains before attaching);
    /// recovery closes and reopens it in place.
    std::unique_ptr<durability::JournalWriter> journal;
    /// Auto-recovery config, or null (quarantine is then terminal).
    std::unique_ptr<AutoRecoveryConfig> auto_recovery;

    /// Health state machine (api/stream_health.h). Written on the owning
    /// shard, read lock-free everywhere (submit gate, supervisor).
    /// Telemetry domains, or null when metrics are disabled. Stable heap
    /// pointers into the service's MetricsRegistry, set once at
    /// CreateStream/Restore; recording through them is lock-free.
    telemetry::ShardMetrics* shard_metrics = nullptr;
    telemetry::StreamMetrics* stream_metrics = nullptr;

    std::atomic<StreamHealth> health{StreamHealth::kHealthy};
    std::atomic<uint64_t> quarantine_count{0};
    std::atomic<uint64_t> recovery_attempts{0};
    std::atomic<uint64_t> recoveries_completed{0};
    std::mutex health_mu;  // Guards last_error only.
    Status last_error;     // Most recent failure cause; guarded by health_mu.
  };

  /// The stream registry, heap-allocated behind the service so shard tasks
  /// and returned handle pointers survive service moves. The map keeps
  /// names sorted for free; unique_ptr values keep entry addresses stable.
  struct Registry {
    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<StreamEntry>, std::less<>> streams;
    /// Held by the periodic exporter across one tick's collect + deliver,
    /// and by Remove across drain + erase, so no OnMetrics delivery reaches
    /// a stream once Remove returns. Taken before `mu`, never after.
    std::mutex export_tick_mu;
  };

  StreamEntry* ResolveEntry(std::string_view name) const;

  /// Points a freshly registered entry at its telemetry domains (no-op when
  /// metrics are disabled). Called under the registry lock by
  /// CreateStream/Restore, after the entry's shard is pinned.
  void AttachMetrics(StreamEntry& entry);
  static Status NoSuchStream(std::string_view name) {
    return Status::NotFound("no stream named '" + std::string(name) + "'");
  }

  /// Submit-time health gate: the typed refusal for a stream that is not
  /// accepting mutations, or OK. Reads one atomic; no token is consumed
  /// and nothing is journaled for refused submissions.
  static Status HealthGate(const StreamEntry& entry);

  /// Hostile-input admission control: validates a batch against the
  /// entry's immutable schema copy (arity, coordinate range, finiteness)
  /// and counts a refusal in the stream's admission_rejects. Violations are
  /// kInvalidArgument and happen BEFORE a token is issued, so nothing is
  /// journaled. Chronology is apply-time (state-dependent).
  static Status ValidateAdmission(const StreamEntry& entry,
                                  std::span<const Tuple> tuples);

  /// Issues a ticket for `op(StreamEntry&, uint64_t seq) -> Status` and
  /// submits it to the stream's lane: enqueued on the owning shard, or run
  /// before returning on the caller lane. The only entry point that
  /// consumes sequence tokens; ops receive their token so they can journal
  /// write-ahead before applying. Honors BackpressurePolicy unless
  /// `force_block` — the synchronous mutation forms, whose callers
  /// self-throttle by waiting on the ticket anyway. A rejected submission
  /// (health gate / backpressure / deadline / shutdown) consumes no token
  /// and journals nothing, so tokens and journal records stay 1:1.
  template <typename Op>
  Ticket SubmitOp(
      StreamEntry& entry, Op op, bool force_block = false,
      std::optional<std::chrono::milliseconds> deadline = std::nullopt);

  /// The synchronous mutation forms: one ticketed ExecuteMutation, always
  /// blocking for room, waited on before returning. The span stays alive
  /// for the whole call, so the task captures it instead of a copy.
  Status ApplyNow(StreamEntry& entry, durability::JournalOpType op,
                  int64_t time, std::span<const Tuple> tuples);

  /// The body every ticketed mutation runs on the owning shard: health
  /// check, write-ahead journal append (with quarantine + auto-recovery on
  /// failure), then the handle operation itself.
  static Status ExecuteMutation(StreamEntry& entry, uint64_t sequence,
                                durability::JournalOpType op, int64_t time,
                                std::span<const Tuple> tuples);

  /// Write-ahead append of one ticketed operation to the stream's journal
  /// (no-op without one). Runs on the owning shard; an error means the op
  /// must not be applied.
  static Status AppendJournal(StreamEntry& entry, uint64_t sequence,
                              durability::JournalOpType op, int64_t time,
                              std::span<const Tuple> tuples);

  /// Quarantine + bounded-retry recovery after a failed append. Returns OK
  /// if the stream healed and the record was re-appended (the caller then
  /// applies the op normally); otherwise the terminal failure cause, with
  /// the stream left kFailed. Runs on the owning shard.
  static Status HandleAppendFailure(StreamEntry& entry, uint64_t sequence,
                                    durability::JournalOpType op,
                                    int64_t time,
                                    std::span<const Tuple> tuples,
                                    Status cause);

  /// One recovery attempt: rebuild from checkpoint + journal suffix,
  /// verify bitwise against live state, swap in, reopen the journal.
  static Status AttemptRecovery(StreamEntry& entry);

  /// Drives the health state machine: stores the cause, publishes the new
  /// state, and notifies the stream's sinks. Owning shard only.
  static void SetHealth(StreamEntry& entry, StreamHealth to,
                        const Status& cause, int attempt);

  /// Blocking request/reply hop: runs `fn(StreamHandle&) -> R` as a task
  /// on the stream's lane (the owning shard, or the caller lane) and
  /// returns R. Always blocks for mailbox room; once the executor is shut
  /// down (threads gone) `fn` runs directly on the caller.
  template <typename Fn>
  auto RunOnShard(StreamEntry& entry, Fn fn)
      -> std::invoke_result_t<Fn&, StreamHandle&>;

  /// Periodic exporter thread state (defined in the .cpp). Heap-allocated
  /// so the thread's captures stay valid across service moves.
  struct PeriodicExporter;

  /// Starts the exporter thread when metrics.export_interval_ms > 0.
  void StartExporter();
  /// Exchanges the whole state with `other` (moves are built on it).
  void Swap(SnsService& other);
  /// Stops and joins the exporter thread. Must run before the executor
  /// shuts down (the exporter submits OnMetrics delivery tasks).
  void StopExporter();

  ServiceOptions options_;
  std::unique_ptr<Registry> registry_;
  /// Metric domains; null when metrics are disabled. Heap-allocated so
  /// instrumentation pointers survive service moves. Declared before the
  /// executor, whose shards record into it.
  std::unique_ptr<telemetry::MetricsRegistry> metrics_;
  std::unique_ptr<ShardedExecutor> executor_;  // Never null.
  std::unique_ptr<PeriodicExporter> exporter_;  // Null without an interval.
};

// --- Template implementations -------------------------------------------

template <typename Op>
Ticket SnsService::SubmitOp(StreamEntry& entry, Op op, bool force_block,
                            std::optional<std::chrono::milliseconds> deadline) {
  {
    Status gate = HealthGate(entry);
    if (!gate.ok()) return Ticket::Completed(std::move(gate));
  }
  std::lock_guard<std::mutex> lock(entry.submit_mu);
  const uint64_t seq = entry.issued_seq + 1;
  std::optional<Mailbox::Deadline> absolute;
  if (deadline.has_value()) {
    absolute = std::chrono::steady_clock::now() + *deadline;
  }
  auto record = std::make_shared<internal::TicketRecord>(seq);
  StreamEntry* e = &entry;
  // Ingest-to-ticket latency: issue time is taken before the push, so the
  // recorded span covers any backpressure wait plus queueing delay plus the
  // apply itself — the latency an async producer actually experiences. On
  // the caller lane it is the apply alone.
  telemetry::LatencyHistogram* latency =
      entry.shard_metrics != nullptr
          ? &entry.shard_metrics->ingest_latency_ns
          : nullptr;
  const int64_t issued_ns =
      latency != nullptr ? telemetry::MonotonicNanos() : 0;
  const Mailbox::PushResult result = executor_->Submit(
      entry.shard,
      Task([e, record, latency, issued_ns, op = std::move(op)]() mutable {
        Status status = op(*e, record->sequence());
        e->applied_seq.store(record->sequence(), std::memory_order_release);
        if (latency != nullptr) {
          latency->Record(telemetry::MonotonicNanos() - issued_ns);
        }
        record->Complete(std::move(status));
      }),
      force_block || options_.backpressure == BackpressurePolicy::kBlock,
      absolute);
  switch (result) {
    case Mailbox::PushResult::kFull:
      return Ticket::Completed(Status::ResourceExhausted(
          "shard " + std::to_string(entry.shard) + " mailbox is full (depth " +
          std::to_string(options_.max_queue_depth) + ")"));
    case Mailbox::PushResult::kTimedOut:
      return Ticket::Completed(Status::DeadlineExceeded(
          "shard " + std::to_string(entry.shard) +
          " could not admit the operation before its deadline"));
    case Mailbox::PushResult::kClosed:
      return Ticket::Completed(
          Status::FailedPrecondition("service is shut down"));
    case Mailbox::PushResult::kOk:
      break;
  }
  entry.issued_seq = seq;
  return Ticket(std::move(record));
}

template <typename Fn>
auto SnsService::RunOnShard(StreamEntry& entry, Fn fn)
    -> std::invoke_result_t<Fn&, StreamHandle&> {
  using R = std::invoke_result_t<Fn&, StreamHandle&>;
  static_assert(!std::is_void_v<R>, "shard hops must return a value");
  std::optional<R> slot;
  auto done = std::make_shared<internal::TicketRecord>();
  StreamEntry* e = &entry;
  const Mailbox::PushResult result = executor_->Submit(
      entry.shard,
      Task([e, &slot, done, &fn] {
        slot.emplace(fn(*e->handle));
        done->Complete(Status::OK());
      }),
      /*block=*/true);
  if (result != Mailbox::PushResult::kOk) {
    // Shut down: the shard threads are joined, so direct access is safe.
    return fn(*entry.handle);
  }
  done->Wait();
  return std::move(*slot);
}

}  // namespace sns

#endif  // SLICENSTITCH_API_SNS_SERVICE_H_
