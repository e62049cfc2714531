#include "api/sns_service.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <thread>

#include "common/failpoint.h"
#include "common/serial.h"
#include "durability/checkpoint.h"
#include "durability/journal.h"
#include "telemetry/json_exporter.h"

namespace sns {

/// Frozen at EnableAutoRecovery time so a recovery attempt needs no locks
/// and no live journal writer to know where its durable truth lives.
struct SnsService::AutoRecoveryConfig {
  std::string checkpoint_path;
  std::string journal_directory;
  durability::JournalOptions journal_options;
  RecoveryPolicy policy;
};

SnsService::StreamEntry::StreamEntry() = default;
SnsService::StreamEntry::~StreamEntry() = default;

/// State shared between the service and its periodic exporter thread. Heap-
/// allocated so the thread's captures (and the pointers it holds into the
/// registry / metrics / executor heap objects) survive service moves.
struct SnsService::PeriodicExporter {
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;  // Guarded by mu.
  std::optional<telemetry::JsonLinesExporter> file;
};

// --- Health machine -------------------------------------------------------

Status SnsService::HealthGate(const StreamEntry& entry) {
  switch (entry.health.load(std::memory_order_acquire)) {
    case StreamHealth::kHealthy:
      return Status::OK();
    case StreamHealth::kQuarantined:
    case StreamHealth::kRecovering:
      return Status::Unavailable(
          "stream '" + entry.name +
          "' is quarantined pending recovery; retry after it heals");
    case StreamHealth::kFailed:
      return Status::DataLoss(
          "stream '" + entry.name +
          "' failed permanently after a journal append failure; rebuild it "
          "from a checkpoint");
  }
  return Status::Internal("stream health outside the StreamHealth enum");
}

void SnsService::SetHealth(StreamEntry& entry, StreamHealth to,
                           const Status& cause, int attempt) {
  const StreamHealth from = entry.health.load(std::memory_order_relaxed);
  if (!cause.ok()) {
    std::lock_guard<std::mutex> lock(entry.health_mu);
    entry.last_error = cause;
  }
  entry.health.store(to, std::memory_order_release);
  HealthTransition transition;
  transition.stream = entry.name;
  transition.from = from;
  transition.to = to;
  transition.attempt = attempt;
  transition.cause = cause;
  // Always called on the owning shard, so the handle (and its sink list)
  // is safe to touch even mid-recovery.
  entry.handle->NotifyHealthTransition(transition);
}

Status SnsService::AttemptRecovery(StreamEntry& entry) {
  const AutoRecoveryConfig& cfg = *entry.auto_recovery;
  // Release the wounded writer FIRST: its in-memory cursor no longer
  // matches the disk after a failed append, and replay's torn-tail repair
  // truncates the very segment it still holds open.
  entry.journal.reset();
  auto source = serial::FileSource::Open(cfg.checkpoint_path);
  if (!source.ok()) return source.status();
  auto recovered =
      durability::RecoverHandle(source.value(), cfg.journal_directory);
  if (!recovered.ok()) return recovered.status();
  durability::RecoveredHandle rebuilt = std::move(recovered).value();

  // Bitwise pin: the failed append left the live engine untouched, so the
  // durable state must reproduce it exactly — token for token, byte for
  // byte. A divergence means checkpoint + journal do not describe this
  // stream; adopting the rebuilt state would silently fork history.
  const uint64_t live_seq = entry.applied_seq.load(std::memory_order_acquire);
  if (rebuilt.report.last_sequence != live_seq) {
    return Status::Internal(
        "recovered state stops at token " +
        std::to_string(rebuilt.report.last_sequence) +
        " but the live stream applied token " + std::to_string(live_seq));
  }
  serial::StringSink live_bytes;
  {
    serial::Writer w(live_bytes);
    SNS_RETURN_IF_ERROR(entry.handle->SerializeState(w));
  }
  serial::StringSink rebuilt_bytes;
  {
    serial::Writer w(rebuilt_bytes);
    SNS_RETURN_IF_ERROR(rebuilt.handle.SerializeState(w));
  }
  if (live_bytes.data() != rebuilt_bytes.data()) {
    return Status::Internal(
        "recovered stream state diverges bitwise from the live state");
  }
  // Adopt the rebuilt stream (it IS the durable truth) and carry the live
  // subscriptions over — sinks are process wiring, not stream state. The
  // entry's handle allocation stays stable, so raw pointers survive.
  rebuilt.handle.MoveSinksFrom(*entry.handle);
  *entry.handle = std::move(rebuilt.handle);
  // Fresh writer LAST: replay repaired any torn tail, and a new writer
  // always opens a fresh segment after the highest on disk.
  auto writer = durability::JournalWriter::Open(cfg.journal_directory,
                                                cfg.journal_options);
  if (!writer.ok()) return writer.status();
  entry.journal = std::move(writer).value();
  return Status::OK();
}

Status SnsService::HandleAppendFailure(StreamEntry& entry, uint64_t sequence,
                                       durability::JournalOpType op,
                                       int64_t time,
                                       std::span<const Tuple> tuples,
                                       Status cause) {
  entry.quarantine_count.fetch_add(1, std::memory_order_relaxed);
  if (entry.stream_metrics != nullptr) {
    entry.stream_metrics->quarantines.Add(1);
  }
  SetHealth(entry, StreamHealth::kQuarantined, cause, 0);
  if (entry.auto_recovery == nullptr) {
    // No recovery configured: the quarantine is terminal. The writer's
    // on-disk state is unknown (a partial record may sit at its tail), so
    // no further append may ever touch this journal.
    SetHealth(entry, StreamHealth::kFailed, cause, 0);
    return cause;
  }
  const RecoveryPolicy& policy = entry.auto_recovery->policy;
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    entry.recovery_attempts.fetch_add(1, std::memory_order_relaxed);
    SetHealth(entry, StreamHealth::kRecovering, cause, attempt);
    const int64_t backoff_ms = policy.BackoffMs(attempt);
    if (policy.sleep_fn) {
      policy.sleep_fn(backoff_ms);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    Status attempt_status = AttemptRecovery(entry);
    if (attempt_status.ok()) {
      // The stream is rebuilt and the journal reopened; retry this op's
      // write-ahead append. Success heals the stream and the failure stays
      // invisible to the caller — the op applies normally.
      attempt_status = AppendJournal(entry, sequence, op, time, tuples);
      if (attempt_status.ok()) {
        entry.recoveries_completed.fetch_add(1, std::memory_order_relaxed);
        if (entry.stream_metrics != nullptr) {
          entry.stream_metrics->recoveries.Add(1);
        }
        SetHealth(entry, StreamHealth::kHealthy, Status::OK(), attempt);
        return Status::OK();
      }
    }
    cause = std::move(attempt_status);
    SetHealth(entry, StreamHealth::kQuarantined, cause, attempt);
  }
  SetHealth(entry, StreamHealth::kFailed, cause, policy.max_attempts);
  return cause;
}

Status SnsService::ExecuteMutation(StreamEntry& entry, uint64_t sequence,
                                   durability::JournalOpType op, int64_t time,
                                   std::span<const Tuple> tuples) {
  // Ops queued behind an exhausted recovery still hold tokens; refusing
  // them here — journaling nothing, applying nothing — simply ends the
  // journal at the last healthy token, gap-free.
  if (entry.health.load(std::memory_order_acquire) == StreamHealth::kFailed) {
    return HealthGate(entry);
  }
  telemetry::StreamMetrics* metrics = entry.stream_metrics;
  Status append;
  if (metrics != nullptr && entry.journal != nullptr) {
    // Byte/rotation deltas bracket only this direct append — a recovery in
    // HandleAppendFailure swaps in a fresh writer whose cursors restart.
    const int64_t bytes_before = entry.journal->bytes_appended();
    const int64_t segments_before = entry.journal->segments_opened();
    const int64_t start_ns = telemetry::MonotonicNanos();
    append = AppendJournal(entry, sequence, op, time, tuples);
    metrics->journal_append_ns.Record(telemetry::MonotonicNanos() - start_ns);
    if (append.ok()) {
      metrics->journal_appends.Add(1);
      metrics->journal_bytes.Add(static_cast<uint64_t>(
          entry.journal->bytes_appended() - bytes_before));
      metrics->journal_rotations.Add(static_cast<uint64_t>(
          entry.journal->segments_opened() - segments_before));
    }
  } else {
    append = AppendJournal(entry, sequence, op, time, tuples);
  }
  if (!append.ok()) {
    append = HandleAppendFailure(entry, sequence, op, time, tuples,
                                 std::move(append));
  }
  if (!append.ok()) return append;
  // Streams on a generalized loss or robust mode get their apply cost and
  // outlier traffic attributed per stream: the outlier counters are diffed
  // around the apply (the handle's tallies are monotone), and the wall time
  // lands in loss_update_ns next to the shard-wide apply_ns.
  const bool track_loss =
      metrics != nullptr && entry.handle->UsesExtendedState();
  const uint64_t captures_before =
      track_loss ? entry.handle->OutlierCaptures() : 0;
  const uint64_t evictions_before =
      track_loss ? entry.handle->OutlierEvictions() : 0;
  const int64_t loss_start_ns = track_loss ? telemetry::MonotonicNanos() : 0;
  Status applied;
  switch (op) {
    case durability::JournalOpType::kWarmup:
      applied = entry.handle->Warmup(tuples);
      break;
    case durability::JournalOpType::kInitialize:
      applied = entry.handle->Initialize();
      break;
    case durability::JournalOpType::kIngest:
      applied = entry.handle->Ingest(tuples);
      break;
    case durability::JournalOpType::kAdvanceTo:
      applied = entry.handle->AdvanceTo(time);
      break;
    default:
      return Status::Internal("journal op outside the JournalOpType enum");
  }
  if (track_loss) {
    metrics->loss_update_ns.Record(telemetry::MonotonicNanos() -
                                   loss_start_ns);
    metrics->outlier_captures.Add(entry.handle->OutlierCaptures() -
                                  captures_before);
    metrics->outlier_evictions.Add(entry.handle->OutlierEvictions() -
                                   evictions_before);
  }
  if (metrics != nullptr && applied.ok()) {
    metrics->batches_applied.Add(1);
    if (!tuples.empty()) metrics->tuples_ingested.Add(tuples.size());
  }
  return applied;
}

Status SnsService::AppendJournal(StreamEntry& entry, uint64_t sequence,
                                 durability::JournalOpType op, int64_t time,
                                 std::span<const Tuple> tuples) {
  if (entry.journal == nullptr) return Status::OK();
  return entry.journal->Append(sequence, op, time, tuples);
}

Status SnsService::ValidateAdmission(const StreamEntry& entry,
                                     std::span<const Tuple> tuples) {
  // Validated against the entry's immutable schema copy — never the handle,
  // which the owning shard may be rebuilding — so admission is safe from
  // any producer thread. Whole-batch: a refused batch changes nothing.
  Status status = internal::CheckTupleSchema(tuples, entry.mode_dims);
  if (!status.ok() && entry.stream_metrics != nullptr) {
    entry.stream_metrics->admission_rejects.Add(1);
  }
  return status;
}

// --- Construction / moves -------------------------------------------------

SnsService::SnsService() : SnsService(ServiceOptions()) {}

SnsService::SnsService(const ServiceOptions& options)
    : options_(options), registry_(std::make_unique<Registry>()) {
  const Status valid = options_.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "SnsService: %s\n", valid.ToString().c_str());
    SNS_CHECK(valid.ok());
  }
  if (options_.metrics.enabled) {
    // One shard domain per executor lane (the caller lane records into
    // domain 0). Allocated before the executor so shard threads can record
    // from their first task.
    metrics_ = std::make_unique<telemetry::MetricsRegistry>(
        std::max(1, options_.shards));
  }
  executor_ = std::make_unique<ShardedExecutor>(
      options_.shards, options_.max_queue_depth, metrics_.get());
  StartExporter();
}

StatusOr<SnsService> SnsService::Create(const ServiceOptions& options) {
  SNS_RETURN_IF_ERROR(options.Validate());
  return SnsService(options);
}

// The exporter thread and all instrumentation sites hold raw pointers into
// the registry / metrics / executor heap objects, which swapping the
// unique_ptrs transfers without relocating — so a running exporter thread
// keeps running across a move untouched.
void SnsService::Swap(SnsService& other) {
  std::swap(options_, other.options_);
  std::swap(registry_, other.registry_);
  std::swap(metrics_, other.metrics_);
  std::swap(executor_, other.executor_);
  std::swap(exporter_, other.exporter_);
}

// `other` is left holding the fresh empty caller-lane service built here.
SnsService::SnsService(SnsService&& other) : SnsService() { Swap(other); }

SnsService& SnsService::operator=(SnsService&& other) {
  if (this != &other) {
    // Our old state leaves through `taken`, whose destructor stops its
    // exporter and joins its shards before its registry dies.
    SnsService taken(std::move(other));
    Swap(taken);
  }
  return *this;
}

SnsService::~SnsService() {
  // Exporter first (it submits to the executor), then flush and join the
  // shard threads while every stream handle is still alive; only then may
  // the registry (and the handles in it) die.
  StopExporter();
  executor_->Shutdown();
}

// --- Pool management ------------------------------------------------------

StatusOr<StreamHandle*> SnsService::CreateStream(
    std::string name, std::vector<int64_t> mode_dims,
    const ContinuousCpdOptions& options) {
  {
    // Cheap duplicate check before the (expensive) engine build; the
    // post-build re-check below closes the unlock window.
    std::lock_guard<std::mutex> lock(registry_->mu);
    if (registry_->streams.find(name) != registry_->streams.end()) {
      return Status::FailedPrecondition("stream '" + name +
                                        "' already exists");
    }
  }
  auto handle = StreamHandle::Create(name, std::move(mode_dims), options);
  if (!handle.ok()) return handle.status();
  std::lock_guard<std::mutex> lock(registry_->mu);
  if (registry_->streams.find(name) != registry_->streams.end()) {
    return Status::FailedPrecondition("stream '" + name +
                                      "' already exists");
  }
  auto entry = std::make_unique<StreamEntry>();
  entry->handle = std::make_unique<StreamHandle>(std::move(handle).value());
  entry->name = entry->handle->name();
  entry->mode_dims = entry->handle->mode_dims();
  entry->shard = executor_->AssignShard();
  AttachMetrics(*entry);
  StreamHandle* raw = entry->handle.get();
  registry_->streams.emplace(std::move(name), std::move(entry));
  return raw;
}

void SnsService::AttachMetrics(StreamEntry& entry) {
  if (metrics_ == nullptr) return;
  entry.shard_metrics = &metrics_->shard(entry.shard);
  entry.stream_metrics = metrics_->RegisterStream(entry.name, entry.shard);
}

SnsService::StreamEntry* SnsService::ResolveEntry(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(registry_->mu);
  auto it = registry_->streams.find(name);
  return it == registry_->streams.end() ? nullptr : it->second.get();
}

StreamHandle* SnsService::Find(std::string_view name) {
  StreamEntry* entry = ResolveEntry(name);
  return entry == nullptr ? nullptr : entry->handle.get();
}

const StreamHandle* SnsService::Find(std::string_view name) const {
  StreamEntry* entry = ResolveEntry(name);
  return entry == nullptr ? nullptr : entry->handle.get();
}

Status SnsService::Remove(std::string_view name) {
  // Under the exporter's tick lock no OnMetrics delivery for this stream is
  // in flight or can be issued until the erase, and concurrent Removes are
  // serialized, so the entry resolved here stays valid until erased.
  std::lock_guard<std::mutex> tick(registry_->export_tick_mu);
  StreamEntry* entry = ResolveEntry(name);
  if (entry == nullptr) return NoSuchStream(name);
  // Flush the owning shard so no in-flight task still references the
  // handle we are about to destroy. (Submissions racing with Remove are a
  // caller error — see the class comment.)
  executor_->DrainShard(entry->shard);
  std::lock_guard<std::mutex> lock(registry_->mu);
  registry_->streams.erase(registry_->streams.find(name));
  return Status::OK();
}

std::vector<std::string> SnsService::StreamNames() const {
  std::lock_guard<std::mutex> lock(registry_->mu);
  std::vector<std::string> names;
  names.reserve(registry_->streams.size());
  for (const auto& [name, entry] : registry_->streams) {
    names.push_back(name);
  }
  return names;
}

int64_t SnsService::stream_count() const {
  std::lock_guard<std::mutex> lock(registry_->mu);
  return static_cast<int64_t>(registry_->streams.size());
}

// --- Asynchronous ingestion -----------------------------------------------

Ticket SnsService::IngestAsync(std::string_view stream,
                               std::span<const Tuple> tuples,
                               std::optional<std::chrono::milliseconds> deadline) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return Ticket::Completed(NoSuchStream(stream));
  Status admit = ValidateAdmission(*entry, tuples);
  if (!admit.ok()) return Ticket::Completed(std::move(admit));
  return SubmitOp(
      *entry,
      [batch = std::vector<Tuple>(tuples.begin(), tuples.end())](
          StreamEntry& e, uint64_t seq) {
        return ExecuteMutation(e, seq, durability::JournalOpType::kIngest, 0,
                               batch);
      },
      /*force_block=*/false, deadline);
}

Ticket SnsService::AdvanceToAsync(std::string_view stream, int64_t time,
                                  std::optional<std::chrono::milliseconds> deadline) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return Ticket::Completed(NoSuchStream(stream));
  return SubmitOp(
      *entry,
      [time](StreamEntry& e, uint64_t seq) {
        return ExecuteMutation(e, seq, durability::JournalOpType::kAdvanceTo,
                               time, {});
      },
      /*force_block=*/false, deadline);
}

// --- Synchronous routed ingestion -----------------------------------------

Status SnsService::ApplyNow(StreamEntry& entry, durability::JournalOpType op,
                            int64_t time, std::span<const Tuple> tuples) {
  return SubmitOp(
             entry,
             [op, time, tuples](StreamEntry& e, uint64_t seq) {
               return ExecuteMutation(e, seq, op, time, tuples);
             },
             /*force_block=*/true)
      .Wait();
}

Status SnsService::Warmup(std::string_view stream,
                          std::span<const Tuple> tuples) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  SNS_RETURN_IF_ERROR(ValidateAdmission(*entry, tuples));
  return ApplyNow(*entry, durability::JournalOpType::kWarmup, 0, tuples);
}

Status SnsService::Initialize(std::string_view stream) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  return ApplyNow(*entry, durability::JournalOpType::kInitialize, 0, {});
}

Status SnsService::Ingest(std::string_view stream,
                          std::span<const Tuple> tuples) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  SNS_RETURN_IF_ERROR(ValidateAdmission(*entry, tuples));
  return ApplyNow(*entry, durability::JournalOpType::kIngest, 0, tuples);
}

Status SnsService::Ingest(std::string_view stream, const Tuple& tuple) {
  return Ingest(stream, std::span<const Tuple>(&tuple, 1));
}

Status SnsService::AdvanceTo(std::string_view stream, int64_t time) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  return ApplyNow(*entry, durability::JournalOpType::kAdvanceTo, time, {});
}

Status SnsService::AdvanceAllTo(int64_t time) {
  std::vector<StreamEntry*> entries;
  {
    std::lock_guard<std::mutex> lock(registry_->mu);
    entries.reserve(registry_->streams.size());
    for (const auto& [name, entry] : registry_->streams) {
      entries.push_back(entry.get());
    }
  }
  Status first_error;
  for (StreamEntry* entry : entries) {
    // Streams that never saw input are left untouched — advancing their
    // clock would forbid warming them up with earlier tuples later — and
    // streams ahead of the horizon are skipped. The decision happens in a
    // query hop BEFORE any ticket is issued: skipped streams must consume
    // no sequence token, or their journals would carry a record-less token
    // (an undetectable replay gap). Racing submissions are a caller error
    // (see the class comment), so the two hops observe a stable clock.
    const StreamStats stats = RunOnShard(
        *entry, [](StreamHandle& handle) { return handle.Stats(); });
    if (!stats.has_ingested || stats.last_time > time) continue;
    const Status status =
        ApplyNow(*entry, durability::JournalOpType::kAdvanceTo, time, {});
    // The horizon guard above rules out engine-side failures, but the
    // write-ahead journal append can still fail (disk full, quarantined or
    // failed stream): surface the first such error after attempting every
    // stream. The typed shutdown refusal degrades to a no-op.
    if (!status.ok() &&
        status.code() != StatusCode::kFailedPrecondition &&
        first_error.ok()) {
      first_error = status;
    }
  }
  return first_error;
}

// --- Sequence-consistent queries ------------------------------------------

StatusOr<double> SnsService::Reconstruct(std::string_view stream,
                                         const ModeIndex& window_cell) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  return RunOnShard(*entry, [&window_cell](StreamHandle& handle) {
    return handle.Reconstruct(window_cell);
  });
}

StatusOr<std::vector<TopEntry>> SnsService::TopK(std::string_view stream,
                                                 int mode, int k) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  return RunOnShard(*entry, [mode, k](StreamHandle& handle) {
    return handle.TopK(mode, k);
  });
}

StatusOr<std::vector<double>> SnsService::ComponentActivity(
    std::string_view stream) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  return RunOnShard(*entry, [](StreamHandle& handle) {
    return handle.ComponentActivity();
  });
}

StatusOr<std::vector<TopEntry>> SnsService::OutlierActivity(
    std::string_view stream, int mode, int k) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  return RunOnShard(*entry, [mode, k](StreamHandle& handle) {
    return handle.OutlierActivity(mode, k);
  });
}

StatusOr<double> SnsService::RunningFitness(std::string_view stream) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  return RunOnShard(*entry, [](StreamHandle& handle) {
    return handle.RunningFitness();
  });
}

StatusOr<StreamStats> SnsService::Stats(std::string_view stream) {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  return RunOnShard(*entry,
                    [](StreamHandle& handle) { return handle.Stats(); });
}

StatusOr<uint64_t> SnsService::AppliedSequence(
    std::string_view stream) const {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  return entry->applied_seq.load(std::memory_order_acquire);
}

// --- Telemetry ------------------------------------------------------------

StatusOr<telemetry::ServiceMetricsSnapshot> SnsService::Metrics() {
  if (metrics_ == nullptr) {
    return Status::FailedPrecondition(
        "metrics are disabled; create the service with "
        "ServiceOptions::metrics.enabled");
  }
  if (!executor_->shut_down()) {
    // Sequence barrier: one blocking no-op task per shard. Each shard's
    // mailbox is FIFO, so once the barrier runs, every operation issued to
    // that shard before this call has been applied — the same consistency
    // the typed queries give, without stalling the other shards behind a
    // full Drain. A kClosed push (shutdown racing in) degrades gracefully:
    // the shard is quiescing anyway. The caller lane has no shard and
    // needs no barrier: its operations applied before their calls returned.
    std::vector<std::shared_ptr<internal::TicketRecord>> barriers;
    barriers.reserve(static_cast<size_t>(executor_->num_shards()));
    for (int shard = 0; shard < executor_->num_shards(); ++shard) {
      auto done = std::make_shared<internal::TicketRecord>();
      const Mailbox::PushResult result = executor_->Submit(
          shard, Task([done] { done->Complete(Status::OK()); }),
          /*block=*/true);
      if (result == Mailbox::PushResult::kOk) {
        barriers.push_back(std::move(done));
      }
    }
    for (const auto& barrier : barriers) barrier->Wait();
  }
  return metrics_->Snapshot();
}

void SnsService::StartExporter() {
  if (options_.metrics.export_interval_ms <= 0) return;
  exporter_ = std::make_unique<PeriodicExporter>();
  PeriodicExporter* state = exporter_.get();
  if (!options_.metrics.json_path.empty()) {
    auto file = telemetry::JsonLinesExporter::Open(options_.metrics.json_path);
    if (file.ok()) {
      state->file.emplace(std::move(file).value());
    } else {
      // A capture file that cannot open degrades to event-only export; the
      // service itself stays healthy.
      std::fprintf(stderr, "SnsService: metrics capture disabled: %s\n",
                   file.status().ToString().c_str());
    }
  }
  // Raw pointers into heap objects the service's unique_ptrs own: stable
  // across service moves; StopExporter joins this thread before any of the
  // pointees can die.
  Registry* registry = registry_.get();
  telemetry::MetricsRegistry* metrics = metrics_.get();
  ShardedExecutor* executor = executor_.get();
  const auto interval =
      std::chrono::milliseconds(options_.metrics.export_interval_ms);
  state->thread = std::thread([state, registry, metrics, executor, interval] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(state->mu);
        state->cv.wait_for(lock, interval, [state] { return state->stop; });
        if (state->stop) break;
      }
      telemetry::ServiceMetricsSnapshot snapshot = metrics->Snapshot();
      if (state->file.has_value()) {
        const Status io = state->file->Append(snapshot);
        if (!io.ok()) {
          std::fprintf(stderr, "SnsService: metrics capture stopped: %s\n",
                       io.ToString().c_str());
          state->file.reset();
        }
      }
      // Per-stream OnMetrics delivery on the stream's lane: the owning
      // shard, or the exporter thread itself on the caller lane (documented
      // in EventSink::OnMetrics). Non-blocking push: a shard under
      // backpressure simply skips this tick rather than wedging the
      // exporter (the next interval retries). kClosed means shutdown is
      // racing in — drop likewise. The tick lock keeps Remove from
      // destroying a stream between collection and delivery.
      struct Delivery {
        StreamHandle* handle;
        int shard;
        const telemetry::StreamMetricsSnapshot* sample;
      };
      std::vector<Delivery> deliveries;
      std::lock_guard<std::mutex> tick(registry->export_tick_mu);
      {
        std::lock_guard<std::mutex> lock(registry->mu);
        for (const telemetry::StreamMetricsSnapshot& sample :
             snapshot.streams) {
          auto it = registry->streams.find(sample.name);
          if (it == registry->streams.end()) continue;  // Removed stream.
          deliveries.push_back(
              {it->second->handle.get(), it->second->shard, &sample});
        }
      }
      for (const Delivery& delivery : deliveries) {
        StreamHandle* handle = delivery.handle;
        (void)executor->Submit(delivery.shard,
                               Task([handle, sample = *delivery.sample] {
                                 handle->NotifyMetrics(sample);
                               }),
                               /*block=*/false);
      }
    }
  });
}

void SnsService::StopExporter() {
  if (exporter_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(exporter_->mu);
    exporter_->stop = true;
  }
  exporter_->cv.notify_all();
  if (exporter_->thread.joinable()) exporter_->thread.join();
  if (exporter_->file.has_value()) {
    const Status io = exporter_->file->Close();
    if (!io.ok()) {
      std::fprintf(stderr, "SnsService: metrics capture close: %s\n",
                   io.ToString().c_str());
    }
  }
  exporter_.reset();
}

// --- Supervision ----------------------------------------------------------

StatusOr<StreamHealthInfo> SnsService::Health(std::string_view stream) const {
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  StreamHealthInfo info;
  info.health = entry->health.load(std::memory_order_acquire);
  info.quarantine_count =
      entry->quarantine_count.load(std::memory_order_relaxed);
  info.recovery_attempts =
      entry->recovery_attempts.load(std::memory_order_relaxed);
  info.recoveries_completed =
      entry->recoveries_completed.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(entry->health_mu);
    info.last_error = entry->last_error;
  }
  return info;
}

Status SnsService::EnableAutoRecovery(std::string_view stream,
                                      const std::string& checkpoint_path,
                                      const RecoveryPolicy& policy) {
  if (executor_->shut_down()) {
    return Status::FailedPrecondition("service is shut down");
  }
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  if (policy.max_attempts < 1) {
    return Status::InvalidArgument(
        "RecoveryPolicy::max_attempts must be >= 1, got " +
        std::to_string(policy.max_attempts));
  }
  if (entry->journal == nullptr) {
    return Status::FailedPrecondition(
        "stream '" + std::string(stream) +
        "' has no journal; auto-recovery replays checkpoint + journal "
        "(EnableJournal first)");
  }
  {
    // Fail fast on a misconfigured path — a recovery that cannot even open
    // its checkpoint should be caught here, not mid-incident.
    auto probe = serial::FileSource::Open(checkpoint_path);
    if (!probe.ok()) return probe.status();
  }
  // Quiesce the owning shard so the config attaches at a sequence point.
  executor_->DrainShard(entry->shard);
  auto cfg = std::make_unique<AutoRecoveryConfig>();
  cfg->checkpoint_path = checkpoint_path;
  cfg->journal_directory = entry->journal->directory();
  cfg->journal_options = entry->journal->options();
  cfg->policy = policy;
  entry->auto_recovery = std::move(cfg);
  return Status::OK();
}

// --- Durability -----------------------------------------------------------

Status SnsService::Checkpoint(std::string_view stream,
                              serial::ByteSink& sink) {
  if (executor_->shut_down()) {
    return Status::FailedPrecondition(
        "service is shut down; checkpoint streams before Shutdown");
  }
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  StreamEntry* e = entry;
  // The hop rides the owning shard's FIFO mailbox, so by the time it runs,
  // exactly the mutations enqueued before this call have been applied —
  // applied_seq read on the shard IS the checkpoint's sequence point.
  return RunOnShard(*entry, [e, &sink](StreamHandle& handle) {
    return durability::WriteStreamCheckpoint(
        handle, e->applied_seq.load(std::memory_order_acquire), sink);
  });
}

Status SnsService::CheckpointToFile(std::string_view stream,
                                    const std::string& path) {
  StreamEntry* entry = ResolveEntry(stream);
  telemetry::StreamMetrics* metrics =
      entry != nullptr ? entry->stream_metrics : nullptr;
  const int64_t start_ns =
      metrics != nullptr ? telemetry::MonotonicNanos() : 0;
  serial::StringSink envelope;
  SNS_RETURN_IF_ERROR(Checkpoint(stream, envelope));
  // Write-to-temporary + rename: a failure anywhere before the rename
  // leaves the previous checkpoint at `path` untouched — the invariant
  // auto-recovery depends on.
  const std::string tmp = path + ".tmp";
  auto sink = serial::FileSink::Open(tmp);
  if (!sink.ok()) return sink.status();
  Status io = sink.value().Write(envelope.data().data(),
                                 envelope.data().size());
  if (io.ok()) io = sink.value().Flush(/*sync_to_disk=*/true);
  if (io.ok()) io = sink.value().Close();
  if (io.ok() && SNS_FAILPOINT("checkpoint.rename")) {
    io = failpoint::InjectedFailure("checkpoint.rename");
  }
  if (io.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    io = Status::IOError("failed to rename checkpoint '" + tmp +
                         "' over '" + path + "'");
  }
  if (!io.ok()) {
    std::remove(tmp.c_str());
    return io;
  }
  if (metrics != nullptr) {
    // The recorded span covers the whole durable write: serialize (shard
    // hop included), temp-file write, fsync, rename.
    metrics->checkpoint_writes.Add(1);
    metrics->checkpoint_bytes.Add(envelope.data().size());
    metrics->checkpoint_write_ns.Record(telemetry::MonotonicNanos() -
                                        start_ns);
  }
  return Status::OK();
}

StatusOr<StreamHandle*> SnsService::Restore(serial::ByteSource& source) {
  if (executor_->shut_down()) {
    return Status::FailedPrecondition("service is shut down");
  }
  auto restored = durability::ReadStreamCheckpoint(source);
  if (!restored.ok()) return restored.status();
  const uint64_t sequence = restored.value().sequence;
  std::string name = restored.value().handle.name();
  std::lock_guard<std::mutex> lock(registry_->mu);
  if (registry_->streams.find(name) != registry_->streams.end()) {
    return Status::FailedPrecondition("stream '" + name +
                                      "' already exists");
  }
  auto entry = std::make_unique<StreamEntry>();
  entry->handle = std::make_unique<StreamHandle>(
      std::move(restored).value().handle);
  entry->name = entry->handle->name();
  entry->mode_dims = entry->handle->mode_dims();
  entry->shard = executor_->AssignShard();
  AttachMetrics(*entry);
  entry->issued_seq = sequence;
  entry->applied_seq.store(sequence, std::memory_order_release);
  StreamHandle* raw = entry->handle.get();
  registry_->streams.emplace(std::move(name), std::move(entry));
  return raw;
}

Status SnsService::EnableJournal(std::string_view stream,
                                 const std::string& directory) {
  return EnableJournal(stream, directory, durability::JournalOptions());
}

Status SnsService::EnableJournal(std::string_view stream,
                                 const std::string& directory,
                                 const durability::JournalOptions& options) {
  if (executor_->shut_down()) {
    return Status::FailedPrecondition("service is shut down");
  }
  StreamEntry* entry = ResolveEntry(stream);
  if (entry == nullptr) return NoSuchStream(stream);
  if (entry->journal != nullptr) {
    return Status::FailedPrecondition(
        "stream '" + std::string(stream) + "' already journals to '" +
        entry->journal->directory() + "'");
  }
  if (entry->health.load(std::memory_order_acquire) !=
      StreamHealth::kHealthy) {
    return Status::FailedPrecondition(
        "stream '" + std::string(stream) +
        "' is not healthy; rebuild it from a checkpoint before attaching a "
        "journal");
  }
  auto writer = durability::JournalWriter::Open(directory, options);
  if (!writer.ok()) return writer.status();
  // Quiesce the owning shard so the journal attaches at a sequence point:
  // every in-flight ticket lands un-journaled (covered by the caller's
  // checkpoint), every later one is journaled.
  executor_->DrainShard(entry->shard);
  entry->journal = std::move(writer).value();
  return Status::OK();
}

// --- Runtime lifecycle ----------------------------------------------------

void SnsService::Drain() { executor_->Drain(); }

void SnsService::Shutdown() {
  // The exporter submits OnMetrics tasks; stop it before the executor it
  // submits to goes away.
  StopExporter();
  executor_->Shutdown();
}

}  // namespace sns
