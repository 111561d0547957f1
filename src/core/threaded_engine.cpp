#include "core/threaded_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/logging.h"
#include "core/sync_bits.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracer.h"

namespace aiacc::core {
namespace {

// Tag layout (collective/tags.h is the single source of truth): heartbeats
// own tag 0, sync rounds use the low namespace, and each all-reduce unit
// gets its own channel derived from its (rank-agreed) unit id.
using collective::kHeartbeatTag;
using collective::kSyncTag;
using collective::kUnitRetryEpochs;
using collective::UnitEpochTagBase;

// Degradation-level agreement rides the sync round's bitwise-AND all-reduce
// as one extra payload word: a rank's local level proposal is encoded as a
// unary mask — all-ones with the `level` low bits cleared — so ANDing the
// masks across ranks clears every bit any rank cleared, and the result is
// exactly the mask of the *maximum* proposed level. Every rank decodes the
// same agreed level at the same round, which is what makes it safe to stamp
// into that round's units as a cross-rank pipeline depth. (kBitAnd routes
// arbitrary 32-bit patterns — including the all-ones NaN — bit-exactly.)
float LevelMask(int level) {
  return std::bit_cast<float>(~std::uint32_t{0} << level);
}

int LevelFromMask(float lane) {
  const auto mask = std::bit_cast<std::uint32_t>(lane);
  return mask == 0 ? 31 : std::countr_zero(mask);
}

// The tracing layer's options when message tracing is on. trace_messages:
// -1 auto (stamp iff the tracer records flow-level events right now), 0 off,
// 1 forced on.
std::optional<transport::TracingOptions> TracingFor(
    const FailureConfig& failure) {
  const bool stamp_messages =
      failure.trace_messages > 0 ||
      (failure.trace_messages < 0 &&
       telemetry::RuntimeTracer::Global().enabled(
           telemetry::TraceLevel::kPhase));
  if (!stamp_messages) return std::nullopt;
  transport::TracingOptions options;
  options.rank_skew_ns = failure.trace_rank_skew_ns;
  return options;
}

std::string RankList(const std::vector<int>& ranks) {
  std::string out;
  for (int r : ranks) {
    if (!out.empty()) out += ",";
    out += std::to_string(r);
  }
  return out;
}

}  // namespace

ThreadedAiaccEngine::ThreadedAiaccEngine(int world_size, CommConfig config,
                                         FailureConfig failure)
    : world_size_(world_size),
      config_(config),
      failure_(std::move(failure)),
      metrics_dump_period_ms_(telemetry::MetricsDumpPeriodMs()),
      stack_(world_size, failure_.faults,
             failure_.reliable_transport
                 ? std::optional(failure_.reliable_options)
                 : std::nullopt,
             TracingFor(failure_)),
      degradation_(failure_.degradation) {
  AIACC_CHECK(world_size >= 1);
  AIACC_CHECK(config_.num_streams >= 1);
  unit_retries_ = &metrics_.GetCounter("engine.unit_retries");
  degradation_.BindTelemetry(&metrics_.GetGauge("engine.degradation_level"),
                             &metrics_.GetCounter("engine.degradations"),
                             &metrics_.GetCounter("engine.restorations"));
  // One long-lived task per service loop: each rank runs an MPI process and
  // `num_streams` communication streams, plus a heartbeat when detection is
  // on and a metrics dumper when periodic dumping is configured. The pool
  // is sized for all of them at once (they block on each other across
  // ranks, so none may wait for a free worker).
  const std::size_t service_tasks =
      static_cast<std::size_t>(world_size) *
          (1 + static_cast<std::size_t>(config_.num_streams)) +
      (failure_.detect_failures && world_size > 1
           ? static_cast<std::size_t>(world_size)
           : 0) +
      (metrics_dump_period_ms_ > 0 ? 1 : 0);
  service_pool_ = std::make_unique<ThreadPool>(service_tasks);
  if (metrics_dump_period_ms_ > 0) {
    service_pool_->Submit([this] { MetricsDumpLoop(); });
  }
  workers_.reserve(static_cast<std::size_t>(world_size));
  ranks_.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    workers_.emplace_back(new Worker(this, r));
    auto state = std::make_unique<RankState>();
    state->queue = std::make_unique<BoundedQueue<int>>(4096);
    // num_gradients is unknown until Finalize; BindGradientCount fixes the
    // urgent cutoff there, before any service loop can push a unit.
    state->scheduler = std::make_unique<ReadySetScheduler>(SchedulerPolicy{
        config_.priority_urgent_fraction, config_.priority_aging_ms, 0});
    ranks_.push_back(std::move(state));
  }
}

ThreadedAiaccEngine::Worker::Worker(ThreadedAiaccEngine* engine, int rank)
    : engine_(engine), rank_(rank) {
  telemetry::MetricsRegistry& m = engine_->metrics_;
  sync_rounds_ =
      &m.GetCounter(telemetry::RankScoped("engine.sync_rounds", rank));
  sync_payload_floats_ =
      &m.GetCounter(telemetry::RankScoped("engine.sync_payload_floats", rank));
  units_reduced_ =
      &m.GetCounter(telemetry::RankScoped("engine.units_reduced", rank));
  bytes_reduced_ =
      &m.GetCounter(telemetry::RankScoped("engine.bytes_reduced", rank));
  iterations_ =
      &m.GetCounter(telemetry::RankScoped("engine.iterations", rank));
  // 1us .. ~0.5s exponential edges: unit latency spans queue wait + ring
  // all-reduce + scatter.
  unit_latency_ =
      &m.GetHistogram(telemetry::RankScoped("engine.unit_latency_s", rank),
                      telemetry::ExponentialBounds(1e-6, 20));
}

ThreadedAiaccEngine::RankStats ThreadedAiaccEngine::Worker::stats()
    const noexcept {
  RankStats s;
  s.sync_rounds = sync_rounds_->Value();
  s.units_reduced = units_reduced_->Value();
  s.bytes_reduced = bytes_reduced_->Value();
  s.iterations = iterations_->Value();
  return s;
}

void ThreadedAiaccEngine::MetricsDumpLoop() {
  SetThreadLogContext(-1, "metrics-dump");
  const std::string dest = telemetry::GlobalEnvOptions().metrics_dump.empty()
                               ? "stderr"
                               : telemetry::GlobalEnvOptions().metrics_dump;
  using Clock = std::chrono::steady_clock;
  const auto period = std::chrono::milliseconds(metrics_dump_period_ms_);
  auto next_dump = Clock::now() + period;
  while (!shutdown_.load(std::memory_order_acquire) &&
         !aborted_.load(std::memory_order_acquire)) {
    // Sleep in short slices so engine teardown never waits a full period.
    const auto now = Clock::now();
    if (now < next_dump) {
      std::this_thread::sleep_for(
          std::min<Clock::duration>(next_dump - now,
                                    std::chrono::milliseconds(100)));
      continue;
    }
    const Status st = telemetry::DumpMetrics(metrics_.Snapshot(), dest);
    if (!st.ok()) {
      LOG_WARN << "periodic metrics dump failed: " << st.ToString();
      return;
    }
    next_dump += period;
  }
}

ThreadedAiaccEngine::~ThreadedAiaccEngine() { Shutdown(); }

void ThreadedAiaccEngine::Shutdown() {
  if (shutdown_.exchange(true)) return;
  for (auto& state : ranks_) {
    state->queue->Shutdown();
    state->scheduler->Shutdown();
  }
  stack_.top().Shutdown();
  for (auto& state : ranks_) {
    common::MutexLock lock(state->mu);
    state->cv.NotifyAll();
  }
  // Every service loop observes the signals above and returns; destroying
  // the pool joins its workers.
  service_pool_.reset();
}

Status ThreadedAiaccEngine::health() const {
  if (!aborted_.load(std::memory_order_acquire)) return Status::Ok();
  common::MutexLock lock(abort_mu_);
  return abort_status_;
}

std::vector<int> ThreadedAiaccEngine::SuspectedRanks() const {
  common::MutexLock lock(abort_mu_);
  return suspected_;
}

std::uint64_t ThreadedAiaccEngine::FaultPressure() const {
  std::uint64_t pressure = unit_retries_->Value();
  if (const transport::ReliableTransport* reliable = stack_.reliable()) {
    const transport::ReliableStats s = reliable->stats();
    pressure += s.retransmits + s.crc_failures + s.delivery_failures;
  }
  return pressure;
}

void ThreadedAiaccEngine::Abort(Status status, std::vector<int> suspected) {
  AIACC_CHECK(!status.ok());
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::Global();
  for (int r : suspected) {
    flight.Record(telemetry::FlightSeverity::kError, "engine", "suspect", r);
  }
  flight.Record(telemetry::FlightSeverity::kFatal, "engine", "abort",
                /*rank=*/-1, /*channel=*/-1, /*tag=*/-1,
                /*detail0=*/static_cast<std::int64_t>(status.code()));
  {
    common::MutexLock lock(abort_mu_);
    for (int r : suspected) {
      auto it = std::lower_bound(suspected_.begin(), suspected_.end(), r);
      if (it == suspected_.end() || *it != r) suspected_.insert(it, r);
    }
    if (!aborted_.exchange(true, std::memory_order_acq_rel)) {
      abort_status_ = std::move(status);  // first failure wins
    }
  }
  (void)flight.DumpToEnvDir("abort");  // best effort: logs on failure
  // Wake every blocked party: queue sleepers, collective receivers, and the
  // workers parked in WaitIteration. The engine is dead from here on —
  // recovery means rebuilding a fresh one over the survivors.
  for (auto& state : ranks_) {
    state->queue->Shutdown();
    state->scheduler->Shutdown();
  }
  stack_.top().Shutdown();
  for (auto& state : ranks_) {
    common::MutexLock lock(state->mu);
    state->cv.NotifyAll();
  }
}

void ThreadedAiaccEngine::HandleCollectiveFailure(int rank,
                                                  const Status& status) {
  if (shutdown_.load(std::memory_order_acquire)) return;  // normal teardown
  telemetry::FlightRecorder::Global().Record(
      telemetry::FlightSeverity::kError, "engine", "collective-failed", rank,
      /*channel=*/-1, /*tag=*/-1,
      /*detail0=*/static_cast<std::int64_t>(status.code()));
  Abort(Status(status.code(), "rank " + std::to_string(rank) +
                                  " collective failed: " + status.message()),
        {});
}

Status ThreadedAiaccEngine::Worker::Register(const std::string& name,
                                             std::span<float> tensor) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  if (state.registry.finalized()) {
    return FailedPrecondition("registration already finalized");
  }
  for (const auto& [existing, span] : state.pending_reg) {
    if (existing == name) return AlreadyExists("gradient '" + name + "'");
  }
  state.pending_reg.emplace_back(name, tensor);
  return Status::Ok();
}

void ThreadedAiaccEngine::Worker::Finalize() {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  AIACC_CHECK(!state.pending_reg.empty());
  for (const auto& [name, span] : state.pending_reg) {
    const Status st =
        state.registry.Register(name, span.size() * sizeof(float));
    AIACC_CHECK(st.ok());
  }
  state.registry.Finalize();
  // Tensor lookup by registry id (name-sorted order, identical on every
  // rank — the paper's sorted registration).
  state.tensors.resize(static_cast<std::size_t>(state.registry.size()));
  state.codecs.resize(static_cast<std::size_t>(state.registry.size()));
  state.residuals.resize(static_cast<std::size_t>(state.registry.size()));
  for (const auto& [name, span] : state.pending_reg) {
    auto id = state.registry.IdOf(name);
    AIACC_CHECK(id.ok());
    state.tensors[static_cast<std::size_t>(*id)] = span;
    const compress::CodecSpec spec = engine_->config_.CodecFor(name);
    state.codecs[static_cast<std::size_t>(*id)] = spec;
    if (compress::UsesErrorFeedback(spec.kind)) {
      state.residuals[static_cast<std::size_t>(*id)].assign(span.size(), 0.0f);
    }
  }
  {
    common::MutexLock lock(state.mu);
    state.reduced_bytes.assign(
        static_cast<std::size_t>(state.registry.size()), 0);
  }
  // Fix the urgent-priority cutoff now that the gradient-id space is known
  // (ids are name-sorted and identical on every rank, so every rank derives
  // the same cutoff).
  state.scheduler->BindGradientCount(state.registry.size());
  // Resolve bound parameters to registry order for the streamed optimizer.
  if (state.optimizer != nullptr) {
    state.params.assign(static_cast<std::size_t>(state.registry.size()),
                        std::span<float>{});
    for (const auto& [name, span] : state.pending_params) {
      auto id = state.registry.IdOf(name);
      AIACC_CHECK(id.ok() && "parameter bound for unregistered gradient");
      AIACC_CHECK(span.size() ==
                  state.tensors[static_cast<std::size_t>(*id)].size());
      state.params[static_cast<std::size_t>(*id)] = span;
    }
    for (const auto& p : state.params) {
      AIACC_CHECK(!p.empty() &&
                  "BindOptimizer requires a parameter for every gradient");
    }
  }

  // Wait for every rank before starting the communication threads: the
  // collectives need all participants.
  {
    common::MutexLock lock(engine_->finalize_mu_);
    if (++engine_->finalized_count_ == engine_->world_size_) {
      engine_->finalize_cv_.NotifyAll();
    } else {
      while (engine_->finalized_count_ != engine_->world_size_) {
        engine_->finalize_cv_.Wait(lock);
      }
    }
  }

  engine_->service_pool_->Submit([this] { engine_->MpiProcessLoop(rank_); });
  if (engine_->failure_.detect_failures && engine_->world_size_ > 1) {
    engine_->service_pool_->Submit(
        [this] { engine_->HeartbeatLoop(rank_); });
  }
  for (int s = 0; s < engine_->config_.num_streams; ++s) {
    engine_->service_pool_->Submit(
        [this, s] { engine_->CommThreadLoop(rank_, s); });
  }
}

void ThreadedAiaccEngine::Worker::Push(const std::string& name) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  auto id = state.registry.IdOf(name);
  AIACC_CHECK(id.ok());
  AIACC_TRACE_INSTANT("engine", "grad-ready");
  state.queue->Push(*id);
}

void ThreadedAiaccEngine::Worker::FlushIteration() {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  state.queue->Push(kFlush);
}

void ThreadedAiaccEngine::Worker::PushAll() {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  for (int id = 0; id < state.registry.size(); ++id) {
    state.queue->Push(id);
  }
  FlushIteration();
}

Status ThreadedAiaccEngine::Worker::WaitIteration() {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  common::MutexLock lock(state.mu);
  while (!state.iteration_done &&
         !engine_->aborted_.load(std::memory_order_acquire)) {
    state.cv.Wait(lock);
  }
  if (!state.iteration_done) return engine_->health();
  state.iteration_done = false;
  iterations_->Add();
  return Status::Ok();
}

void ThreadedAiaccEngine::Worker::BindOptimizer(Optimizer* optimizer,
                                                double lr) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  AIACC_CHECK(!state.registry.finalized());
  AIACC_CHECK(optimizer != nullptr);
  state.optimizer = optimizer;
  common::MutexLock lock(state.mu);
  state.lr = lr;
}

void ThreadedAiaccEngine::Worker::BindParameter(const std::string& name,
                                                std::span<float> param) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  AIACC_CHECK(!state.registry.finalized());
  for (const auto& [existing, span] : state.pending_params) {
    AIACC_CHECK(existing != name && "parameter already bound");
  }
  state.pending_params.emplace_back(name, param);
}

void ThreadedAiaccEngine::Worker::SetLearningRate(double lr) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  common::MutexLock lock(state.mu);
  state.lr = lr;
}

Status ThreadedAiaccEngine::Worker::WaitGradient(const std::string& name) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  auto id = state.registry.IdOf(name);
  AIACC_CHECK(id.ok());
  const auto idx = static_cast<std::size_t>(*id);
  const std::size_t bytes = state.registry.Get(*id).bytes;
  common::MutexLock lock(state.mu);
  // `reduced_bytes` is zeroed at the *end* of each iteration (just before
  // iteration_done flips), so between iterations every slot reads 0 and a
  // caller arriving before the next protocol round can never see the
  // previous iteration's full count as "done".
  while (state.reduced_bytes[idx] != bytes && !state.iteration_done &&
         !engine_->aborted_.load(std::memory_order_acquire)) {
    state.cv.Wait(lock);
  }
  if (state.reduced_bytes[idx] == bytes || state.iteration_done) {
    return Status::Ok();
  }
  return engine_->health();
}

SchedulerStats ThreadedAiaccEngine::Worker::scheduler_stats() const {
  return engine_->ranks_[static_cast<std::size_t>(rank_)]->scheduler->stats();
}

void ThreadedAiaccEngine::MpiProcessLoop(int rank) {
  SetThreadLogContext(rank, "mpi");
  // The sync bit-vector is reused across every iteration of this rank's
  // protocol — after the first round the engine's control plane allocates
  // nothing per iteration.
  std::vector<float> sync_scratch;
  while (!shutdown_.load(std::memory_order_acquire) &&
         !aborted_.load(std::memory_order_acquire)) {
    RunIterationProtocol(rank, sync_scratch);
  }
}

void ThreadedAiaccEngine::HeartbeatLoop(int rank) {
  SetThreadLogContext(rank, "hb");
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::duration<double, std::milli>(
      failure_.heartbeat_interval_ms);
  const auto timeout = std::chrono::duration<double, std::milli>(
      failure_.heartbeat_timeout_ms);
  std::vector<Clock::time_point> last_seen(
      static_cast<std::size_t>(world_size_), Clock::now());
  std::uint64_t beat = 0;
  auto prev_loop = Clock::now();
  while (!shutdown_.load(std::memory_order_acquire) &&
         !aborted_.load(std::memory_order_acquire)) {
    // Starvation guard: if *this* thread was descheduled for a large slice
    // of the suspicion window, its staleness view is invalid — peers may
    // have beaten the whole time. Refresh rather than falsely accuse.
    const auto loop_start = Clock::now();
    if (loop_start - prev_loop > timeout / 2) {
      std::fill(last_seen.begin(), last_seen.end(), loop_start);
    }
    prev_loop = loop_start;
    auto& pool = common::BufferPool::Global();
    for (int peer = 0; peer < world_size_; ++peer) {
      if (peer == rank) continue;
      transport::Payload pulse = pool.Acquire(1);
      pulse[0] = static_cast<float>(beat);
      stack_.top().Send(rank, peer, kHeartbeatTag, std::move(pulse));
    }
    ++beat;
    AIACC_TRACE_INSTANT_V("engine.hb", "heartbeat");
    for (int peer = 0; peer < world_size_; ++peer) {
      if (peer == rank) continue;
      while (auto pulse = stack_.top().TryRecv(rank, peer, kHeartbeatTag)) {
        last_seen[static_cast<std::size_t>(peer)] = Clock::now();
        pool.Release(std::move(*pulse));
      }
    }

    const auto now = Clock::now();
    std::vector<int> missing;
    bool others_fresh = true;  // every non-missing peer seen recently
    for (int peer = 0; peer < world_size_; ++peer) {
      if (peer == rank) continue;
      const auto silence = now - last_seen[static_cast<std::size_t>(peer)];
      if (silence > timeout) {
        missing.push_back(peer);
      } else if (silence > timeout / 2) {
        others_fresh = false;
      }
    }
    // A minority verdict needs a stable picture: if the remaining peers are
    // also going stale (they are about to cross the deadline too — e.g. we
    // are the isolated one and their clocks just differ by a beat), wait
    // for the next check instead of accusing whoever expired first.
    if (!missing.empty() &&
        (others_fresh ||
         2 * static_cast<int>(missing.size()) > world_size_ - 1)) {
      // Majority of peers silent: more likely *we* are the isolated /
      // crashed node — indict ourselves so survivors and victim converge on
      // the same suspect set.
      if (2 * static_cast<int>(missing.size()) > world_size_ - 1) {
        Abort(Unavailable("rank " + std::to_string(rank) +
                          " isolated: no heartbeat from ranks " +
                          RankList(missing)),
              {rank});
      } else {
        Abort(Unavailable("heartbeat deadline missed by ranks " +
                          RankList(missing)),
              missing);
      }
      return;
    }
    std::this_thread::sleep_for(interval);
  }
}

void ThreadedAiaccEngine::RunIterationProtocol(
    int rank, std::vector<float>& sync_scratch) {
  RankState& state = *ranks_[static_cast<std::size_t>(rank)];
  Worker& worker = *workers_[static_cast<std::size_t>(rank)];
  const int n = state.registry.size();

  // Fresh iteration state. reduced_bytes was zeroed at the end of the
  // previous iteration (not here) so a WaitGradient caller racing ahead of
  // this protocol round never reads a stale full count.
  state.gradients_remaining.store(n, std::memory_order_release);
  StreamingPacker packer(config_.granularity_bytes);
  BitVector local_ready(static_cast<std::size_t>(n));
  int agreed_total = 0;
  bool flush_seen = false;

  // The first pop blocks until the worker produces something (or shutdown).
  auto first = state.queue->Pop();
  if (!first.has_value()) return;  // shutdown
  // Advance iteration-wide optimizer state (Adam's timestep) only now that
  // the caller has started this iteration — at the end of the previous one
  // the caller may already have destroyed its optimizer and shut down —
  // and before any unit can be pushed: every StepTensor this iteration
  // happens-after this call via the scheduler handoff.
  if (state.optimizer != nullptr) {
    state.optimizer->BeginIteration(state.params);
  }
  if (*first != kFlush) {
    local_ready.Set(static_cast<std::size_t>(*first));
  } else {
    flush_seen = true;
  }

  // Bit-packed sync payload: 32 readiness bits per float word (sync_bits.h)
  // instead of one 0/1 float per gradient — a 32x cut in per-round traffic.
  // Under degrade_before_abort one extra word carries the degradation-level
  // proposal (see LevelMask above); the same AND-all-reduce that agrees the
  // ready set then also agrees the max level across ranks, for free.
  const bool degrade = failure_.degrade_before_abort;
  const std::size_t sync_words = SyncWordCount(static_cast<std::size_t>(n));
  const std::size_t payload_words = sync_words + (degrade ? 1 : 0);
  sync_scratch.resize(payload_words);
  std::span<float> sync_vector(sync_scratch.data(), sync_words);
  int agreed_level = 0;
  while (agreed_total < n) {
    // Drain whatever else has been produced.
    while (!flush_seen) {
      auto msg = state.queue->TryPop();
      if (!msg.has_value()) break;
      if (*msg == kFlush) {
        flush_seen = true;
      } else {
        local_ready.Set(static_cast<std::size_t>(*msg));
      }
    }

    // Decentralized synchronization round: AND-all-reduce the bit-packed
    // readiness vector among the MPI processes (the intersection of every
    // rank's ready set, exactly what the old kMin over 0/1 floats
    // computed). Every rank executes the same number of rounds: the agreed
    // count after each round is identical everywhere, and the loop
    // condition depends only on it.
    PackSyncBits(local_ready, sync_vector);
    if (degrade) {
      sync_scratch[sync_words] = LevelMask(degradation_.level());
    }
    collective::Comm comm{&stack_.top(), rank, world_size_, kSyncTag,
                          failure_.collective_timeout_ms};
    const Status st = [&] {
      AIACC_TRACE_SPAN("engine", "sync-round");
      return collective::RingAllReduce(comm, std::span<float>(sync_scratch),
                                       collective::ReduceOp::kBitAnd);
    }();
    if (!st.ok()) {
      HandleCollectiveFailure(rank, st);
      return;
    }
    if (shutdown_.load(std::memory_order_acquire) ||
        aborted_.load(std::memory_order_acquire)) {
      return;
    }
    if (degrade) {
      agreed_level = std::min(LevelFromMask(sync_scratch[sync_words]),
                              failure_.degradation.max_level);
    }
    worker.sync_rounds_->Add();
    worker.sync_payload_floats_->Add(payload_words);

    // Gradients agreed by everyone enter the packing stream (in id order,
    // so all ranks build identical units with identical unit ids).
    for (int i = 0; i < n; ++i) {
      if (SyncBitSet(sync_vector, static_cast<std::size_t>(i)) &&
          local_ready.Test(static_cast<std::size_t>(i))) {
        local_ready.Clear(static_cast<std::size_t>(i));
        packer.Add(i, state.registry.Get(i).bytes,
                   state.codecs[static_cast<std::size_t>(i)]);
        ++agreed_total;
      }
    }
    if (agreed_total == n) packer.Flush();
    while (packer.HasReadyUnit()) {
      AllReduceUnit unit = packer.PopReadyUnit();
      if (degrade) {
        // Stamp the *agreed* depth (never the local controller value —
        // ranks disagreeing on a unit's depth would exchange mismatched
        // slice counts and abort, defeating graceful degradation).
        unit.pipeline_depth = DegradationController::DepthAt(
            config_.pipeline_depth, agreed_level);
      }
      state.scheduler->Push(std::move(unit));
    }
    // If nothing new was agreed and production continues, take one blocking
    // message so the loop does not spin on empty rounds.
    if (agreed_total < n && !flush_seen) {
      auto msg = state.queue->Pop();
      if (!msg.has_value()) return;  // shutdown
      if (*msg == kFlush) {
        flush_seen = true;
      } else {
        local_ready.Set(static_cast<std::size_t>(*msg));
      }
    }
  }

  // Consume this iteration's flush marker if the blocking pops above raced
  // ahead of it (all n ids can be agreed before the marker is read); a
  // stale marker must never leak into the next iteration's protocol.
  while (!flush_seen) {
    auto msg = state.queue->Pop();
    if (!msg.has_value()) return;  // shutdown
    AIACC_CHECK(*msg == kFlush && "gradient pushed after all were agreed");
    flush_seen = true;
  }

  // All units are in flight; wait for the stream pool to finish them.
  {
    common::MutexLock lock(state.mu);
    while (state.gradients_remaining.load(std::memory_order_acquire) != 0 &&
           !shutdown_.load(std::memory_order_acquire) &&
           !aborted_.load(std::memory_order_acquire)) {
      state.cv.Wait(lock);
    }
    if (shutdown_.load(std::memory_order_acquire) ||
        aborted_.load(std::memory_order_acquire)) {
      return;
    }
    // Close the iteration: zero the per-gradient progress *before* flipping
    // iteration_done, so once the worker is released every slot already
    // reads "nothing reduced yet" for the next iteration (WaitGradient
    // relies on this ordering).
    std::fill(state.reduced_bytes.begin(), state.reduced_bytes.end(), 0);
    state.iteration_done = true;
  }
  state.cv.NotifyAll();
}

void ThreadedAiaccEngine::CommThreadLoop(int rank, int stream_index) {
  SetThreadLogContext(rank, "comm", stream_index);
  RankState& state = *ranks_[static_cast<std::size_t>(rank)];
  Worker& worker = *workers_[static_cast<std::size_t>(rank)];
  auto& buffer_pool = common::BufferPool::Global();
  const bool degrade = failure_.degrade_before_abort;
  for (;;) {
    // Stream gating: under degradation, high-index streams park instead of
    // claiming units (fewer concurrent rings = less fault surface). Purely
    // local — streams pull from a shared queue, so ranks may disagree on
    // stream counts freely. Stream 0 never parks: progress is guaranteed
    // even at max degradation, and a parked stream's units are simply
    // served by the active ones.
    while (degrade && stream_index > 0 &&
           stream_index >= degradation_.EffectiveStreams(config_.num_streams)) {
      if (shutdown_.load(std::memory_order_acquire) ||
          aborted_.load(std::memory_order_acquire)) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto unit = state.scheduler->PopFor(stream_index);
    if (!unit.has_value()) return;
    const auto unit_begin = std::chrono::steady_clock::now();
    // Dispatch telemetry: the queue-wait span (backdated to the push) with
    // the unit's priority, plus an inversion marker when an urgent unit was
    // overtaken by less-urgent dispatches while it waited. trace_analyze.py
    // aggregates these into the per-iteration priority-inversion stat.
    const ReadySetScheduler::PopInfo pop = state.scheduler->last_pop();
    // Keep the UrgentActive preemption hint honest on every exit path
    // (success, collective failure, shutdown): the pop above marked urgent
    // units in-flight, and bulk units elsewhere poll that hint to yield.
    struct UnitDoneGuard {
      ReadySetScheduler* sched;
      int priority;
      ~UnitDoneGuard() { sched->UnitFinished(priority); }
    } unit_done_guard{state.scheduler.get(), pop.priority};
    {
      auto& tracer = telemetry::RuntimeTracer::Global();
      if (tracer.enabled(telemetry::TraceLevel::kPhase)) {
        const std::int64_t now = tracer.NowNs();
        const std::int64_t waited = pop.pop_ns - pop.push_ns;
        tracer.RecordSpan("engine.sched", "unit.wait", now - waited, now,
                          static_cast<int>(unit->unit_id), "priority",
                          pop.priority);
        if (pop.urgent && pop.bypassed > 0) {
          tracer.RecordInstant("engine.sched", "sched.inversion",
                               static_cast<int>(unit->unit_id), "bypassed",
                               pop.bypassed);
        }
      }
    }
    AIACC_TRACE_SPAN_IDX("engine.unit", "unit",
                         static_cast<int>(unit->unit_id));
    const std::size_t bytes = unit->TotalBytes();
    AIACC_CHECK(bytes % sizeof(float) == 0);
    // Pooled staging: across iterations the same few buffers cycle through
    // gather -> all-reduce -> scatter, so steady state allocates nothing.
    std::vector<float> staging = buffer_pool.Acquire(bytes / sizeof(float));
    // Sparse codecs carry an error-feedback residual alongside the data.
    // It is staged exactly like the tensors: gathered fresh per attempt
    // (CompressedAllReduce mutates its residual span before the ring runs,
    // so a failed attempt must restart from the persistent copy) and
    // scattered back only after success.
    const bool sparse_unit = compress::IsSparse(unit->codec.kind);
    std::vector<float> residual_staging;
    if (sparse_unit) {
      residual_staging = buffer_pool.Acquire(bytes / sizeof(float));
    }

    // Attempt loop (tier 2.5): a failed all-reduce is retried in-band on a
    // fresh tag epoch at depth 1 instead of aborting outright. Collective
    // failures are symmetric (every rank of the wedged ring times out), so
    // per-rank epoch counters advance in lockstep and all ranks meet again
    // on the same retry namespace; the old epoch's tags are never reused,
    // so stale half-ring messages from the failed attempt are inert.
    const int max_attempts =
        degrade ? 1 + std::max(0, failure_.max_unit_retries) : 1;
    Status st;
    int epoch = 0;  // outlives the loop: names the failing tag on abort
    for (int attempt = 0;; ++attempt) {
      // (Re-)gather the unit's slice of each gradient into staging. The
      // tensors are untouched until a successful scatter, so every attempt
      // restarts from pristine inputs.
      {
        std::vector<std::span<const std::byte>> views;
        views.reserve(state.tensors.size());
        for (auto t : state.tensors) {
          views.push_back(std::as_bytes(t));
        }
        GatherUnit(*unit, views,
                   std::as_writable_bytes(std::span<float>(staging)));
      }
      if (sparse_unit) {
        std::vector<std::span<const std::byte>> views;
        views.reserve(state.residuals.size());
        for (auto& r : state.residuals) {
          views.push_back(std::as_bytes(std::span<const float>(r)));
        }
        GatherUnit(*unit, views,
                   std::as_writable_bytes(std::span<float>(residual_staging)));
      }

      epoch = 0;
      if (degrade) {
        common::MutexLock lock(state.mu);
        epoch = state.unit_tag_epoch[unit->unit_id];
      }
      // One concurrent all-reduce per unit, on the unit's own (epoch-fresh)
      // tag channel — this thread is one "communication stream" of
      // Algorithm 1.
      collective::Comm comm{&stack_.top(), rank, world_size_,
                            UnitEpochTagBase(unit->unit_id, epoch),
                            failure_.collective_timeout_ms};
      // Attempt 0 runs at the depth agreed by the sync protocol (stamped on
      // the unit; 0 = engine default). Retries always run unpipelined —
      // the retry decision is per-rank-symmetric but not *agreed*, so depth
      // 1 is the only value every rank can assume without coordination.
      if (attempt == 0) {
        comm.pipeline_depth = unit->pipeline_depth > 0 ? unit->pipeline_depth
                                                       : config_.pipeline_depth;
      } else {
        comm.pipeline_depth = 1;
      }
      // The unit's agreed wire codec (stamped by the packer from the shared
      // config; identical on every rank, like pipeline_depth).
      comm.codec = unit->codec;
      // Cooperative preemption: a non-urgent bulk unit checks between
      // pipeline slices whether an urgent collective is currently in
      // flight on another stream and briefly parks so the urgent ring gets
      // the transport. The predicate is "urgent RUNNING", not "urgent
      // queued": when every stream holds bulk, a queued urgent unit cannot
      // start and yielding would stall them all (plus their ring peers)
      // for nothing. The budget caps the total parked time per unit at
      // ~160 us: the nudge tilts transport interleaving toward the urgent
      // ring, but every bulk unit the engine delays extends the iteration
      // tail directly (WaitIteration needs ALL units), and collectives are
      // distributed — an unbounded one-rank yield transitively stalls
      // peers whose own hint says "don't yield". Timing-only, so results
      // stay bit-identical; the check itself is one relaxed atomic load.
      struct YieldCtx {
        ReadySetScheduler* sched;
        int budget;
      };
      YieldCtx yield_ctx{state.scheduler.get(), 16};
      if (state.scheduler->policy().enabled() && !pop.urgent) {
        comm.slice_yield = [](void* raw) {
          auto* ctx = static_cast<YieldCtx*>(raw);
          while (ctx->budget > 0 && ctx->sched->UrgentActive()) {
            --ctx->budget;
            std::this_thread::sleep_for(std::chrono::microseconds(10));
          }
        };
        comm.slice_yield_ctx = &yield_ctx;
      }
      if (sparse_unit) {
        // Sparse codecs need the error-feedback residual and use one
        // record-all-gather regardless of algorithm/depth.
        st = collective::CompressedAllReduce(
            comm, staging, collective::ReduceOp::kAvg,
            std::span<float>(residual_staging));
      } else if (attempt == 0 &&
                 config_.algorithm == collective::Algorithm::kHierarchical &&
                 world_size_ % 2 == 0 && world_size_ > 2) {
        st = collective::HierarchicalAllReduce(comm, /*gpus_per_host=*/2,
                                               staging,
                                               collective::ReduceOp::kAvg);
      } else {
        st = collective::RingAllReduce(comm, staging,
                                       collective::ReduceOp::kAvg);
      }
      if (st.ok()) {
        if (degrade) degradation_.RecordSuccess();
        break;
      }
      if (!degrade || shutdown_.load(std::memory_order_acquire) ||
          aborted_.load(std::memory_order_acquire) ||
          st.code() == StatusCode::kUnavailable) {
        break;  // teardown/abort — retrying a dead transport is pointless
      }
      degradation_.RecordFailure();
      if (attempt + 1 >= max_attempts) break;
      bool epochs_left = true;
      {
        common::MutexLock lock(state.mu);
        int& e = state.unit_tag_epoch[unit->unit_id];
        if (e + 1 >= kUnitRetryEpochs) {
          epochs_left = false;  // retry namespace exhausted -> tier 3
        } else {
          ++e;
        }
      }
      if (!epochs_left) break;
      unit_retries_->Add();
      telemetry::FlightRecorder::Global().Record(
          telemetry::FlightSeverity::kWarn, "engine", "unit-retry", rank,
          /*channel=*/-1, UnitEpochTagBase(unit->unit_id, epoch),
          /*detail0=*/unit->unit_id, /*detail1=*/epoch);
      AIACC_TRACE_INSTANT_V("engine.unit", "unit-retry");
      LOG_INFO << "rank " << rank << " retrying unit " << unit->unit_id
               << " (attempt " << attempt + 1 << "): " << st.ToString();
    }
    if (!st.ok()) {
      buffer_pool.Release(std::move(staging));
      if (sparse_unit) buffer_pool.Release(std::move(residual_staging));
      telemetry::FlightRecorder::Global().Record(
          telemetry::FlightSeverity::kError, "engine", "unit-failed", rank,
          /*channel=*/-1, UnitEpochTagBase(unit->unit_id, epoch),
          /*detail0=*/unit->unit_id, /*detail1=*/epoch);
      HandleCollectiveFailure(rank, st);
      return;
    }
    if (shutdown_.load(std::memory_order_acquire) ||
        aborted_.load(std::memory_order_acquire)) {
      buffer_pool.Release(std::move(staging));
      if (sparse_unit) buffer_pool.Release(std::move(residual_staging));
      return;
    }

    // Scatter the averaged bytes back and account for completed gradients.
    int completed = 0;
    {
      common::MutexLock lock(state.mu);
      std::vector<std::span<std::byte>> views;
      views.reserve(state.tensors.size());
      for (auto t : state.tensors) {
        views.push_back(std::as_writable_bytes(t));
      }
      ScatterUnit(*unit, std::as_bytes(std::span<const float>(staging)),
                  views);
      if (sparse_unit) {
        // Commit the updated error-feedback residual only now that the
        // collective succeeded (a retried attempt must not see a residual
        // that was already consumed by a failed ring).
        std::vector<std::span<std::byte>> rviews;
        rviews.reserve(state.residuals.size());
        for (auto& r : state.residuals) {
          rviews.push_back(std::as_writable_bytes(std::span<float>(r)));
        }
        ScatterUnit(*unit,
                    std::as_bytes(std::span<const float>(residual_staging)),
                    rviews);
      }
      for (const UnitSegment& seg : unit->segments) {
        const auto gid = static_cast<std::size_t>(seg.gradient_id);
        auto& done = state.reduced_bytes[gid];
        done += seg.length;
        if (done == state.registry.Get(seg.gradient_id).bytes) {
          ++completed;
          // Optimizer/comm overlap: step this parameter now, under mu,
          // while the other streams keep reducing the remaining units. The
          // gradient tensor holds the averaged value after ScatterUnit.
          if (state.optimizer != nullptr) {
            AIACC_TRACE_SPAN_IDX("engine.opt", "step-tensor",
                                 seg.gradient_id);
            state.optimizer->StepTensor(gid, state.params[gid],
                                        state.tensors[gid], state.lr);
          }
        }
      }
      // The count drops under mu, like every other predicate the waiters
      // on state.cv check under mu: decremented outside it, the notify
      // below could land between a waiter's check and its Wait and be lost.
      if (completed > 0) {
        state.gradients_remaining.fetch_sub(completed,
                                            std::memory_order_acq_rel);
      }
      worker.units_reduced_->Add();
      worker.bytes_reduced_->Add(bytes);
    }
    buffer_pool.Release(std::move(staging));
    if (sparse_unit) buffer_pool.Release(std::move(residual_staging));
    worker.unit_latency_->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      unit_begin)
            .count());
    // Notify on *every* batch of completed gradients (not only the last):
    // WaitGradient callers sleep on the same condvar as the protocol's
    // end-of-iteration wait.
    if (completed > 0) state.cv.NotifyAll();
  }
}

}  // namespace aiacc::core
