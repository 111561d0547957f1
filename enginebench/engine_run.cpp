#include "engine_run.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <thread>

#include "common/buffer_pool.h"
#include "common/stats.h"
#include "coordinator.h"
#include "core/optimizer.h"
#include "core/threaded_engine.h"

namespace enginebench {
namespace {

using aiacc::core::ThreadedAiaccEngine;
using Clock = std::chrono::steady_clock;

/// Driver-applied SGD step (bulk workloads) and the engine-bound SGD rate
/// (layer-wise workload).
constexpr float kLr = 1e-3f;
constexpr double kEngineLr = 1e-3;
/// A rank waiting longer than this at a meet pokes the engine (see
/// coordinator.h). Above any healthy arrival skew: one iteration.
constexpr std::chrono::milliseconds kMeetTimeout{2 * kCollectiveTimeoutMs};
constexpr int kMaxSetupAttempts = 3;
/// Dense reference tolerance: |engine - reference| <= kRefTol * max(1, |ref|).
/// The ring sums the four ranks in a different order than the reference,
/// so each step may differ by an ulp; this leaves room for ~1e3 such steps.
constexpr double kRefTol = 1e-4;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double SecondsSince(std::int64_t ns) { return 1e-9 * static_cast<double>(NowNs() - ns); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// WaitGradient calls shorter than this found their gradient already
/// reduced; longer ones waited for it.
constexpr auto kBlockedWait = std::chrono::microseconds(100);

EngineCounters operator-(EngineCounters a, const EngineCounters& b) {
  a.sync_rounds -= b.sync_rounds;
  a.units -= b.units;
  a.sched.pops -= b.sched.pops;
  a.sched.priority_pops -= b.sched.priority_pops;
  a.sched.inversions -= b.sched.inversions;
  a.sched.aged_pops -= b.sched.aged_pops;
  a.reliable.data_frames_sent -= b.reliable.data_frames_sent;
  a.reliable.retransmits -= b.reliable.retransmits;
  a.reliable.duplicates_discarded -= b.reliable.duplicates_discarded;
  a.reliable.delivered -= b.reliable.delivered;
  a.pool_misses -= b.pool_misses;
  return a;
}

EngineCounters& operator+=(EngineCounters& a, const EngineCounters& b) {
  a.sync_rounds += b.sync_rounds;
  a.units += b.units;
  a.sched.pops += b.sched.pops;
  a.sched.priority_pops += b.sched.priority_pops;
  a.sched.inversions += b.sched.inversions;
  a.sched.aged_pops += b.sched.aged_pops;
  a.reliable.data_frames_sent += b.reliable.data_frames_sent;
  a.reliable.retransmits += b.reliable.retransmits;
  a.reliable.duplicates_discarded += b.reliable.duplicates_discarded;
  a.reliable.delivered += b.reliable.delivered;
  a.pool_misses += b.pool_misses;
  return a;
}

/// The timed iterations of rank 0, cut into Blocks at iteration ends.
class TimedWindow {
 public:
  void Start() { Open(); }
  void Add(double iter_ms) {
    iter_ms_.push_back(iter_ms);
    if (SecondsSince(start_ns_) * 1e3 >= kBlockMs) Close();
  }
  void Finish() {
    if (open_.first < iter_ms_.size()) Close();
  }
  void MoveTo(RunResult& result) {
    result.iter_ms = std::move(iter_ms_);
    result.blocks = std::move(blocks_);
  }

 private:
  void Open() {
    open_.first = iter_ms_.size();
    start_ns_ = NowNs();
    host_ = ReadHostCpu();
    cpu_s_ = ProcessCpuSeconds();
  }
  void Close() {
    open_.end = iter_ms_.size();
    open_.steal = StealShare(host_, ReadHostCpu());
    open_.cpu_s = ProcessCpuSeconds() - cpu_s_;
    blocks_.push_back(open_);
    Open();
  }

  std::vector<double> iter_ms_;
  std::vector<Block> blocks_;
  Block open_;
  std::int64_t start_ns_ = 0;
  HostCpu host_;
  double cpu_s_ = 0.0;
};

class Run {
 public:
  Run(const Workload& workload, const GradientData& data,
      const RunOptions& options);
  RunResult Execute();

 private:
  enum class Phase { kStart, kSetup, kTimed };

  struct RankState {
    std::vector<std::vector<float>> grads;
    std::vector<std::vector<float>> params;
    /// Bound to every engine of the layer-wise workload. Lives as long as
    /// the run, past every engine: the engine's MPI loop calls
    /// BeginIteration on it right after the last iteration.
    aiacc::core::SgdOptimizer optimizer{0.9};
    std::int64_t steps = 0;       // optimizer steps applied
    std::int64_t iterations = 0;  // started; span iteration id
  };

  struct Checkpoint {
    std::vector<std::vector<float>> params;
    std::vector<std::vector<float>> optimizer;
    std::int64_t steps = 0;
  };

  void Drive(int rank);
  void Register(int rank);
  [[nodiscard]] bool Iterate(int rank, std::int64_t index);
  void Poke(int rank);

  // Meet callback and its helpers: run by one rank while the others wait.
  Coordinator::Segment OnMeet(bool any_failed);
  void BuildEngine();
  void DestroyEngine();
  void SaveCheckpoint();
  void RestoreCheckpoint();
  Coordinator::Segment Finish();
  [[nodiscard]] EngineCounters ReadCounters();

  void CheckOutputs();

  const Workload& workload_;
  const GradientData& data_;
  const RunOptions& options_;
  std::vector<RankState> ranks_;
  std::unique_ptr<ThreadedAiaccEngine> engine_;
  Coordinator coordinator_;

  // Written by the meet callback; read by drivers between meets.
  bool timed_segment_ = false;
  bool first_window_ = false;
  // Written by rank 0 during a segment; read by the next meet callback.
  std::int64_t warmup_end_ns_ = 0;
  TimedWindow window_;
  // Meet-callback state.
  Phase phase_ = Phase::kStart;
  int setup_attempts_ = 0;
  std::int64_t constructed_ns_ = 0;
  HostCpu constructed_host_;
  Clock::time_point deadline_{};
  EngineCounters engine_base_;
  Checkpoint checkpoint_;
  RunResult result_;
};

Run::Run(const Workload& workload, const GradientData& data,
         const RunOptions& options)
    : workload_(workload),
      data_(data),
      options_(options),
      ranks_(static_cast<std::size_t>(options.world)),
      coordinator_(options.world, kMeetTimeout,
                   [this](bool any_failed) { return OnMeet(any_failed); }) {
  for (auto& rank : ranks_) {
    for (std::size_t t = 0; t < workload_.tensors.size(); ++t) {
      rank.grads.emplace_back(workload_.tensors[t].elems);
      const auto init = data_.InitialParam(t);
      rank.params.emplace_back(init.begin(), init.end());
    }
  }
  if (options_.traced) {
    for (int r = 0; r < options_.world; ++r) {
      result_.logs.push_back(std::make_unique<SpanLog>("engine", r));
    }
  }
}

RunResult Run::Execute() {
  std::vector<std::thread> drivers;
  for (int r = 1; r < options_.world; ++r) {
    drivers.emplace_back([this, r] { Drive(r); });
  }
  Drive(0);
  for (auto& t : drivers) t.join();
  window_.MoveTo(result_);
  result_.service_threads =
      static_cast<std::uint64_t>(options_.world) *
          (1 + static_cast<std::uint64_t>(workload_.config.num_streams)) +
      (workload_.reliable ? 1 : 0);  // the reliable layer's retransmit daemon
  if (result_.error.empty()) CheckOutputs();
  result_.correct = result_.error.empty();
  return std::move(result_);
}

void Run::Drive(int rank) {
  if (options_.traced) {
    SetThreadLog(result_.logs[static_cast<std::size_t>(rank)].get());
  }
  bool failed = false;
  for (;;) {
    auto met = coordinator_.Meet(failed);
    while (met == Coordinator::MeetResult::kTimedOut) {
      Poke(rank);
      met = coordinator_.Meet(/*failed=*/true);
    }
    const Coordinator::Segment& segment = coordinator_.segment();
    if (segment.finished) break;
    if (segment.rebuilt) Register(rank);
    failed = false;
    for (std::int64_t i = 0; coordinator_.Begin(i); ++i) {
      if (!Iterate(rank, i)) {
        failed = true;
        break;
      }
    }
  }
  SetThreadLog(nullptr);
}

void Run::Register(int rank) {
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  auto& worker = engine_->worker(rank);
  for (std::size_t t = 0; t < workload_.tensors.size(); ++t) {
    const std::string& name = workload_.tensors[t].name;
    AIACC_CHECK(worker.Register(name, state.grads[t]).ok());
    if (workload_.layerwise) worker.BindParameter(name, state.params[t]);
  }
  if (workload_.layerwise) worker.BindOptimizer(&state.optimizer, kEngineLr);
  worker.Finalize();
}

bool Run::Iterate(int rank, std::int64_t index) {
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  auto& worker = engine_->worker(rank);
  const auto& tensors = workload_.tensors;
  const std::size_t n = tensors.size();
  const std::int64_t id = state.iterations++;
  ScopedSpan iteration_span("iteration", id);
  auto copy_grad = [&](std::size_t t) {
    const auto src = data_.Grad(rank, state.steps, t);
    std::copy(src.begin(), src.end(), state.grads[t].begin());
  };

  // Modeled accelerator compute sleeps, so the host cores stay free for the
  // engine's communication threads, and runs on its own timeline: each
  // layer ends a fixed time after the previous one (or, in the forward,
  // after its gradient arrived), so a late host wakeup delays one layer
  // instead of accumulating over all of them.
  auto device_done = Clock::now();
  std::int64_t t0 = 0;
  if (workload_.layerwise) {
    // Backward: gradients become ready back-to-front.
    for (std::size_t b = n; b-- > 0;) {
      {
        ScopedSpan span("compute.backward", id);
        device_done += std::chrono::microseconds(workload_.bwd_us);
        std::this_thread::sleep_until(device_done);
        copy_grad(b);
      }
      if (t0 == 0) t0 = NowNs();
      ScopedSpan span("Worker::Push", id);
      worker.Push(tensors[b].name);
    }
    ScopedSpan span("Worker::FlushIteration", id);
    worker.FlushIteration();
  } else {
    {
      ScopedSpan span("copy_gradients", id);
      for (std::size_t t = 0; t < n; ++t) copy_grad(t);
    }
    t0 = NowNs();
    if (workload_.push_all) {
      ScopedSpan span("Worker::PushAll", id);
      worker.PushAll();
    } else {
      ScopedSpan span("Worker::Push", id);
      for (std::size_t b = n; b-- > 0;) worker.Push(tensors[b].name);
      worker.FlushIteration();
    }
  }
  if (rank == 0 && first_window_ && index == options_.stall_iteration) {
    // Injected hang: like a rank stuck in WaitIteration, it only moves on
    // once the engine aborts (or after stall_ms).
    ScopedSpan span("injected_stall", id);
    const auto until = Clock::now() + std::chrono::milliseconds(options_.stall_ms);
    while (!engine_->aborted() && Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Next forward: the layer-wise workload consumes every layer front to
  // back; the bulk workloads wait for the front layer, the first one a
  // forward pass needs.
  const std::size_t consumed = workload_.layerwise ? n : 1;
  device_done = Clock::now();
  for (std::size_t g = 0; g < consumed; ++g) {
    const auto asked = Clock::now();
    {
      ScopedSpan span("Worker::WaitGradient", id);
      if (!worker.WaitGradient(tensors[g].name).ok()) return false;
    }
    if (workload_.layerwise) {
      const auto arrived = Clock::now();
      if (arrived - asked > kBlockedWait) device_done = std::max(device_done, arrived);
      ScopedSpan span("compute.forward", id);
      device_done += std::chrono::microseconds(workload_.fwd_us);
      std::this_thread::sleep_until(device_done);
    }
  }
  {
    ScopedSpan span("Worker::WaitIteration", id);
    if (!worker.WaitIteration().ok()) return false;
  }
  const std::int64_t t1 = NowNs();
  if (!workload_.layerwise) {
    ScopedSpan span("sgd_step", id);
    for (std::size_t t = 0; t < n; ++t) {
      float* p = state.params[t].data();
      const float* g = state.grads[t].data();
      for (std::size_t i = 0; i < state.params[t].size(); ++i) p[i] -= kLr * g[i];
    }
  }
  ++state.steps;
  if (rank == 0) {
    if (timed_segment_) {
      window_.Add(1e-6 * static_cast<double>(t1 - t0));
    } else {
      warmup_end_ns_ = NowNs();
    }
  }
  return true;
}

void Run::Poke(int rank) {
  ScopedSpan span("poke");
  auto& worker = engine_->worker(rank);
  worker.PushAll();
  // Expected to fail: the engine aborts once the sync round that the
  // missing peer never joins reaches the per-message deadline.
  (void)worker.WaitIteration();
}

Coordinator::Segment Run::OnMeet(bool any_failed) {
  Coordinator::Segment next;
  switch (phase_) {
    case Phase::kStart:
      phase_ = Phase::kSetup;
      BuildEngine();
      next.rebuilt = true;
      next.end = options_.warmup_iterations;
      return next;
    case Phase::kSetup:
      if (any_failed) {
        DestroyEngine();
        RestoreCheckpoint();
        if (++setup_attempts_ >= kMaxSetupAttempts) {
          result_.error = "engine set-up failed " +
                          std::to_string(setup_attempts_) + " times";
          return Finish();
        }
        BuildEngine();
        next.rebuilt = true;
        next.end = options_.warmup_iterations;
        return next;
      }
      result_.setup_s = 1e-9 * static_cast<double>(warmup_end_ns_ - constructed_ns_);
      result_.setup_steal = StealShare(constructed_host_, ReadHostCpu());
      SaveCheckpoint();
      if (options_.seconds <= 0.0 && options_.iterations <= 0) return Finish();
      // The timed window continues on the warm engine.
      phase_ = Phase::kTimed;
      timed_segment_ = true;
      first_window_ = true;
      engine_base_ = ReadCounters();
      window_.Start();
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(options_.seconds));
      next.end = options_.iterations > 0 ? options_.iterations : Coordinator::kOpen;
      next.deadline = deadline_;
      return next;
    case Phase::kTimed:
      result_.counters += ReadCounters() - engine_base_;
      first_window_ = false;
      if (!any_failed) return Finish();
      // A failed iteration: count it, roll every rank back to the last
      // agreed state (a rank may have missed the step its peers applied)
      // and continue the window on a fresh engine while time remains.
      ++result_.failed;
      DestroyEngine();
      RestoreCheckpoint();
      if (options_.iterations > 0 || Clock::now() >= deadline_) return Finish();
      BuildEngine();
      engine_base_ = ReadCounters();
      next.rebuilt = true;
      next.deadline = deadline_;
      return next;
  }
  return Finish();
}

void Run::BuildEngine() {
  aiacc::core::FailureConfig failure;
  failure.trace_messages = 0;  // AIACC_TRACE must not add a layer
  failure.collective_timeout_ms = kCollectiveTimeoutMs;
  failure.reliable_transport = workload_.reliable;
  constructed_host_ = ReadHostCpu();
  constructed_ns_ = NowNs();
  engine_ = std::make_unique<ThreadedAiaccEngine>(options_.world,
                                                  workload_.config, failure);
}

void Run::DestroyEngine() {
  if (engine_ == nullptr) return;
  engine_->Shutdown();
  engine_.reset();
}

void Run::SaveCheckpoint() {
  const RankState& rank0 = ranks_[0];
  checkpoint_.params = rank0.params;
  checkpoint_.optimizer = rank0.optimizer.ExportState();
  checkpoint_.steps = rank0.steps;
}

void Run::RestoreCheckpoint() {
  if (checkpoint_.params.empty()) {  // failed before the first checkpoint
    for (auto& rank : ranks_) {
      for (std::size_t t = 0; t < rank.params.size(); ++t) {
        const auto init = data_.InitialParam(t);
        std::copy(init.begin(), init.end(), rank.params[t].begin());
      }
      rank.optimizer.ImportState({});
      rank.steps = 0;
    }
    return;
  }
  for (auto& rank : ranks_) {
    for (std::size_t t = 0; t < rank.params.size(); ++t) {
      std::copy(checkpoint_.params[t].begin(), checkpoint_.params[t].end(),
                rank.params[t].begin());
    }
    rank.optimizer.ImportState(checkpoint_.optimizer);
    rank.steps = checkpoint_.steps;
  }
}

Coordinator::Segment Run::Finish() {
  if (phase_ == Phase::kTimed) window_.Finish();
  result_.peak_rss_mb = PeakRssMb();
  DestroyEngine();
  Coordinator::Segment done;
  done.finished = true;
  return done;
}

EngineCounters Run::ReadCounters() {
  EngineCounters c;
  auto& worker = engine_->worker(0);
  const auto stats = worker.stats();
  c.sync_rounds = stats.sync_rounds;
  c.units = stats.units_reduced;
  c.sched = worker.scheduler_stats();
  if (auto* reliable = engine_->reliable_layer()) c.reliable = reliable->stats();
  c.pool_misses = aiacc::common::BufferPool::Global().stats().misses;
  return c;
}

void Run::CheckOutputs() {
  const auto& rank0 = ranks_[0];
  for (std::size_t r = 1; r < ranks_.size(); ++r) {
    for (std::size_t t = 0; t < rank0.params.size(); ++t) {
      if (std::memcmp(rank0.params[t].data(), ranks_[r].params[t].data(),
                      rank0.params[t].size() * sizeof(float)) != 0) {
        result_.error = "rank " + std::to_string(r) + " parameter " +
                        workload_.tensors[t].name + " differs from rank 0";
        return;
      }
    }
  }
  for (std::size_t t = 0; t < rank0.params.size(); ++t) {
    for (float v : rank0.params[t]) {
      if (!std::isfinite(v)) {
        result_.error = "non-finite parameter in " + workload_.tensors[t].name;
        return;
      }
    }
  }
  if (!workload_.check_reference) return;
  // Sequential single-process reference: average the ranks' gradients in
  // rank order and apply the same SGD steps. Blocked by element so each
  // block stays in cache across all steps; per element, the operations
  // are the step-major ones in the same order.
  const int world = options_.world;
  for (std::size_t t = 0; t < rank0.params.size(); ++t) {
    if (workload_.config.CodecFor(workload_.tensors[t].name).kind !=
        aiacc::compress::CodecKind::kNone) {
      continue;
    }
    const std::size_t len = rank0.params[t].size();
    std::vector<std::vector<float>> avg(GradientData::kSets,
                                        std::vector<float>(len));
    for (int s = 0; s < GradientData::kSets; ++s) {
      for (int r = 0; r < world; ++r) {
        const auto g = data_.Grad(r, s, t);
        for (std::size_t i = 0; i < len; ++i) avg[s][i] += g[i];
      }
      for (float& v : avg[s]) v /= static_cast<float>(world);
    }
    const auto init = data_.InitialParam(t);
    std::vector<float> ref(init.begin(), init.end());
    constexpr std::size_t kBlock = 512;
    for (std::size_t b = 0; b < len; b += kBlock) {
      const std::size_t e = std::min(len, b + kBlock);
      for (std::int64_t step = 0; step < rank0.steps; ++step) {
        const float* a = avg[static_cast<std::size_t>(step % GradientData::kSets)].data();
        for (std::size_t i = b; i < e; ++i) ref[i] -= kLr * a[i];
      }
    }
    for (std::size_t i = 0; i < len; ++i) {
      const double err = std::fabs(static_cast<double>(rank0.params[t][i]) - ref[i]) /
                         std::max(1.0, std::fabs(static_cast<double>(ref[i])));
      result_.reference_max_err = std::max(result_.reference_max_err, err);
    }
  }
  if (!(result_.reference_max_err <= kRefTol)) {
    result_.error = "parameters deviate from the sequential reference by " +
                    std::to_string(result_.reference_max_err);
  }
}

}  // namespace

HostCpu ReadHostCpu() {
  HostCpu t;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    stat >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const HostCpu& from, const HostCpu& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

QuietWindow Quiet(const RunResult& result, std::size_t min_samples) {
  std::vector<const Block*> order;
  for (const Block& b : result.blocks) order.push_back(&b);
  std::stable_sort(order.begin(), order.end(),
                   [](const Block* a, const Block* b) { return a->steal < b->steal; });
  QuietWindow q;
  std::vector<double> block_cpu_ms;  // per iteration, one entry per block
  for (const Block* b : order) {
    if (q.iter_ms.size() >= std::max(result.iter_ms.size() / 4, min_samples)) break;
    q.iter_ms.insert(q.iter_ms.end(), result.iter_ms.begin() + static_cast<std::ptrdiff_t>(b->first),
                     result.iter_ms.begin() + static_cast<std::ptrdiff_t>(b->end));
    block_cpu_ms.push_back(1e3 * b->cpu_s / static_cast<double>(b->end - b->first));
    q.max_steal = b->steal;
  }
  // Median over blocks: a block that absorbed an engine rebuild carries its
  // thread start-up CPU over few iterations.
  q.cpu_ms_per_iter = aiacc::Percentile(std::move(block_cpu_ms), 50.0);
  return q;
}

RunResult RunEngine(const Workload& workload, const GradientData& data,
                    const RunOptions& options) {
  return Run(workload, data, options).Execute();
}

RunResult RunSingleWorker(const Workload& workload, const GradientData& data,
                          double seconds) {
  std::vector<std::vector<float>> grads;
  std::vector<std::vector<float>> params;
  for (std::size_t t = 0; t < workload.tensors.size(); ++t) {
    grads.emplace_back(workload.tensors[t].elems);
    const auto init = data.InitialParam(t);
    params.emplace_back(init.begin(), init.end());
  }
  std::vector<std::span<float>> param_spans(params.begin(), params.end());
  std::vector<std::span<const float>> grad_spans(grads.begin(), grads.end());
  aiacc::core::SgdOptimizer optimizer(0.9);
  const std::size_t n = grads.size();
  std::int64_t step = 0;
  // One Iterate() without the engine: the span from the first push point
  // to the end of the forward pass holds only what the worker itself does.
  auto iterate = [&]() {
    auto copy_grad = [&](std::size_t t) {
      const auto src = data.Grad(0, step, t);
      std::copy(src.begin(), src.end(), grads[t].begin());
    };
    std::int64_t t0 = 0;
    if (workload.layerwise) {
      auto device_done = Clock::now();
      for (std::size_t b = n; b-- > 0;) {
        device_done += std::chrono::microseconds(workload.bwd_us);
        std::this_thread::sleep_until(device_done);
        copy_grad(b);
        if (t0 == 0) t0 = NowNs();
      }
      optimizer.Step(param_spans, grad_spans, kEngineLr);
      device_done = Clock::now();
      for (std::size_t g = 0; g < n; ++g) {
        device_done += std::chrono::microseconds(workload.fwd_us);
        std::this_thread::sleep_until(device_done);
      }
    } else {
      for (std::size_t t = 0; t < n; ++t) copy_grad(t);
      t0 = NowNs();
    }
    const std::int64_t t1 = NowNs();
    if (!workload.layerwise) {
      for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t i = 0; i < params[t].size(); ++i) params[t][i] -= kLr * grads[t][i];
      }
    }
    ++step;
    return 1e-6 * static_cast<double>(t1 - t0);
  };
  RunResult result;
  const std::int64_t setup_start = NowNs();
  for (int i = 0; i < RunOptions{}.warmup_iterations; ++i) (void)iterate();
  result.setup_s = SecondsSince(setup_start);
  TimedWindow window;
  window.Start();
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) window.Add(iterate());
  window.Finish();
  window.MoveTo(result);
  result.peak_rss_mb = PeakRssMb();
  for (const auto& p : params) {
    if (!std::all_of(p.begin(), p.end(), [](float v) { return std::isfinite(v); })) {
      result.error = "single worker: non-finite parameters";
    }
  }
  result.correct = result.error.empty();
  return result;
}

}  // namespace enginebench
