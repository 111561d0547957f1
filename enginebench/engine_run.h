// Trains a workload through the public ThreadedAiaccEngine API from one
// process: one driver thread per rank (the calling thread drives rank 0),
// a cold engine set-up with warm-up iterations, then a timed window.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "spans.h"
#include "transport/reliable.h"
#include "workloads.h"

namespace enginebench {

/// Per-message deadline of every engine the benchmark builds: far above any
/// healthy wait (the slowest workload iterates in a few hundred ms), and
/// the bound on how long a hung iteration can stall a run.
inline constexpr std::int64_t kCollectiveTimeoutMs = 1000;

struct RunOptions {
  int world = 4;
  /// Timed window; 0 = set-up only.
  double seconds = 0.0;
  /// Fixed timed iteration count instead of `seconds` (self-test).
  std::int64_t iterations = 0;
  int warmup_iterations = 3;
  /// Record spans around the driver's engine calls.
  bool traced = false;
  /// Self-test fault injection: in timed iteration `stall_iteration` of the
  /// first window, rank 0 stops between pushing and waiting until the
  /// engine aborts or `stall_ms` pass.
  std::int64_t stall_iteration = -1;
  int stall_ms = 0;
};

/// Engine-reported counters, summed over the timed window (rank 0 for the
/// per-rank ones).
struct EngineCounters {
  std::uint64_t sync_rounds = 0;
  std::uint64_t units = 0;
  aiacc::core::SchedulerStats sched;
  aiacc::transport::ReliableStats reliable;
  std::uint64_t pool_misses = 0;
};

/// Host CPU time (all vCPUs, in ticks) from /proc/stat; `steal` is the time
/// the hypervisor ran other guests. Zeros where /proc/stat is unreadable.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] HostCpu ReadHostCpu();
[[nodiscard]] double StealShare(const HostCpu& from, const HostCpu& to);

/// A stretch of at least kBlockMs of the timed window, closed by rank 0
/// at an iteration end.
struct Block {
  std::size_t first = 0;  // its iterations: iter_ms[first, end)
  std::size_t end = 0;
  double steal = 0.0;  // host steal share during the block
  double cpu_s = 0.0;  // process CPU during the block
};
inline constexpr std::int64_t kBlockMs = 100;

struct RunResult {
  double setup_s = 0.0;          // engine construction -> end of warm-ups
  double setup_steal = 0.0;      // host steal share during the set-up
  std::vector<double> iter_ms;   // rank 0, completed timed iterations
  std::vector<Block> blocks;     // the timed window, in time order
  std::int64_t failed = 0;       // timed engine aborts
  double peak_rss_mb = 0.0;      // at the end of the timed window
  EngineCounters counters;
  std::uint64_t service_threads = 0;  // engine threads (pool + daemons)
  bool correct = false;
  std::string error;             // why `correct` is false
  double reference_max_err = 0.0;  // dense reference check, if run
  /// One log per driver thread when traced.
  std::vector<std::unique_ptr<SpanLog>> logs;
};

RunResult RunEngine(const Workload& workload, const GradientData& data,
                    const RunOptions& options);

/// The same iterations on one worker without the engine: gradient copies,
/// modeled compute and the optimizer step, nothing exchanged. This is the
/// baseline for exposed communication. (An engine at world 1 would be the
/// closer twin, but a lost wakeup there has no peer whose deadline could
/// abort it, so it would hang the run.)
RunResult RunSingleWorker(const Workload& workload, const GradientData& data,
                          double seconds);

/// The timed iterations of the run's quietest stretches: whole blocks in
/// ascending order of host steal (time order among equals) until they hold
/// a quarter of the iterations, or `min_samples` if that is more. The
/// hypervisor taking a vCPU stalls every ring through that rank, so stolen
/// stretches measure the host, not the engine.
struct QuietWindow {
  std::vector<double> iter_ms;
  double cpu_ms_per_iter = 0.0;  // median over the chosen blocks
  double max_steal = 0.0;  // highest steal share among the chosen blocks
};
[[nodiscard]] QuietWindow Quiet(const RunResult& result, std::size_t min_samples);

}  // namespace enginebench
