// Engine training benchmark: trains one workload through the public
// ThreadedAiaccEngine API and prints its metrics. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   engine_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--setup-samples s:steal,...] [--trace-dir <dir>]
//   engine_bench --workload <name> --seed <n> --setup-only
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// splits the time over an untraced run, a traced run, the same workload on
// a single worker without the engine, and the per-layer replay, and prints
// the per-layer metrics. --setup-only runs one cold engine set-up and
// prints {"setup_s": x, "steal": share}; the wrapper script runs several
// and passes them back through --setup-samples.
// --iterations, --stall-iteration and --stall-ms drive the self-test.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "engine_run.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

#ifndef ENGINEBENCH_BUILD
#define ENGINEBENCH_BUILD "unknown"
#endif

namespace enginebench {
namespace {

constexpr int kWorld = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  bool setup_only = false;
  std::vector<std::pair<double, double>> setup_samples;  // (seconds, steal)
  std::string trace_dir = ".";
  std::int64_t iterations = 0;
  std::int64_t stall_iteration = -1;
  int stall_ms = 0;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
    } else if (key == "--setup-samples") {
      std::stringstream ss(value);
      for (std::string item; std::getline(ss, item, ',');) {
        char* rest = nullptr;
        const double seconds = std::strtod(item.c_str(), &rest);
        const double steal = *rest == ':' ? std::strtod(rest + 1, nullptr) : 0.0;
        if (!item.empty()) args.setup_samples.emplace_back(seconds, steal);
      }
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else if (key == "--iterations") {
      args.iterations = std::strtoll(value, nullptr, 10);
    } else if (key == "--stall-iteration") {
      args.stall_iteration = std::strtoll(value, nullptr, 10);
    } else if (key == "--stall-ms") {
      args.stall_ms = std::atoi(value);
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

double Median(std::vector<double> xs) {
  return aiacc::Percentile(std::move(xs), 50.0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Report lines, then the result as the last line of stdout.
void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 std::int64_t attempted, std::int64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintContext(const Args& args, const Workload& w,
                  std::uint64_t service_threads, const HostCpu& start,
                  const HostCpu& end) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const double steal = StealShare(start, end);
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"world\": %d, \"streams\": %d, \"bench_threads\": %d, "
      "\"engine_service_threads\": %llu, \"build\": \"%s\", "
      "\"host_steal_share\": %.4f}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), nproc,
      kWorld, w.config.num_streams, kWorld,
      static_cast<unsigned long long>(service_threads), ENGINEBENCH_BUILD,
      steal);
  if (service_threads > nproc) {
    std::printf(
        "note: %llu engine service threads share %u cores (%.1fx "
        "oversubscribed); most of them block in receives\n",
        static_cast<unsigned long long>(service_threads), nproc,
        static_cast<double>(service_threads) / nproc);
  }
}

/// Median and tail of the timed iterations. The tail is the workload's
/// fixed percentile; if a short run leaves fewer than ten samples above
/// it, the next lower percentile that does is reported instead.
void IterationMetrics(const Workload& w, const RunResult& r,
                      const QuietWindow& quiet, std::vector<Metric>& out) {
  const std::vector<double>& iter_ms = quiet.iter_ms;
  const std::size_t n = iter_ms.size();
  char window[96];
  std::snprintf(window, sizeof(window), "(n=%zu of %zu, steal <= %.1f%%)", n,
                r.iter_ms.size(), 100.0 * quiet.max_steal);
  out.push_back({"iter_ms_p50", Median(iter_ms), "ms", window});
  double p = w.tail_percentile;
  double tail = 0.0;
  std::size_t above = 0;
  for (double candidate : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (candidate > w.tail_percentile) continue;
    p = candidate;
    tail = aiacc::Percentile(iter_ms, p);
    above = static_cast<std::size_t>(std::count_if(
        iter_ms.begin(), iter_ms.end(), [&](double v) { return v > tail; }));
    if (above >= 10) break;
  }
  char note[96];
  std::snprintf(note, sizeof(note), "(p%g, n=%zu, %zu above)%s", p, n, above,
                p < w.tail_percentile ? " short run: lower percentile" : "");
  out.push_back({"iter_ms_tail", tail, "ms", note});
}

RunOptions BaseOptions(const Args& args) {
  RunOptions o;
  o.world = kWorld;
  o.iterations = args.iterations;
  o.stall_iteration = args.stall_iteration;
  o.stall_ms = args.stall_ms;
  return o;
}

/// Median of the least-stolen half of the cold starts (this run's and the
/// extra set-up processes'), for the same reason as QuietWindow.
Metric SetupMetric(std::vector<std::pair<double, double>> samples, const RunResult& r) {
  samples.emplace_back(r.setup_s, r.setup_steal);
  std::stable_sort(samples.begin(), samples.end(),
                   [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<double> quiet;
  std::string note = "(median of the least-stolen " +
                     std::to_string((samples.size() + 1) / 2) + " of " +
                     std::to_string(samples.size()) + " cold starts; s@steal:";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (2 * i < samples.size()) quiet.push_back(samples[i].first);
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %.4f@%.1f%%", samples[i].first, 100.0 * samples[i].second);
    note += buf;
  }
  return {"setup_s", Median(quiet), "s", note + ")"};
}

int RunUntraced(const Args& args, const Workload& w, const GradientData& data) {
  RunOptions options = BaseOptions(args);
  options.seconds = args.seconds;
  const HostCpu cpu0 = ReadHostCpu();
  RunResult r = RunEngine(w, data, options);
  const HostCpu cpu1 = ReadHostCpu();
  PrintContext(args, w, r.service_threads, cpu0, cpu1);
  if (!r.correct) std::printf("check failed: %s\n", r.error.c_str());
  if (w.check_reference) {
    std::printf("reference: max relative deviation %.3g\n", r.reference_max_err);
  }
  if (r.failed > 0) {
    std::printf(
        "failures: %lld timed iteration(s) aborted by the %lld ms deadline and "
        "rebuilt\n",
        static_cast<long long>(r.failed),
        static_cast<long long>(kCollectiveTimeoutMs));
  }
  if (r.iter_ms.empty()) {
    std::fprintf(stderr, "no timed iteration completed\n");
    return 1;
  }
  std::vector<Metric> metrics;
  metrics.push_back(SetupMetric(args.setup_samples, r));
  const QuietWindow quiet = Quiet(r, w.QuietSamples());
  IterationMetrics(w, r, quiet, metrics);
  metrics.push_back({"cpu_ms_per_iter", quiet.cpu_ms_per_iter, "ms",
                     "(process user+sys, all threads; median over the same blocks)"});
  metrics.push_back({"peak_rss_mb", r.peak_rss_mb, "MiB", ""});
  PrintResult(metrics, r.correct,
              static_cast<std::int64_t>(r.iter_ms.size()) + r.failed, r.failed);
  return 0;
}

/// Median of per-iteration totals of `span` on rank 0, timed iterations.
double RankZeroPerIteration(const RunResult& r, int warmups, const char* span) {
  std::vector<double> per_iter = r.logs[0]->PerIterationMs(span);
  if (per_iter.size() > static_cast<std::size_t>(warmups)) {
    per_iter.erase(per_iter.begin(), per_iter.begin() + warmups);
  }
  return Median(per_iter);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int RunTraced(const Args& args, const Workload& w, const GradientData& data) {
  const HostCpu cpu0 = ReadHostCpu();
  RunOptions options = BaseOptions(args);
  options.seconds = 0.3 * args.seconds;
  const RunResult plain = RunEngine(w, data, options);
  options.traced = true;
  const RunResult traced = RunEngine(w, data, options);
  const RunResult single = RunSingleWorker(w, data, 0.2 * args.seconds);
  ReplayResult replay = RunReplay(w, data, kWorld, 0.2 * args.seconds);
  const HostCpu cpu1 = ReadHostCpu();
  PrintContext(args, w, traced.service_threads, cpu0, cpu1);

  bool correct = true;
  for (const std::string& error : {plain.error, traced.error, single.error, replay.error}) {
    if (!error.empty()) {
      std::printf("check failed: %s\n", error.c_str());
      correct = false;
    }
  }
  if (plain.iter_ms.empty() || traced.iter_ms.empty() || single.iter_ms.empty()) {
    std::fprintf(stderr, "no timed iteration completed\n");
    return 1;
  }
  const double p50_plain = Median(Quiet(plain, w.QuietSamples()).iter_ms);
  const double p50_traced = Median(Quiet(traced, w.QuietSamples()).iter_ms);
  const double p50_single = Median(Quiet(single, w.QuietSamples()).iter_ms);
  const double n = static_cast<double>(traced.iter_ms.size());
  const EngineCounters& c = traced.counters;
  const int warmups = options.warmup_iterations;

  // Replay metrics, plus those of the engine runs.
  std::map<std::string, LayerMetric> layer = replay.metrics;
  layer["core.wait_gradient_ms"] = {
      RankZeroPerIteration(traced, warmups, "Worker::WaitGradient"), "ms"};
  layer["core.wait_iteration_ms"] = {
      RankZeroPerIteration(traced, warmups, "Worker::WaitIteration"), "ms"};
  layer["core.exposed_comm_ms"] = {p50_plain - p50_single, "ms"};
  layer["core.sync_rounds_per_iter"] = {static_cast<double>(c.sync_rounds) / n, "count"};
  layer["core.units_per_iter"] = {static_cast<double>(c.units) / n, "count"};
  layer["core.sched_inversions_per_iter"] = {static_cast<double>(c.sched.inversions) / n,
                                             "count"};
  layer["core.sched_priority_pop_share"] = {
      Ratio(static_cast<double>(c.sched.priority_pops), static_cast<double>(c.sched.pops)),
      "ratio"};
  layer["transport.retransmit_ratio"] = {
      Ratio(static_cast<double>(c.reliable.retransmits),
            static_cast<double>(c.reliable.data_frames_sent)),
      "ratio"};
  layer["transport.duplicate_ratio"] = {
      Ratio(static_cast<double>(c.reliable.duplicates_discarded),
            static_cast<double>(c.reliable.data_frames_sent)),
      "ratio"};
  layer["common.pool_misses_per_iter"] = {static_cast<double>(c.pool_misses) / n, "count"};
  layer["bench.trace_overhead_pct"] = {100.0 * (p50_traced - p50_plain) / p50_plain, "%"};
  std::vector<Metric> metrics;
  for (const auto& [name, m] : layer) metrics.push_back({name, m.value, m.unit, ""});

  std::printf("iterations: untraced p50 %.3f ms (n=%zu), traced p50 %.3f ms (n=%zu), "
              "single-worker p50 %.3f ms (n=%zu), replay iterations %d\n",
              p50_plain, plain.iter_ms.size(), p50_traced, traced.iter_ms.size(),
              p50_single, single.iter_ms.size(),
              replay.iterations);
  std::vector<const SpanLog*> logs;
  for (const auto& log : traced.logs) logs.push_back(log.get());
  for (const auto& log : replay.logs) logs.push_back(log.get());
  std::printf("self time by span (all ranks, ms):\n");
  int shown = 0;
  for (const auto& [name, ms] : SelfMsByName(logs)) {
    if (shown++ == 12) break;
    std::printf("  %-28s %10.2f\n", name.c_str(), ms);
  }
  const std::string trace_path =
      args.trace_dir + "/" + w.name + "-seed" + std::to_string(args.seed) + ".json";
  if (WriteChromeTrace(trace_path, logs)) {
    std::printf("trace: %s\n", trace_path.c_str());
  } else {
    std::printf("trace: could not write %s\n", trace_path.c_str());
  }
  const std::int64_t failed = plain.failed + traced.failed;
  const std::int64_t attempted =
      static_cast<std::int64_t>(plain.iter_ms.size() + traced.iter_ms.size()) + failed;
  PrintResult(metrics, correct && replay.correct, attempted, failed);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: engine_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--setup-samples a,b]\n"
                 "       engine_bench --workload <name> --seed <n> --setup-only\n");
    return 2;
  }
  const auto workload = MakeWorkload(args.workload);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const GradientData data(*workload, args.seed, kWorld);
  if (args.setup_only) {
    const RunResult r = RunEngine(*workload, data, BaseOptions(args));
    if (!r.correct) {
      std::fprintf(stderr, "set-up failed: %s\n", r.error.c_str());
      return 1;
    }
    std::printf("{\"setup_s\": %s, \"steal\": %s}\n", JsonNumber(r.setup_s).c_str(),
                JsonNumber(r.setup_steal).c_str());
    return 0;
  }
  return args.trace == 1 ? RunTraced(args, *workload, data)
                         : RunUntraced(args, *workload, data);
}

}  // namespace
}  // namespace enginebench

int main(int argc, char** argv) { return enginebench::Main(argc, argv); }
