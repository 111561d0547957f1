// In-memory spans for the benchmark's traced run.
//
// The benchmark records a span around each of its own calls into a runtime
// module (Worker::Push/WaitGradient/WaitIteration, the collective, codec,
// packing, scheduler and optimizer functions in the replay, and each
// transport call through the replay's timing decorator). Every thread
// writes to its own SpanLog, so recording takes no lock; spans nest
// strictly (RAII), which gives each new span its parent. Logs are written
// as Chrome-trace JSON when the run ends, so Perfetto can open them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace enginebench {

[[nodiscard]] std::int64_t NowNs();

struct Span {
  const char* name = "";  // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the same log; -1 = root
  std::int64_t iter = -1;
};

class SpanLog {
 public:
  SpanLog(std::string process, int thread) noexcept
      : process_(std::move(process)), thread_(thread) {}

  int Open(const char* name, std::int64_t iter);
  void Close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::string& process() const noexcept {
    return process_;
  }
  [[nodiscard]] int thread() const noexcept { return thread_; }

  /// Per-span self time: duration minus the time its direct children cover.
  [[nodiscard]] std::vector<std::int64_t> SelfNs() const;
  /// Durations (ms) of every span called `name`.
  [[nodiscard]] std::vector<double> DurationsMs(std::string_view name) const;
  /// Per-iteration totals (ms) of spans called `name`, one entry per
  /// iteration id that has at least one such span.
  [[nodiscard]] std::vector<double> PerIterationMs(std::string_view name) const;

 private:
  std::string process_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Route this thread's ScopedSpans to `log` (nullptr = tracing off).
void SetThreadLog(SpanLog* log) noexcept;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t iter = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
};

/// Chrome trace-event JSON ("X" events; args carry iter, parent, self_us).
[[nodiscard]] bool WriteChromeTrace(const std::string& path,
                                    const std::vector<const SpanLog*>& logs);

/// Self time summed per span name over `logs`, largest first.
[[nodiscard]] std::vector<std::pair<std::string, double>> SelfMsByName(
    const std::vector<const SpanLog*>& logs);

}  // namespace enginebench
