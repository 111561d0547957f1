#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace enginebench {
namespace {
thread_local SpanLog* tls_log = nullptr;
}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Open(const char* name, std::int64_t iter) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back(), iter});
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

std::vector<std::int64_t> SpanLog::SelfNs() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children are nested inside their parent and never overlap each other
  // (one thread, RAII), so the covered time is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

std::vector<double> SpanLog::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(1e-6 * static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::vector<double> SpanLog::PerIterationMs(std::string_view name) const {
  std::map<std::int64_t, double> per_iter;
  for (const Span& s : spans_) {
    if (name == s.name) {
      per_iter[s.iter] += 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<double> out;
  for (const auto& [iter, ms] : per_iter) out.push_back(ms);
  return out;
}

void SetThreadLog(SpanLog* log) noexcept { tls_log = log; }

ScopedSpan::ScopedSpan(const char* name, std::int64_t iter) : log_(tls_log) {
  if (log_ != nullptr) id_ = log_->Open(name, iter);
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->Close(id_);
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) t0 = std::min(t0, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  std::map<std::string, int> pids;
  for (const SpanLog* log : logs) {
    const int pid = pids.emplace(log->process(), static_cast<int>(pids.size()))
                        .first->second;
    const std::vector<std::int64_t> self = log->SelfNs();
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"iter\":%lld,"
                   "\"parent\":%d,\"self_us\":%.3f}}",
                   first ? "" : ",", s.name, pid, log->thread(),
                   1e-3 * static_cast<double>(s.start_ns - t0),
                   1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                   static_cast<long long>(s.iter), s.parent,
                   1e-3 * static_cast<double>(self[i]));
      first = false;
    }
  }
  for (const auto& [name, pid] : pids) {
    std::fprintf(f,
                 "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", pid, name.c_str());
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, double>> SelfMsByName(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, double> by_name;
  for (const SpanLog* log : logs) {
    const std::vector<std::int64_t> self = log->SelfNs();
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      by_name[log->spans()[i].name] += 1e-6 * static_cast<double>(self[i]);
    }
  }
  std::vector<std::pair<std::string, double>> out(by_name.begin(),
                                                  by_name.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace enginebench
