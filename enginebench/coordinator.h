// Agreement between the benchmark's per-rank driver threads: which
// iterations every rank runs, and a rendezvous ("meet") between engine
// lifetimes.
//
// A run is a sequence of segments, each on one engine instance. Ranks run
// iterations 0, 1, ... of a segment while Begin() allows; the segment ends
// at a fixed count or, for the timed window, at the first iteration any
// rank asks for after the deadline — Begin() then fixes the end one past
// the highest index any rank has started, so every rank runs exactly the
// same iterations (a rank that skipped one would leave its peers blocked in
// that iteration's collectives).
//
// Between segments all ranks meet. The last rank to arrive runs the meet
// callback alone while the others wait: it tears the engine down, builds
// the next one and picks the next segment. A rank that fails an iteration
// goes straight to the meet; the engine's abort wakes every peer, so they
// all fail and arrive too. A rank whose peers do not arrive within the
// meet timeout is told so (kTimedOut) and must "poke": run one more
// iteration on the current engine. A peer stuck in WaitIteration (the
// engine's lost-wakeup hang) is only released by an engine abort, and the
// poke's sync round, which the stuck peer never joins, hits the engine's
// per-message deadline and aborts it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>

#include "common/sync.h"

namespace enginebench {

class Coordinator {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::int64_t kOpen = std::numeric_limits<std::int64_t>::max();

  struct Segment {
    bool finished = false;  // no further segment: drivers return
    bool rebuilt = false;   // a new engine: drivers register again
    std::int64_t end = kOpen;  // iterations [0, end), or until `deadline`
    Clock::time_point deadline{};
  };
  /// Runs on the last rank to arrive; `any_failed` reports whether some rank
  /// arrived after a failed iteration. Returns the next segment.
  using OnMeet = std::function<Segment(bool any_failed)>;

  Coordinator(int world, std::chrono::milliseconds meet_timeout,
              OnMeet on_meet)
      : world_(world), meet_timeout_(meet_timeout),
        on_meet_(std::move(on_meet)) {}

  /// May iteration `index` of the current segment run? Same answer on
  /// every rank.
  bool Begin(std::int64_t index) EXCLUDES(mu_);

  enum class MeetResult { kCompleted, kTimedOut };
  MeetResult Meet(bool failed) EXCLUDES(mu_);

  /// The segment chosen by the last completed meet; stable until the next
  /// meet completes, which needs every rank, so reading it between meets
  /// is race-free.
  [[nodiscard]] const Segment& segment() const noexcept { return segment_; }

 private:
  const int world_;
  const std::chrono::milliseconds meet_timeout_;
  const OnMeet on_meet_;
  aiacc::common::Mutex mu_{"bench-coordinator"};
  aiacc::common::CondVar cv_;
  Segment segment_;  // NOLOCK(written under mu_ by the completing rank; read between meets)
  std::int64_t max_started_ GUARDED_BY(mu_) = -1;
  int arrived_ GUARDED_BY(mu_) = 0;
  bool any_failed_ GUARDED_BY(mu_) = false;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
};

}  // namespace enginebench
