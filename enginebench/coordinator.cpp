#include "coordinator.h"

#include <algorithm>

namespace enginebench {

bool Coordinator::Begin(std::int64_t index) {
  aiacc::common::MutexLock lock(mu_);
  if (segment_.end == kOpen && Clock::now() >= segment_.deadline) {
    segment_.end = max_started_ + 1;
  }
  if (index >= segment_.end) return false;
  max_started_ = std::max(max_started_, index);
  return true;
}

Coordinator::MeetResult Coordinator::Meet(bool failed) {
  aiacc::common::MutexLock lock(mu_);
  const std::uint64_t generation = generation_;
  any_failed_ = any_failed_ || failed;
  if (++arrived_ == world_) {
    segment_ = on_meet_(any_failed_);
    max_started_ = -1;
    arrived_ = 0;
    any_failed_ = false;
    ++generation_;
    cv_.NotifyAll();
    return MeetResult::kCompleted;
  }
  const auto deadline = Clock::now() + meet_timeout_;
  while (generation_ == generation) {
    if (cv_.WaitUntil(lock, deadline) == std::cv_status::timeout &&
        generation_ == generation) {
      // Leave so the meet cannot complete (and destroy the engine) while
      // this rank pokes it; the caller re-arrives afterwards.
      --arrived_;
      return MeetResult::kTimedOut;
    }
  }
  return MeetResult::kCompleted;
}

}  // namespace enginebench
