// Concurrency primitives for the whole repository: the ONLY place where
// std::mutex / std::condition_variable may appear (the banned-token check
// of tools/aiacc_analyzer enforces this as a ctest). Everything else locks
// through these wrappers, which buys two machine-checked guarantees:
//
//   1. Static race detection. The wrappers carry Clang thread-safety
//      annotations (CAPABILITY / GUARDED_BY / REQUIRES / ACQUIRE / RELEASE /
//      EXCLUDES). Under Clang the build runs with
//      `-Wthread-safety -Werror=thread-safety`, so reading a GUARDED_BY
//      member without its mutex is a *compile error*, not a TSan lottery
//      ticket. Under GCC the macros expand to nothing.
//
//   2. Dynamic deadlock detection. Every Mutex has a name and an optional
//      lock *rank*. A per-thread held-lock stack checks each acquisition:
//      re-acquiring a held mutex (self-deadlock) or acquiring a ranked mutex
//      while holding one of equal/higher rank (an inversion of the documented
//      lock hierarchy — see lock_rank below and DESIGN.md "Concurrency
//      invariants") aborts immediately with both locks' names and the full
//      held stack, instead of deadlocking some unlucky run later. The checks
//      are on in every build except release-bench
//      (-DAIACC_NO_LOCK_ORDER_CHECKS).
//
// Adding a new lock: pick the rank band it belongs to from lock_rank (the
// rank must be strictly greater than every lock that may be held when it is
// acquired), give it a descriptive name, and annotate the state it protects
// with GUARDED_BY. Unranked locks (kNoRank) opt out of order checking but
// are still self-deadlock checked — use a rank unless the lock is a leaf
// local to one function.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Clang thread-safety analysis attributes (no-ops elsewhere). Mirrors the
// attribute set documented at
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html.
// ---------------------------------------------------------------------------
#if defined(__clang__) && (!defined(SWIG))
#define AIACC_TSA(x) __attribute__((x))
#else
#define AIACC_TSA(x)  // no-op
#endif

#define CAPABILITY(x) AIACC_TSA(capability(x))
#define SCOPED_CAPABILITY AIACC_TSA(scoped_lockable)
#define GUARDED_BY(x) AIACC_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) AIACC_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) AIACC_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) AIACC_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) AIACC_TSA(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) AIACC_TSA(acquire_capability(__VA_ARGS__))
#define RELEASE(...) AIACC_TSA(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) AIACC_TSA(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) AIACC_TSA(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) AIACC_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS AIACC_TSA(no_thread_safety_analysis)

namespace aiacc::common {

/// Rank of a lock that opts out of acquisition-order checking.
inline constexpr int kNoRank = -1;

/// The repository lock hierarchy, highest level first. A thread may acquire
/// a ranked mutex only while every ranked mutex it already holds has a
/// *strictly smaller* rank — i.e. locks are always taken top-down through
/// this list. Leave gaps when adding bands so new layers fit without
/// renumbering. DESIGN.md "Concurrency invariants" documents who nests in
/// whom and why.
namespace lock_rank {
inline constexpr int kTrainer = 50;         // trainer/recovery result locks
inline constexpr int kEngineState = 100;    // per-rank engine state + finalize
inline constexpr int kEngineAbort = 150;    // engine abort status/suspects
inline constexpr int kChannelWorkers = 200; // multi-channel worker reservation
inline constexpr int kChannelHealth = 250;  // channel health tracker state
inline constexpr int kQueue = 300;          // Blocking/Bounded queue internals
inline constexpr int kThreadPool = 400;     // ThreadPool threads/idle tracking
inline constexpr int kReliableTransport = 450;  // reliable-delivery tx/rx maps
                                            // (below kTransport: the
                                            // retransmit daemon calls into
                                            // the decorated faulty/inproc
                                            // transport while holding it)
inline constexpr int kTransport = 500;      // transport decorators (faulty)
inline constexpr int kMailbox = 600;        // inproc mailboxes + barrier
inline constexpr int kBufferPool = 700;     // buffer-pool size classes
inline constexpr int kTelemetry = 750;      // metrics registry + trace rings:
                                            // touchable from under any
                                            // runtime lock; may only log
inline constexpr int kLogSink = 800;        // log sink: a leaf, loggable from
                                            // under any other lock
}  // namespace lock_rank

/// A std::mutex with a name, an optional lock rank, and Clang capability
/// annotations. Prefer MutexLock for scoped acquisition; Lock/Unlock exist
/// for the rare manual pattern.
class CAPABILITY("mutex") Mutex {
 public:
  /// `name` must outlive the mutex (string literals only, by convention);
  /// it is what the deadlock detector prints. `rank` places the lock in the
  /// global hierarchy (see lock_rank); kNoRank skips order checking.
  explicit Mutex(const char* name, int rank = kNoRank) noexcept
      : name_(name), rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE();
  void Unlock() RELEASE();

  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] int rank() const noexcept { return rank_; }

 private:
  friend class MutexLock;
  friend class CondVar;

  std::mutex mu_;
  const char* const name_;
  const int rank_;
};

namespace sync_internal {
/// Validate an acquisition against this thread's held-lock stack; aborts
/// with a diagnostic naming both locks on self-deadlock or rank inversion.
/// Called *before* blocking on the mutex so bugs abort instead of hanging.
void CheckAcquire(const Mutex* m);
/// Push/pop the held-lock stack (pop tolerates out-of-order release).
void RecordAcquire(const Mutex* m);
void RecordRelease(const Mutex* m);
/// Locks currently held by the calling thread (tests/debugging).
std::size_t HeldLockCount();
}  // namespace sync_internal

/// RAII lock covering a scope; the annotated replacement for
/// std::lock_guard / std::unique_lock. Supports early Unlock() (e.g. to
/// notify after releasing) and lends its underlying lock to CondVar waits.
/// All deadlock-detector bookkeeping lives in Mutex::Lock/Unlock, so the
/// detector gate (AIACC_NO_LOCK_ORDER_CHECKS) only affects sync.cpp.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() {
    if (held_) mu_.Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Release before the end of the scope (the lock stays released).
  void Unlock() RELEASE() {
    held_ = false;
    mu_.Unlock();
  }

  [[nodiscard]] const Mutex& mutex() const noexcept { return mu_; }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_ = true;
};

/// Condition variable bound to Mutex/MutexLock. No predicate overloads on
/// purpose: write the wait loop inline (`while (!ready_) cv_.Wait(lock);`)
/// so Clang's analysis sees the guarded predicate read under the lock —
/// a lambda predicate would be analysed as an unlocked function.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `lock`, sleep, re-acquire. The lock's entry stays on
  /// the holder's lock stack for the duration (the thread cannot acquire
  /// anything else while asleep, and it holds the lock again on return).
  void Wait(MutexLock& lock) {
    std::unique_lock<std::mutex> native = Adopt(lock);
    cv_.wait(native);
    native.release();  // ownership stays with the MutexLock
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& d) {
    std::unique_lock<std::mutex> native = Adopt(lock);
    const std::cv_status status = cv_.wait_for(native, d);
    native.release();
    return status;
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> native = Adopt(lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  void NotifyOne() noexcept { cv_.notify_one(); }
  void NotifyAll() noexcept { cv_.notify_all(); }

 private:
  /// Borrow the already-held native mutex for the duration of one wait.
  static std::unique_lock<std::mutex> Adopt(MutexLock& lock) noexcept {
    return std::unique_lock<std::mutex>(lock.mu_.mu_, std::adopt_lock);
  }

  std::condition_variable cv_;
};

}  // namespace aiacc::common
