// Minimal self-contained stubs mirroring the repo's idioms so analyzer
// fixtures compile standalone under the clang frontend (no repo headers,
// no link step). The lite frontend never needs this header — it resolves
// Send/Recv/Acquire/... signatures from the real src/ tree — but the
// names and return types here MUST stay in sync with src/common and
// src/transport or the two frontends would disagree on the fixtures.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace common {

class Status {
 public:
  Status() = default;
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] int code() const { return 0; }
  static Status Ok() { return Status(); }

 private:
  bool ok_ = true;
};

template <typename T>
class Result {
 public:
  Result(T v) : value_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  [[nodiscard]] bool ok() const { return true; }
  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] T& value() { return value_; }

 private:
  Status status_;
  T value_;
};

using Buffer = std::vector<float>;

class BufferPool {
 public:
  [[nodiscard]] Buffer Acquire(std::size_t n) { return Buffer(n); }
  void Release(Buffer&& b) { b.clear(); }
};

// Same queue shape as src/common/queues.h; only the operations the
// priority-ordering check keys on.
template <typename T>
class BlockingQueue {
 public:
  void Push(T value) { (void)value; }
  bool Pop(T& out) {
    (void)out;
    return false;
  }
};

// Thread-safety annotation (no-op here, as under GCC).
#define GUARDED_BY(x)

class Mutex {};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu) : mu_(mu) {}
  void Unlock() { mu_ = nullptr; }

 private:
  Mutex* mu_;
};

class CondVar {
 public:
  void Wait(MutexLock& lock) { (void)lock; }
  void NotifyAll() {}
};

}  // namespace common

namespace transport {

using Payload = std::vector<float>;

class Transport {
 public:
  common::Status Send(int src, int dst, int tag, Payload p);
  common::Result<Payload> Recv(int rank, int src, int tag);
  common::Status Barrier();
};

}  // namespace transport

namespace core {

// Mirrors src/core/packing.h's dispatch unit closely enough for the
// priority-ordering fixtures.
struct AllReduceUnit {
  std::vector<float> payload;
};

// The sanctioned dispatch surface (src/core/scheduler.h): the good
// fixture routes every unit through it.
class ReadySetScheduler {
 public:
  void Push(AllReduceUnit unit) { (void)unit; }
  bool PopFor(int stream, AllReduceUnit& out) {
    (void)stream;
    (void)out;
    return false;
  }
};

}  // namespace core

namespace compress {

// Same validation-Status shape as src/compress/codec.h.
common::Status SparseDecodeAccumulate(int spec,
                                      const std::vector<float>& wire,
                                      std::vector<float>& dst);

}  // namespace compress
