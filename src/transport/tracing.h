// Causal-tracing decorator: the observability tier of the transport stack
// (DESIGN.md §7). TracingTransport sits on *top* of the stack
// (inproc -> faulty -> reliable -> tracing) and gives every frame a wire
// trace context (telemetry/trace_context.h):
//
//   * Send appends the stamp trailer — origin rank, per-origin message id,
//     hybrid-logical-clock timestamp — and records a Chrome flow *start*
//     event on the calling thread's lane;
//   * Recv/RecvFor/TryRecv strip the trailer, fold the sender's HLC into
//     the receiving rank's clock, and record the matching flow *end* —
//     binding the recv span to the originating send span across ranks;
//   * both ends derive the flow id from the stamp alone, so no side
//     channel or coordination exists between sender and receiver.
//
// Stamping is decided when the stack is built (transport/stack.h), never
// mid-flight: a stack either has this layer or not, and sender and receiver
// run through the same decorator instance, so every frame is stamped — a
// frame can never race an enable/disable edge and arrive half-interpreted.
// Flow *events* are additionally gated on the global tracer being enabled,
// so a stamped stack with tracing off only pays the trailer copy; a stack
// without this layer pays nothing.
//
// Zero-alloc: the stamped wire copy comes from a BufferPool (the original
// body is released back), and stripping shrinks in place — the steady
// state of a fixed communication pattern performs no payload allocations
// (asserted in tests/observability_test.cpp).
//
// Clock skew: per-rank synthetic offsets (`rank_skew_ns`) shift the
// physical clock feeding each rank's HLC and are how single-process tests
// and the bench smoke model N machines with disagreeing clocks — the
// offsets are recovered by telemetry::MergeTraces from the flow edges.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/buffer_pool.h"
#include "telemetry/trace_context.h"
#include "telemetry/tracer.h"
#include "transport/inproc.h"

namespace aiacc::transport {

struct TracingOptions {
  /// Buffer recycler for the stamped wire copies.
  common::BufferPool* pool = &common::BufferPool::Global();
  /// Tracer receiving flow events (nullptr = the process-global tracer).
  telemetry::RuntimeTracer* tracer = nullptr;
  /// Synthetic per-rank clock offset added to the physical time feeding
  /// that rank's HLC (ns; shorter than world -> missing ranks read 0).
  /// Test-only: models per-machine clock skew inside one process.
  std::vector<std::int64_t> rank_skew_ns;
};

/// What the tracing layer did (per instance).
struct TracingStats {
  std::uint64_t stamped = 0;        // frames sent with a trailer
  std::uint64_t stripped = 0;       // trailers parsed + removed on receive
  std::uint64_t parse_failures = 0; // expected a stamp, lanes did not parse
};

class TracingTransport final : public Transport {
 public:
  /// `inner` must outlive this decorator.
  explicit TracingTransport(Transport& inner, TracingOptions options = {});
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }

  void Send(int src, int dst, int tag, Payload payload) override;
  Result<Payload> Recv(int rank, int src, int tag) override;
  Result<Payload> RecvFor(int rank, int src, int tag,
                          std::chrono::milliseconds timeout) override;
  std::optional<Payload> TryRecv(int rank, int src, int tag) override;

  void Shutdown() override { inner_.Shutdown(); }
  [[nodiscard]] bool IsShutdown() const noexcept override {
    return inner_.IsShutdown();
  }
  Status Barrier() override { return inner_.Barrier(); }
  [[nodiscard]] std::uint64_t TotalMessages() const override {
    return inner_.TotalMessages();
  }

  [[nodiscard]] TracingStats stats() const noexcept;
  /// Current HLC value of `rank`'s clock (tests assert causal ordering).
  [[nodiscard]] std::int64_t HlcNow(int rank) const noexcept {
    return clocks_[static_cast<std::size_t>(rank)].last();
  }

 private:
  /// Physical ns feeding `rank`'s HLC (tracer clock + injected skew).
  [[nodiscard]] std::int64_t PhysicalNow(int rank) const noexcept;
  /// Strip + account an inbound frame in place.
  void Unstamp(int rank, Payload& payload);

  Transport& inner_;  // NOLOCK(internally synchronized Transport)
  const TracingOptions options_;
  common::BufferPool& pool_;             // NOLOCK(internally synchronized)
  telemetry::RuntimeTracer& tracer_;     // NOLOCK(internally synchronized)
  // Per-rank clocks/counters; sized at construction, entries are atomic.
  std::vector<telemetry::HybridLogicalClock> clocks_;  // NOLOCK(atomic entries)
  std::vector<std::atomic<std::uint32_t>> next_msg_id_;  // NOLOCK(atomic entries)
  std::atomic<std::uint64_t> stamped_{0};
  std::atomic<std::uint64_t> stripped_{0};
  std::atomic<std::uint64_t> parse_failures_{0};
};

}  // namespace aiacc::transport
