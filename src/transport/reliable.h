// Reliable delivery decorator: the in-band retry tier of the three-tier
// fault story (DESIGN.md "Fault model & recovery"). ReliableTransport sits
// between the collectives and a lossy transport (a FaultyTransport in *raw*
// delivery mode today; a real socket transport tomorrow) and restores
// exactly-once, in-order, integrity-checked delivery:
//
//   * every Send is framed with a per-(src, dst, tag) sequence number and a
//     CRC32 over the body, split across two 16-bit float lanes (a uint32 is
//     not exactly representable as one float; two 16-bit halves are);
//   * the receiver acks each data frame (selective ack, same tag, demuxed
//     from data by a kind lane — necessary because AllToAll runs both
//     directions of a rank pair on one tag); duplicates are re-acked and
//     discarded, out-of-order arrivals are stashed and delivered in order;
//   * the sender retains the caller's payload (not a wire copy) of every
//     unacked frame, with its CRC, and builds the wire frame from it at each
//     (re)send — one body copy per transmission. A background retransmit
//     daemon resends on a capped exponential backoff (rto_initial_ms
//     doubling to rto_max_ms) until the ack arrives or the per-message
//     deadline expires — at which point the message is dropped and the
//     *receiver's* RecvFor deadline surfaces the failure to tier 2
//     (channel quarantine) or tier 3 (checkpoint recovery);
//   * a corrupted frame fails its CRC, is counted and discarded, and heals
//     through the normal retransmit path — corruption is just loss.
//
// All wire frames, retained bodies and delivered bodies are pooled (a
// received frame becomes the delivered body by stripping its header in
// place), so the steady state of a fixed communication pattern performs
// zero payload allocations even while retransmitting (asserted in
// tests/reliable_test).
//
// Concurrency: one internal mutex (lock_rank::kReliableTransport, *below*
// kTransport so the daemon may call into a decorated FaultyTransport while
// holding it) guards the tx/rx channel maps and nothing else: sequence
// allocation, inflight insert/erase, stash and counters. CRC computation,
// frame builds and header strips run outside it, so concurrent streams
// only serialize on map bookkeeping. Consumers pull their own (src, tag)
// channel from the inner transport in short quanta and feed every frame
// (data or ack) through the shared demux. A sender retires the acks
// waiting in its own channel's mailbox right after each Send, and the
// daemon drains every channel with no active consumer each tick, so acks
// never rot in an unread mailbox. Sends to the inner transport happen
// *outside* the mutex (a fault decorator may sleep in Send).
//
// Telemetry (process registry): `reliable.retransmits`,
// `reliable.crc_failures`, `reliable.delivery_failures`, `reliable.acks`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "common/buffer_pool.h"
#include "common/status.h"
#include "common/sync.h"
#include "transport/inproc.h"

namespace aiacc::transport {

/// Retransmission policy. Defaults suit the in-process chaos tests (RTTs of
/// microseconds, fault-injected delays of milliseconds).
struct ReliableOptions {
  /// First retransmit fires this long after the original send.
  std::int64_t rto_initial_ms = 10;
  /// Backoff cap: rto doubles per retransmit up to this.
  std::int64_t rto_max_ms = 160;
  /// Give up retransmitting a frame this long after its first send (<= 0 =
  /// retry forever). A dropped frame becomes the receiver's RecvFor
  /// deadline problem — the hand-off from tier 1 to tiers 2/3.
  std::int64_t message_deadline_ms = 10000;
  /// Retransmit-daemon scan period.
  std::int64_t daemon_tick_ms = 1;
  /// Buffer recycler for retransmit copies and delivered bodies.
  common::BufferPool* pool = &common::BufferPool::Global();
};

/// What the reliability layer did (per instance; the process-global
/// telemetry counters aggregate across instances).
struct ReliableStats {
  std::uint64_t data_frames_sent = 0;  // first transmissions
  std::uint64_t retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t crc_failures = 0;      // frames discarded on checksum
  std::uint64_t duplicates_discarded = 0;
  std::uint64_t delivery_failures = 0; // frames given up after deadline
  std::uint64_t delivered = 0;         // bodies handed to consumers
};

class ReliableTransport final : public Transport {
 public:
  /// `inner` must outlive this decorator. Over a FaultyTransport, build
  /// both through transport::TransportStack, which runs the fault layer in
  /// raw delivery (strict mode would add a second, redundant sequencing
  /// layer under this one).
  explicit ReliableTransport(Transport& inner, ReliableOptions options = {});
  ~ReliableTransport() override;
  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }

  void Send(int src, int dst, int tag, Payload payload) override;
  Result<Payload> Recv(int rank, int src, int tag) override;
  Result<Payload> RecvFor(int rank, int src, int tag,
                          std::chrono::milliseconds timeout) override;
  /// Non-blocking, but still strict: delivers only the next in-order frame
  /// (after draining whatever the inner transport has pending). Reliable
  /// channels never skip gaps — a gap is a retransmit in flight.
  std::optional<Payload> TryRecv(int rank, int src, int tag) override;

  void Shutdown() override;
  [[nodiscard]] bool IsShutdown() const noexcept override {
    return inner_.IsShutdown();
  }
  Status Barrier() override { return inner_.Barrier(); }
  [[nodiscard]] std::uint64_t TotalMessages() const override {
    return inner_.TotalMessages();
  }

  [[nodiscard]] ReliableStats stats() const;
  [[nodiscard]] const ReliableOptions& options() const noexcept {
    return options_;
  }

 private:
  using ChannelKey = std::tuple<int, int, int>;

  /// One unacked frame: the caller's body, its frame CRC, and its
  /// retransmit clock. The wire frame is rebuilt from these at each resend.
  struct TxFrame {
    Payload body;
    std::uint32_t crc = 0;
    std::chrono::steady_clock::time_point first_sent;
    std::chrono::steady_clock::time_point next_resend;
    std::int64_t rto_ms = 0;
  };
  struct TxChannel {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, TxFrame> inflight;
  };
  struct RxChannel {
    std::uint64_t expected = 0;
    std::map<std::uint64_t, Payload> stash;  // out-of-order bodies
    int consumers = 0;  // active Recv/RecvFor pullers (daemon skips if > 0)
  };

  /// Frames to hand to the inner transport, as (src, dst, tag, frame).
  using FrameList = std::vector<std::tuple<int, int, int, Payload>>;

  /// Feed one raw frame from the inner transport through the demux;
  /// collects any ack frame to send into `acks_out` (sent by the caller
  /// outside the mutex). `rank` is the receiving rank, `src` the peer.
  void ProcessRawFrame(int rank, int src, int tag, Payload frame,
                       FrameList& acks_out);
  /// Feed everything pending in the inner (rank, src, tag) mailbox through
  /// ProcessRawFrame, without blocking.
  void DrainMailbox(int rank, int src, int tag, FrameList& acks_out);
  /// Send every collected frame on the inner transport; empties `frames`.
  void SendAll(FrameList& frames);
  /// Take the next in-order body if present.
  std::optional<Payload> TakeExpectedLocked(RxChannel& ch) REQUIRES(mu_);
  void DaemonLoop();
  /// One daemon pass: drain unconsumed channels, retransmit, expire.
  void DaemonTick();

  Transport& inner_;  // NOLOCK(internally synchronized Transport)
  const ReliableOptions options_;
  common::BufferPool& pool_;  // NOLOCK(internally synchronized)

  mutable common::Mutex mu_{"reliable-transport",
                            common::lock_rank::kReliableTransport};
  std::map<ChannelKey, TxChannel> tx_ GUARDED_BY(mu_);  // (src, dst, tag)
  std::map<ChannelKey, RxChannel> rx_ GUARDED_BY(mu_);  // (rank, src, tag)
  ReliableStats stats_ GUARDED_BY(mu_);

  std::atomic<bool> stop_{false};
  std::thread daemon_;  // NOLOCK(started in ctor, joined in dtor)
};

}  // namespace aiacc::transport
