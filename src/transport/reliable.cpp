#include "transport/reliable.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "transport/crc32.h"

namespace aiacc::transport {
namespace {

// Frame layout (float lanes). Header values are small non-negative
// integers, each exactly representable as a float.
//   [0] kind   (1 = data, 2 = ack)
//   [1] seq    (data: frame sequence number; ack: acknowledged sequence)
//   [2] crc hi (upper 16 bits of the CRC32)
//   [3] crc lo (lower 16 bits)
//   [4..] body (data frames only)
constexpr std::size_t kHeaderLanes = 4;
constexpr float kKindData = 1.0f;
constexpr float kKindAck = 2.0f;
/// Last exactly float-representable integer; bounds both seq and the
/// 16-bit CRC halves with huge headroom.
constexpr std::uint64_t kMaxSeq = 1ULL << 24;

/// CRC32 (crc32.h) over the frame's kind, seq, and body bytes — the header
/// fields are covered so a corrupted seq lane is detected, not misfiled as a
/// different message.
std::uint32_t FrameCrc(float kind, std::uint64_t seq, const float* body,
                       std::size_t body_lanes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  crc = Crc32Update(crc, &kind, sizeof(kind));
  crc = Crc32Update(crc, &seq, sizeof(seq));
  crc = Crc32Update(crc, body, body_lanes * sizeof(float));
  return crc ^ 0xFFFFFFFFu;
}

/// A pooled wire frame: the four header lanes followed by a copy of `body`
/// (empty for acks). The only payload copy a (re)transmission makes.
Payload BuildFrame(common::BufferPool& pool, float kind, std::uint64_t seq,
                   std::uint32_t crc, std::span<const float> body) {
  Payload wire = pool.Acquire(kHeaderLanes + body.size());
  wire[0] = kind;
  wire[1] = static_cast<float>(seq);
  wire[2] = static_cast<float>(crc >> 16);
  wire[3] = static_cast<float>(crc & 0xFFFFu);
  std::copy(body.begin(), body.end(), wire.begin() + kHeaderLanes);
  return wire;
}

/// A float lane that must hold a small non-negative integer; nullopt when
/// corruption turned it into anything else (NaN, fraction, out of range).
std::optional<std::uint64_t> IntLane(float v, std::uint64_t limit) {
  if (!std::isfinite(v) || v < 0.0f) return std::nullopt;
  const auto u = static_cast<std::uint64_t>(v);
  if (static_cast<float>(u) != v || u >= limit) return std::nullopt;
  return u;
}

// Process-global telemetry: registered once, then relaxed atomic adds.
telemetry::Counter& RetransmitCounter() {
  static telemetry::Counter* c = &telemetry::MetricsRegistry::Global()
                                      .GetCounter("reliable.retransmits");
  return *c;
}
telemetry::Counter& CrcFailureCounter() {
  static telemetry::Counter* c = &telemetry::MetricsRegistry::Global()
                                      .GetCounter("reliable.crc_failures");
  return *c;
}
telemetry::Counter& DeliveryFailureCounter() {
  static telemetry::Counter* c =
      &telemetry::MetricsRegistry::Global().GetCounter(
          "reliable.delivery_failures");
  return *c;
}
telemetry::Counter& AckCounter() {
  static telemetry::Counter* c =
      &telemetry::MetricsRegistry::Global().GetCounter("reliable.acks");
  return *c;
}

}  // namespace

ReliableTransport::ReliableTransport(Transport& inner, ReliableOptions options)
    : inner_(inner),
      options_(options),
      pool_(options.pool != nullptr ? *options.pool
                                    : common::BufferPool::Global()) {
  AIACC_CHECK(options_.rto_initial_ms > 0);
  AIACC_CHECK(options_.rto_max_ms >= options_.rto_initial_ms);
  AIACC_CHECK(options_.daemon_tick_ms > 0);
  daemon_ = std::thread([this] { DaemonLoop(); });
}

ReliableTransport::~ReliableTransport() {
  stop_.store(true, std::memory_order_release);
  if (daemon_.joinable()) daemon_.join();
  // Hand every retained buffer back to the pool (no-op for an empty run).
  common::MutexLock lock(mu_);
  for (auto& [key, ch] : tx_) {
    for (auto& [seq, frame] : ch.inflight) pool_.Release(std::move(frame.body));
    ch.inflight.clear();
  }
  for (auto& [key, ch] : rx_) {
    for (auto& [seq, body] : ch.stash) pool_.Release(std::move(body));
    ch.stash.clear();
  }
}

void ReliableTransport::Send(int src, int dst, int tag, Payload payload) {
  // mu_ covers only the sequence allocation and the inflight insert; the
  // CRC and the frame build run unlocked, so concurrent streams overlap.
  // Channel map nodes are never erased, so the pointers stay valid.
  TxChannel* ch = nullptr;
  const RxChannel* ack_box = nullptr;  // this channel's ack mailbox state
  std::uint64_t seq = 0;
  {
    common::MutexLock lock(mu_);
    ch = &tx_[{src, dst, tag}];
    ack_box = &rx_[{src, dst, tag}];
    seq = ch->next_seq++;
  }
  AIACC_CHECK(seq < kMaxSeq);
  const std::uint32_t crc =
      FrameCrc(kKindData, seq, payload.data(), payload.size());
  Payload wire = BuildFrame(pool_, kKindData, seq, crc, payload);
  bool drain_acks = false;
  {
    common::MutexLock lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    // The caller's payload itself is the retransmit source.
    TxFrame& frame = ch->inflight[seq];
    frame.body = std::move(payload);
    frame.crc = crc;
    frame.first_sent = now;
    frame.rto_ms = options_.rto_initial_ms;
    frame.next_resend = now + std::chrono::milliseconds(frame.rto_ms);
    ++stats_.data_frames_sent;
    drain_acks = ack_box->consumers == 0;
  }
  // Outside the mutex: a fault decorator may sleep inside Send.
  inner_.Send(src, dst, tag, std::move(wire));
  // Retire whatever acks already came back (same rule as the daemon: only
  // when no consumer pulls this mailbox), so acked bodies return to the
  // pool now rather than at the next daemon tick.
  if (drain_acks) {
    FrameList acks;
    DrainMailbox(src, dst, tag, acks);
    SendAll(acks);
  }
}

void ReliableTransport::ProcessRawFrame(int rank, int src, int tag,
                                        Payload frame, FrameList& acks_out) {
  const auto reject = [&](Payload&& p) {
    CrcFailureCounter().Add();
    telemetry::FlightRecorder::Global().Record(
        telemetry::FlightSeverity::kWarn, "transport.reliable", "crc-discard",
        rank, /*channel=*/-1, tag, /*detail0=*/src);
    {
      common::MutexLock lock(mu_);
      ++stats_.crc_failures;
    }
    pool_.Release(std::move(p));
  };
  if (frame.size() < kHeaderLanes) return reject(std::move(frame));
  const float kind = frame[0];
  if (kind != kKindData && kind != kKindAck) return reject(std::move(frame));
  const auto seq = IntLane(frame[1], kMaxSeq);
  const auto crc_hi = IntLane(frame[2], 1ULL << 16);
  const auto crc_lo = IntLane(frame[3], 1ULL << 16);
  if (!seq || !crc_hi || !crc_lo) return reject(std::move(frame));
  const std::size_t body_lanes = frame.size() - kHeaderLanes;
  if (kind == kKindAck && body_lanes != 0) return reject(std::move(frame));
  const auto stored =
      static_cast<std::uint32_t>((*crc_hi << 16) | *crc_lo);
  if (FrameCrc(kind, *seq, frame.data() + kHeaderLanes, body_lanes) !=
      stored) {
    return reject(std::move(frame));
  }

  if (kind == kKindAck) {
    std::optional<Payload> acked;  // the retained body this ack retires
    {
      common::MutexLock lock(mu_);
      // An ack arriving at `rank` from `src` acknowledges a frame `rank`
      // sent to `src` on this tag.
      auto it = tx_.find({rank, src, tag});
      if (it != tx_.end()) {
        auto fit = it->second.inflight.find(*seq);
        if (fit != it->second.inflight.end()) {
          acked = std::move(fit->second.body);
          it->second.inflight.erase(fit);
        }
      }
      ++stats_.acks_received;
    }
    if (acked) pool_.Release(*std::move(acked));
    pool_.Release(std::move(frame));
    return;
  }

  // Data frame: strip the header in place (the frame's buffer becomes the
  // delivered body), stash in order, ack unconditionally (a lost ack shows
  // up here as a duplicate — the re-ack is what stops its retransmits).
  frame.erase(frame.begin(),
              frame.begin() + static_cast<std::ptrdiff_t>(kHeaderLanes));
  Payload ack = BuildFrame(pool_, kKindAck, *seq,
                           FrameCrc(kKindAck, *seq, nullptr, 0), {});
  bool duplicate = false;
  {
    common::MutexLock lock(mu_);
    RxChannel& ch = rx_[{rank, src, tag}];
    duplicate = *seq < ch.expected || ch.stash.count(*seq) != 0;
    if (duplicate) {
      ++stats_.duplicates_discarded;
    } else {
      ch.stash.emplace(*seq, std::move(frame));
    }
    ++stats_.acks_sent;
  }
  if (duplicate) pool_.Release(std::move(frame));
  AckCounter().Add();
  acks_out.emplace_back(rank, src, tag, std::move(ack));
}

void ReliableTransport::DrainMailbox(int rank, int src, int tag,
                                     FrameList& acks_out) {
  while (auto raw = inner_.TryRecv(rank, src, tag)) {
    ProcessRawFrame(rank, src, tag, *std::move(raw), acks_out);
  }
}

void ReliableTransport::SendAll(FrameList& frames) {
  for (auto& [s, d, t, frame] : frames) inner_.Send(s, d, t, std::move(frame));
  frames.clear();
}

std::optional<Payload> ReliableTransport::TakeExpectedLocked(RxChannel& ch) {
  auto it = ch.stash.find(ch.expected);
  if (it == ch.stash.end()) return std::nullopt;
  Payload body = std::move(it->second);
  ch.stash.erase(it);
  ++ch.expected;
  ++stats_.delivered;
  return body;
}

Result<Payload> ReliableTransport::Recv(int rank, int src, int tag) {
  return RecvFor(rank, src, tag, kNoTimeout);
}

Result<Payload> ReliableTransport::RecvFor(int rank, int src, int tag,
                                           std::chrono::milliseconds timeout) {
  const bool bounded = timeout > kNoTimeout;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Short pull quantum: a frame the daemon stashed just before this
  // consumer registered is picked up at the next stash check. Frames that
  // arrive while we are blocked below wake us immediately via the inner
  // transport's own CV.
  constexpr auto kQuantum = std::chrono::milliseconds(2);
  // While a consumer is pulling this channel the daemon leaves its inner
  // mailbox alone (frames flow to the thread that wants them).
  {
    common::MutexLock lock(mu_);
    ++rx_[{rank, src, tag}].consumers;
  }
  FrameList acks;
  const auto finish = [&](Result<Payload> r) -> Result<Payload> {
    common::MutexLock lock(mu_);
    --rx_[{rank, src, tag}].consumers;
    return r;
  };
  while (true) {
    {
      common::MutexLock lock(mu_);
      RxChannel& ch = rx_[{rank, src, tag}];
      if (auto body = TakeExpectedLocked(ch)) {
        --ch.consumers;
        AIACC_TRACE_INSTANT_V("transport", "recv");
        return *std::move(body);
      }
    }
    if (inner_.IsShutdown()) {
      return finish(Unavailable("reliable transport shut down"));
    }
    auto wait = kQuantum;
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining <= std::chrono::milliseconds::zero()) {
        return finish(DeadlineExceeded(
            "no in-order reliable message from rank " + std::to_string(src) +
            " tag " + std::to_string(tag)));
      }
      wait = std::min(wait, remaining);
    }
    Result<Payload> raw = inner_.RecvFor(rank, src, tag, wait);
    if (raw.ok()) {
      ProcessRawFrame(rank, src, tag, *std::move(raw), acks);
      SendAll(acks);
    } else if (raw.status().code() != StatusCode::kDeadlineExceeded &&
               raw.status().code() != StatusCode::kUnavailable) {
      return finish(raw.status());
    }
    // Quantum expiry / shutdown race: loop re-checks stash and deadline.
  }
}

std::optional<Payload> ReliableTransport::TryRecv(int rank, int src, int tag) {
  FrameList acks;
  DrainMailbox(rank, src, tag, acks);
  SendAll(acks);
  common::MutexLock lock(mu_);
  RxChannel& ch = rx_[{rank, src, tag}];
  auto body = TakeExpectedLocked(ch);
  if (body) AIACC_TRACE_INSTANT_V("transport", "recv");
  return body;
}

void ReliableTransport::Shutdown() {
  stop_.store(true, std::memory_order_release);
  inner_.Shutdown();
}

ReliableStats ReliableTransport::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

void ReliableTransport::DaemonLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    DaemonTick();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.daemon_tick_ms));
  }
}

void ReliableTransport::DaemonTick() {
  // 1. Drain inner mailboxes no consumer is watching — this is how a pure
  //    sender ever sees its acks (and how early frames of a not-yet-started
  //    receiver get stashed + acked instead of rotting unacknowledged).
  std::vector<ChannelKey> to_poll;
  {
    common::MutexLock lock(mu_);
    for (const auto& [key, ch] : tx_) {
      const auto& [src, dst, tag] = key;
      RxChannel& rx = rx_[{src, dst, tag}];
      if (rx.consumers == 0) to_poll.emplace_back(src, dst, tag);
    }
  }
  FrameList acks;
  for (const auto& [rank, src, tag] : to_poll) {
    DrainMailbox(rank, src, tag, acks);
  }
  SendAll(acks);

  // 2. Retransmit overdue frames; expire frames past the message deadline.
  FrameList resend;
  std::vector<Payload> expired;
  std::uint64_t expired_count = 0;
  std::uint64_t resent_count = 0;
  {
    common::MutexLock lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (auto& [key, ch] : tx_) {
      const auto& [src, dst, tag] = key;
      for (auto it = ch.inflight.begin(); it != ch.inflight.end();) {
        TxFrame& frame = it->second;
        if (options_.message_deadline_ms > 0 &&
            now - frame.first_sent >= std::chrono::milliseconds(
                                          options_.message_deadline_ms)) {
          telemetry::FlightRecorder::Global().Record(
              telemetry::FlightSeverity::kError, "transport.reliable",
              "delivery-failure", src, /*channel=*/-1, tag,
              /*detail0=*/dst, /*detail1=*/it->first);
          expired.push_back(std::move(frame.body));
          it = ch.inflight.erase(it);
          ++stats_.delivery_failures;
          ++expired_count;
          continue;
        }
        if (now >= frame.next_resend) {
          // Rebuilt from the retained body under mu_: an ack may retire
          // the frame the moment the lock drops. Clean runs rarely get here.
          resend.emplace_back(src, dst, tag,
                              BuildFrame(pool_, kKindData, it->first,
                                         frame.crc, frame.body));
          frame.rto_ms = std::min(frame.rto_ms * 2, options_.rto_max_ms);
          frame.next_resend = now + std::chrono::milliseconds(frame.rto_ms);
          ++stats_.retransmits;
          ++resent_count;
        }
        ++it;
      }
    }
  }
  if (resent_count > 0) RetransmitCounter().Add(resent_count);
  if (expired_count > 0) DeliveryFailureCounter().Add(expired_count);
  for (auto& [s, d, t, clone] : resend) {
    if (inner_.IsShutdown()) {
      pool_.Release(std::move(clone));
      continue;
    }
    inner_.Send(s, d, t, std::move(clone));
  }
  for (Payload& p : expired) pool_.Release(std::move(p));
}

}  // namespace aiacc::transport
