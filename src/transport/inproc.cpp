#include "transport/inproc.h"

#include "common/logging.h"
#include "telemetry/tracer.h"

namespace aiacc::transport {

InProcTransport::InProcTransport(int world_size)
    : world_size_(world_size),
      mailboxes_(static_cast<std::size_t>(world_size)) {
  AIACC_CHECK(world_size >= 1);
}

InProcTransport::Slot& InProcTransport::SlotFor(Mailbox& box, int src,
                                                int tag) {
  return box.slots[{src, tag}];  // map nodes are stable; never erased
}

void InProcTransport::Send(int src, int dst, int tag, Payload payload) {
  AIACC_CHECK(src >= 0 && src < world_size_);
  AIACC_CHECK(dst >= 0 && dst < world_size_);
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  const std::uint64_t bytes = payload.size() * sizeof(float);
  Slot* slot;
  {
    common::MutexLock lock(box.mu);
    slot = &SlotFor(box, src, tag);
    slot->fifo.push_back(std::move(payload));
  }
  total_messages_.fetch_add(1, std::memory_order_relaxed);
  total_payload_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  notifies_.fetch_add(1, std::memory_order_relaxed);
  AIACC_TRACE_INSTANT_V("transport", "send");
  // Wake-targeted delivery: only the (src, tag) consumer is signalled.
  slot->cv.NotifyOne();
}

Result<Payload> InProcTransport::Recv(int rank, int src, int tag) {
  return RecvFor(rank, src, tag, kNoTimeout);
}

Result<Payload> InProcTransport::RecvFor(int rank, int src, int tag,
                                         std::chrono::milliseconds timeout) {
  AIACC_CHECK(rank >= 0 && rank < world_size_);
  const bool bounded = timeout > kNoTimeout;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  Mailbox& box = mailboxes_[static_cast<std::size_t>(rank)];
  common::MutexLock lock(box.mu);
  Slot& slot = SlotFor(box, src, tag);
  while (true) {
    if (!slot.fifo.empty()) {
      Payload payload = std::move(slot.fifo.front());
      slot.fifo.pop_front();
      receives_.fetch_add(1, std::memory_order_relaxed);
      AIACC_TRACE_INSTANT_V("transport", "recv");
      return payload;
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      return Unavailable("transport shut down");
    }
    if (bounded) {
      if (slot.cv.WaitUntil(lock, deadline) == std::cv_status::timeout) {
        if (!slot.fifo.empty() ||
            shutdown_.load(std::memory_order_acquire)) {
          continue;  // raced with a delivery/shutdown: resolve at the top
        }
        return DeadlineExceeded("no message from rank " +
                                std::to_string(src) + " tag " +
                                std::to_string(tag) + " within " +
                                std::to_string(timeout.count()) + "ms");
      }
    } else {
      slot.cv.Wait(lock);
    }
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (slot.fifo.empty() && !shutdown_.load(std::memory_order_acquire)) {
      futile_wakeups_.fetch_add(1, std::memory_order_relaxed);
      AIACC_TRACE_INSTANT_V("transport", "futile-wake");
    }
  }
}

std::optional<Payload> InProcTransport::TryRecv(int rank, int src, int tag) {
  AIACC_CHECK(rank >= 0 && rank < world_size_);
  Mailbox& box = mailboxes_[static_cast<std::size_t>(rank)];
  common::MutexLock lock(box.mu);
  auto it = box.slots.find({src, tag});
  if (it == box.slots.end() || it->second.fifo.empty()) return std::nullopt;
  Payload payload = std::move(it->second.fifo.front());
  it->second.fifo.pop_front();
  // Same delivery bookkeeping as the blocking path: TryRecv draining a
  // message is a receive, and traces/wake-stat ratios must see it.
  receives_.fetch_add(1, std::memory_order_relaxed);
  AIACC_TRACE_INSTANT_V("transport", "recv");
  return payload;
}

void InProcTransport::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  // Notify while holding each waiter's mutex: a receiver that evaluated its
  // predicate just before the store above still holds the lock until it
  // actually sleeps, so taking the lock here guarantees the notification
  // cannot fall into that window (the classic lost-wakeup race).
  for (Mailbox& box : mailboxes_) {
    common::MutexLock lock(box.mu);
    for (auto& [key, slot] : box.slots) slot.cv.NotifyAll();
  }
  {
    common::MutexLock lock(barrier_mu_);
    barrier_cv_.NotifyAll();
  }
}

Status InProcTransport::Barrier() {
  common::MutexLock lock(barrier_mu_);
  const int my_generation = barrier_generation_;
  if (++barrier_count_ == world_size_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.NotifyAll();
    return Status::Ok();
  }
  while (barrier_generation_ == my_generation &&
         !shutdown_.load(std::memory_order_acquire)) {
    barrier_cv_.Wait(lock);
  }
  if (barrier_generation_ == my_generation) {
    return Unavailable("barrier interrupted by shutdown");
  }
  return Status::Ok();
}

std::uint64_t InProcTransport::TotalMessages() const {
  return total_messages_.load(std::memory_order_relaxed);
}

InProcTransport::WakeStats InProcTransport::wake_counters() const noexcept {
  WakeStats s;
  s.notifies = notifies_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.futile_wakeups = futile_wakeups_.load(std::memory_order_relaxed);
  s.receives = receives_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t InProcTransport::TotalPayloadBytes() const noexcept {
  return total_payload_bytes_.load(std::memory_order_relaxed);
}

}  // namespace aiacc::transport
