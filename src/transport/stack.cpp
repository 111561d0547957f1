#include "transport/stack.h"

#include <utility>

namespace aiacc::transport {

TransportStack::TransportStack(int world_size, std::optional<FaultSpec> faults,
                               std::optional<ReliableOptions> reliable,
                               std::optional<TracingOptions> tracing)
    : inproc_(world_size), top_(&inproc_) {
  if (faults.has_value()) {
    if (reliable.has_value()) faults->delivery = FaultDelivery::kRaw;
    faulty_ = std::make_unique<FaultyTransport>(*top_, std::move(*faults));
    top_ = faulty_.get();
  }
  if (reliable.has_value()) {
    reliable_ =
        std::make_unique<ReliableTransport>(*top_, std::move(*reliable));
    top_ = reliable_.get();
  }
  if (tracing.has_value()) {
    tracing_ = std::make_unique<TracingTransport>(*top_, std::move(*tracing));
    top_ = tracing_.get();
  }
}

}  // namespace aiacc::transport
