// The transport decorator stack, built in one place. Bottom to top:
//
//   inproc -> faulty? -> reliable? -> tracing?
//
// Each optional layer is present exactly when its options are given. Two
// rules fix the shape, and this is the only place that states them:
//
//   * Under a reliable layer the fault layer runs raw delivery, whatever
//     the given spec says. The reliable layer owns sequencing and
//     integrity, so faults must hit its wire frames (a flipped bit lands in
//     a CRC-protected frame, not in strict-mode reassembly metadata), and
//     strict reassembly underneath would be a second sequencing layer.
//   * Tracing goes on top. Its stamp trailer is appended last on send and
//     stripped first on receive, so the reliable layer's CRC covers it and
//     the layers below never see trailer lanes.
//
// The stack adds no hop of its own: top() is the topmost layer itself.
#pragma once

#include <memory>
#include <optional>

#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/reliable.h"
#include "transport/tracing.h"

namespace aiacc::transport {

class TransportStack {
 public:
  explicit TransportStack(
      int world_size, std::optional<FaultSpec> faults = std::nullopt,
      std::optional<ReliableOptions> reliable = std::nullopt,
      std::optional<TracingOptions> tracing = std::nullopt);
  TransportStack(const TransportStack&) = delete;
  TransportStack& operator=(const TransportStack&) = delete;

  /// The topmost layer, where collectives send and receive.
  [[nodiscard]] Transport& top() noexcept { return *top_; }
  [[nodiscard]] InProcTransport& inproc() noexcept { return inproc_; }
  /// Each optional layer, or nullptr when its options were not given.
  [[nodiscard]] FaultyTransport* faulty() const noexcept {
    return faulty_.get();
  }
  [[nodiscard]] ReliableTransport* reliable() const noexcept {
    return reliable_.get();
  }
  [[nodiscard]] TracingTransport* tracing() const noexcept {
    return tracing_.get();
  }

 private:
  // Declared bottom to top, so destruction runs top down.
  InProcTransport inproc_;
  std::unique_ptr<FaultyTransport> faulty_;
  std::unique_ptr<ReliableTransport> reliable_;
  std::unique_ptr<TracingTransport> tracing_;
  Transport* top_;
};

}  // namespace aiacc::transport
