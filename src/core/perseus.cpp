#include "core/perseus.h"

#include <thread>

#include "common/logging.h"

namespace aiacc::perseus {

Session::Session(std::shared_ptr<Context> context, int rank)
    : context_(std::move(context)), rank_(rank) {
  AIACC_CHECK(context_ != nullptr);
  AIACC_CHECK(rank_ >= 0 && rank_ < context_->world_size());
}

void Session::AllReduce(std::span<float> data, int num_channels,
                        collective::ReduceOp op) {
  AllReduceOnWire(data, num_channels, op, compress::CodecSpec{});
}

void Session::AllReduceFp16(std::span<float> data, int num_channels) {
  AllReduceOnWire(data, num_channels, collective::ReduceOp::kAvg,
                  compress::CodecSpec{compress::CodecKind::kFp16});
}

void Session::AllReduceOnWire(std::span<float> data, int num_channels,
                              collective::ReduceOp op,
                              compress::CodecSpec codec) {
  collective::Comm comm;
  comm.transport = &context_->transport();
  comm.rank = rank_;
  comm.world_size = size();
  comm.codec = codec;
  // All ranks advance tags in lockstep (collective calls are ordered, as in
  // MPI communicators), so namespaces never collide across operations. The
  // cursor advances by one channel stride per channel plus one for the
  // fallback single-ring namespace (collective/tags.h).
  comm.tag_base = next_tag_;
  next_tag_ += collective::kChannelTagStride * (num_channels + 1);
  const Status st =
      collective::MultiChannelAllReduce(comm, data, op, num_channels);
  AIACC_CHECK(st.ok() && "session all-reduce failed");
}

void Session::BroadcastParameters(const std::vector<std::span<float>>& params,
                                  int root) {
  for (const std::span<float>& p : params) {
    collective::Comm comm;
    comm.transport = &context_->transport();
    comm.rank = rank_;
    comm.world_size = size();
    comm.tag_base = next_tag_;
    next_tag_ += collective::kTagsPerCollective + 1;
    const Status st = collective::Broadcast(comm, root, p);
    AIACC_CHECK(st.ok() && "session broadcast failed");
  }
}

void Session::Barrier() {
  const Status st = context_->transport().Barrier();
  AIACC_CHECK(st.ok() && "barrier interrupted");
}

core::NanReport Session::AllReduceGradients(
    const std::vector<std::span<float>>& grads, int num_channels,
    bool allow_nan) {
  std::vector<std::span<const float>> views(grads.begin(), grads.end());
  core::NanReport report = core::CheckForNan(views);
  if (!report.Clean() && !allow_nan) {
    LOG_ERROR << "rank " << rank_ << ": NaN/Inf detected in "
              << report.entries.size() << " gradient element(s); skipping "
              << "aggregation";
    // Keep collective ordering consistent across ranks: tags must advance
    // even when this rank skips, so other ranks' operations don't mismatch.
    next_tag_ += collective::kChannelTagStride * (num_channels + 1) *
                 static_cast<int>(grads.size());
    return report;
  }
  for (const std::span<float>& g : grads) {
    AllReduce(g, num_channels, collective::ReduceOp::kAvg);
  }
  return report;
}

void RunRanks(int world_size, const std::function<void(Session&)>& body) {
  auto context = std::make_shared<Context>(world_size);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    threads.emplace_back([context, r, &body] {
      Session session(context, r);
      body(session);
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace aiacc::perseus
