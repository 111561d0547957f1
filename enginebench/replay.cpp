#include "replay.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "collective/ops.h"
#include "collective/threaded.h"
#include "common/bitvector.h"
#include "common/stats.h"
#include "compress/codec.h"
#include "core/optimizer.h"
#include "core/packing.h"
#include "core/scheduler.h"
#include "core/sync_bits.h"
#include "engine_run.h"
#include "transport/inproc.h"
#include "transport/reliable.h"

namespace enginebench {
namespace {

namespace collective = aiacc::collective;
namespace compress = aiacc::compress;
namespace core = aiacc::core;
namespace transport = aiacc::transport;

/// Transport decorator that counts messages and bytes and records a span
/// around every call, on the calling rank thread's span log.
class TimingTransport final : public transport::Transport {
 public:
  explicit TimingTransport(transport::Transport& inner) : inner_(inner) {}

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }
  void Send(int src, int dst, int tag, transport::Payload payload) override {
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(payload.size() * sizeof(float), std::memory_order_relaxed);
    ScopedSpan span("Transport::Send");
    inner_.Send(src, dst, tag, std::move(payload));
  }
  aiacc::Result<transport::Payload> Recv(int rank, int src, int tag) override {
    ScopedSpan span("Transport::Recv");
    return inner_.Recv(rank, src, tag);
  }
  aiacc::Result<transport::Payload> RecvFor(
      int rank, int src, int tag, std::chrono::milliseconds timeout) override {
    ScopedSpan span("Transport::Recv");
    return inner_.RecvFor(rank, src, tag, timeout);
  }
  std::optional<transport::Payload> TryRecv(int rank, int src,
                                            int tag) override {
    ScopedSpan span("Transport::TryRecv");
    return inner_.TryRecv(rank, src, tag);
  }
  void Shutdown() override { inner_.Shutdown(); }
  [[nodiscard]] bool IsShutdown() const noexcept override {
    return inner_.IsShutdown();
  }
  aiacc::Status Barrier() override { return inner_.Barrier(); }
  [[nodiscard]] std::uint64_t TotalMessages() const override {
    return inner_.TotalMessages();
  }

  [[nodiscard]] std::uint64_t messages() const noexcept {
    return messages_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  transport::Transport& inner_;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

constexpr compress::CodecSpec kTopK1{compress::CodecKind::kTopK, 0.01f};
constexpr int kSyncRoundReps = 100;
constexpr int kProbeReps = 10;

double Gbps(double bytes, double ns) { return ns > 0 ? bytes / ns : 0.0; }

double Median(std::vector<double> xs) { return aiacc::Percentile(std::move(xs), 50.0); }

/// Does `span` sit (at any depth) under a span called `ancestor`?
bool Under(const SpanLog& log, const Span& span, std::string_view ancestor) {
  for (int p = span.parent; p >= 0;) {
    const Span& parent = log.spans()[static_cast<std::size_t>(p)];
    if (ancestor == parent.name) return true;
    p = parent.parent;
  }
  return false;
}

double MsPerIter(const SpanLog& log, std::string_view name, int iterations) {
  double total = 0.0;
  for (double ms : log.DurationsMs(name)) total += ms;
  return total / iterations;
}

class Replay {
 public:
  Replay(const Workload& workload, const GradientData& data, int world,
         double seconds);
  ReplayResult Execute();

 private:
  struct RankState {
    std::vector<std::vector<float>> grads;
    std::vector<std::vector<float>> params;
    std::vector<std::vector<float>> residuals;  // per unit, sparse units only
    core::SgdOptimizer optimizer{0.9};
  };

  void RankLoop(int rank);
  [[nodiscard]] std::vector<core::AllReduceUnit> Pack() const;
  void SchedulerOps(const std::vector<core::AllReduceUnit>& units) const;
  [[nodiscard]] collective::Comm MakeComm(int rank, int tag_base) const;
  void RunUnits(int rank, std::int64_t iteration,
                const std::vector<core::AllReduceUnit>& units);
  void SyncRounds(int rank);
  void SparseUnit(int rank);
  void LocalProbes();  // rank 0 only: accumulate and codec kernels
  void Fail(const std::string& what);
  void Compute(ReplayResult& out) const;

  const Workload& workload_;
  const GradientData& data_;
  const int world_;
  const double seconds_;
  std::vector<compress::CodecSpec> codecs_;  // per tensor
  std::vector<core::AllReduceUnit> units_;   // reference packing
  std::size_t probe_unit_ = 0;  // the top-k unit, else the largest unit

  transport::InProcTransport inproc_;
  std::unique_ptr<transport::ReliableTransport> reliable_;
  std::unique_ptr<TimingTransport> timing_;
  std::vector<RankState> ranks_;
  std::vector<std::unique_ptr<SpanLog>> logs_;

  // Agreed by the barrier completion, read by every rank after the barrier.
  std::int64_t deadline_ns_ = 0;
  int barriers_ = -1;  // completed loop barriers; the first is the start line
  bool stop_ = false;
  int iterations_ = 0;  // replay iterations run (set by rank 0)
  std::barrier<std::function<void()>> barrier_;
  std::uint64_t loop_messages_ = 0;  // set by rank 0 around the unit loop
  std::uint64_t loop_bytes_ = 0;

  // Rank-0 probe results.
  std::vector<double> accumulate_gbps_, encode_gbps_, decode_gbps_;
  std::vector<double> topk_encode_ms_, topk_decode_ms_;
  double wire_bytes_ = 0.0, raw_bytes_ = 0.0;

  std::atomic<bool> failed_{false};
  std::string error_;  // first failure, set once under failed_
};

Replay::Replay(const Workload& workload, const GradientData& data, int world,
               double seconds)
    : workload_(workload),
      data_(data),
      world_(world),
      seconds_(seconds),
      inproc_(world),
      ranks_(static_cast<std::size_t>(world)),
      barrier_(world, [this] {
        ++barriers_;
        stop_ = barriers_ >= 2 && NowNs() >= deadline_ns_;
      }) {
  for (const auto& t : workload_.tensors) {
    codecs_.push_back(workload_.config.CodecFor(t.name));
  }
  units_ = Pack();
  std::size_t largest = 0;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    if (units_[u].TotalBytes() > units_[largest].TotalBytes()) largest = u;
  }
  probe_unit_ = largest;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    if (compress::IsSparse(units_[u].codec.kind)) {
      probe_unit_ = u;
      break;
    }
  }
  transport::Transport* top = &inproc_;
  if (workload_.reliable) {
    reliable_ = std::make_unique<transport::ReliableTransport>(inproc_);
    top = reliable_.get();
  }
  timing_ = std::make_unique<TimingTransport>(*top);
  for (int r = 0; r < world_; ++r) {
    RankState& state = ranks_[static_cast<std::size_t>(r)];
    for (std::size_t t = 0; t < workload_.tensors.size(); ++t) {
      const auto g = data_.Grad(r, 0, t);
      state.grads.emplace_back(g.begin(), g.end());
      const auto p = data_.InitialParam(t);
      state.params.emplace_back(p.begin(), p.end());
    }
    for (const auto& unit : units_) {
      state.residuals.emplace_back(
          compress::IsSparse(unit.codec.kind) ? unit.TotalBytes() / sizeof(float)
                                              : 0);
    }
    logs_.push_back(std::make_unique<SpanLog>("replay", r));
  }
}

std::vector<core::AllReduceUnit> Replay::Pack() const {
  core::StreamingPacker packer(workload_.config.granularity_bytes);
  for (std::size_t t = 0; t < workload_.tensors.size(); ++t) {
    packer.Add(static_cast<int>(t), workload_.tensors[t].elems * sizeof(float),
               codecs_[t]);
  }
  packer.Flush();
  std::vector<core::AllReduceUnit> units;
  while (packer.HasReadyUnit()) units.push_back(packer.PopReadyUnit());
  return units;
}

void Replay::SchedulerOps(const std::vector<core::AllReduceUnit>& units) const {
  core::ReadySetScheduler scheduler(core::SchedulerPolicy{
      workload_.config.priority_urgent_fraction,
      workload_.config.priority_aging_ms, 0});
  scheduler.BindGradientCount(static_cast<int>(workload_.tensors.size()));
  for (const auto& unit : units) scheduler.Push(unit);
  for (int s = 0; scheduler.TryPopFor(s % workload_.config.num_streams); ++s) {
  }
}

collective::Comm Replay::MakeComm(int rank, int tag_base) const {
  collective::Comm comm;
  comm.transport = timing_.get();
  comm.rank = rank;
  comm.world_size = world_;
  comm.tag_base = tag_base;
  comm.timeout_ms = kCollectiveTimeoutMs;
  comm.pipeline_depth = workload_.config.pipeline_depth;
  return comm;
}

void Replay::Fail(const std::string& what) {
  if (!failed_.exchange(true)) error_ = what;
}

void Replay::RunUnits(int rank, std::int64_t iteration,
                      const std::vector<core::AllReduceUnit>& units) {
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  auto& pool = aiacc::common::BufferPool::Global();
  std::vector<std::span<const std::byte>> in_views;
  std::vector<std::span<std::byte>> out_views;
  for (auto& g : state.grads) {
    in_views.push_back(std::as_bytes(std::span<const float>(g)));
    out_views.push_back(std::as_writable_bytes(std::span<float>(g)));
  }
  for (std::size_t u = 0; u < units.size(); ++u) {
    const core::AllReduceUnit& unit = units[u];
    ScopedSpan unit_span("unit", iteration);
    std::vector<float> staging = pool.Acquire(unit.TotalBytes() / sizeof(float));
    {
      ScopedSpan span("GatherUnit", iteration);
      core::GatherUnit(unit, in_views,
                       std::as_writable_bytes(std::span<float>(staging)));
    }
    collective::Comm comm =
        MakeComm(rank, collective::UnitEpochTagBase(unit.unit_id, 0));
    comm.codec = unit.codec;
    aiacc::Status st;
    if (compress::IsSparse(unit.codec.kind)) {
      ScopedSpan span("CompressedAllReduce", iteration);
      st = collective::CompressedAllReduce(comm, staging,
                                           collective::ReduceOp::kAvg,
                                           state.residuals[u]);
    } else {
      ScopedSpan span("RingAllReduce", iteration);
      st = collective::RingAllReduce(comm, staging, collective::ReduceOp::kAvg);
    }
    if (!st.ok()) Fail("replay collective failed: " + st.ToString());
    {
      ScopedSpan span("ScatterUnit", iteration);
      core::ScatterUnit(unit, std::as_bytes(std::span<const float>(staging)),
                        out_views);
    }
    pool.Release(std::move(staging));
  }
}

void Replay::SyncRounds(int rank) {
  const std::size_t n = workload_.tensors.size();
  aiacc::BitVector ready(n);
  for (std::size_t i = 0; i < n; ++i) ready.Set(i);
  std::vector<float> words(core::SyncWordCount(n));
  for (int rep = 0; rep < kSyncRoundReps; ++rep) {
    ScopedSpan span("sync_round", rep);
    core::PackSyncBits(ready, words);
    const aiacc::Status st = collective::RingAllReduce(
        MakeComm(rank, collective::kSyncTag), words,
        collective::ReduceOp::kBitAnd);
    if (!st.ok()) Fail("replay sync round failed: " + st.ToString());
  }
}

void Replay::SparseUnit(int rank) {
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  const core::AllReduceUnit& unit = units_[probe_unit_];
  const std::size_t len = unit.TotalBytes() / sizeof(float);
  std::vector<std::span<const std::byte>> views;
  for (auto& g : state.grads) views.push_back(std::as_bytes(std::span<const float>(g)));
  std::vector<float> staging(len);
  std::vector<float> residual(len);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    core::GatherUnit(unit, views, std::as_writable_bytes(std::span<float>(staging)));
    collective::Comm comm = MakeComm(rank, collective::UnitEpochTagBase(0, 0));
    comm.codec = compress::IsSparse(unit.codec.kind) ? unit.codec : kTopK1;
    ScopedSpan span("CompressedAllReduce.probe", rep);
    const aiacc::Status st = collective::CompressedAllReduce(
        comm, staging, collective::ReduceOp::kAvg, residual);
    if (!st.ok()) Fail("replay sparse probe failed: " + st.ToString());
  }
}

void Replay::LocalProbes() {
  using Clock = std::chrono::steady_clock;
  auto ns_since = [](Clock::time_point t0) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  };
  auto& pool = aiacc::common::BufferPool::Global();
  const RankState& state = ranks_[0];
  std::vector<std::span<const std::byte>> views;
  for (const auto& g : state.grads) views.push_back(std::as_bytes(std::span<const float>(g)));
  for (const auto& unit : units_) {
    const std::size_t len = unit.TotalBytes() / sizeof(float);
    std::vector<float> a(len), b(len), wire(compress::MaxWireFloats(kTopK1, len) + len);
    core::GatherUnit(unit, views, std::as_writable_bytes(std::span<float>(a)));
    b = a;
    const double bytes = static_cast<double>(unit.TotalBytes());
    {
      ScopedSpan span("Accumulate");
      const auto t0 = Clock::now();
      collective::Accumulate(b, a, collective::ReduceOp::kSum);
      accumulate_gbps_.push_back(Gbps(bytes, ns_since(t0)));
    }
    {
      ScopedSpan span("CastEncode");
      const auto t0 = Clock::now();
      compress::CastEncode(compress::CodecKind::kFp16, a, wire);
      encode_gbps_.push_back(Gbps(bytes, ns_since(t0)));
    }
    {
      ScopedSpan span("CastDecode");
      const auto t0 = Clock::now();
      compress::CastDecode(compress::CodecKind::kFp16, wire, b, len);
      decode_gbps_.push_back(Gbps(bytes, ns_since(t0)));
    }
    // Wire footprint of this unit under its own codec.
    raw_bytes_ += bytes;
    if (compress::IsCast(unit.codec.kind)) {
      wire_bytes_ += static_cast<double>(compress::CastWireFloats(len) * sizeof(float));
    } else if (compress::IsSparse(unit.codec.kind)) {
      const std::size_t words = compress::SparseEncode(unit.codec, a, wire, pool);
      wire_bytes_ += static_cast<double>(words * sizeof(float));
    } else {
      wire_bytes_ += bytes;
    }
  }
  // Top-k kernels on the probe unit (the workload's top-k unit, else its
  // largest unit at 1%).
  const core::AllReduceUnit& unit = units_[probe_unit_];
  const std::size_t len = unit.TotalBytes() / sizeof(float);
  const compress::CodecSpec spec =
      compress::IsSparse(unit.codec.kind) ? unit.codec : kTopK1;
  std::vector<float> src(len), dst(len), wire(compress::MaxWireFloats(spec, len));
  core::GatherUnit(unit, views, std::as_writable_bytes(std::span<float>(src)));
  for (int rep = 0; rep < kProbeReps; ++rep) {
    std::size_t words = 0;
    {
      ScopedSpan span("SparseEncode", rep);
      const auto t0 = Clock::now();
      words = compress::SparseEncode(spec, src, wire, pool);
      topk_encode_ms_.push_back(1e-6 * ns_since(t0));
    }
    ScopedSpan span("SparseDecodeAccumulate", rep);
    const auto t0 = Clock::now();
    const aiacc::Status st = compress::SparseDecodeAccumulate(
        spec, std::span<const float>(wire.data(), words), dst);
    topk_decode_ms_.push_back(1e-6 * ns_since(t0));
    if (!st.ok()) Fail("top-k decode rejected its own record: " + st.ToString());
  }
}

void Replay::RankLoop(int rank) {
  SetThreadLog(logs_[static_cast<std::size_t>(rank)].get());
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  std::vector<std::span<float>> params;
  for (auto& p : state.params) params.emplace_back(p);
  if (rank == 0) {
    loop_messages_ = timing_->messages();
    loop_bytes_ = timing_->bytes();
  }
  barrier_.arrive_and_wait();
  std::int64_t it = 0;
  for (; !stop_; ++it) {
    std::vector<core::AllReduceUnit> units;
    {
      ScopedSpan span("StreamingPacker", it);
      units = Pack();
    }
    {
      ScopedSpan span("ReadySetScheduler", it);
      SchedulerOps(units);
    }
    RunUnits(rank, it, units);
    {
      ScopedSpan span("Optimizer::StepTensor", it);
      state.optimizer.BeginIteration(params);
      for (std::size_t t = 0; t < params.size(); ++t) {
        state.optimizer.StepTensor(t, params[t], state.grads[t], 1e-3);
      }
    }
    for (std::size_t t = 0; t < state.grads.size(); ++t) {
      const auto g = data_.Grad(rank, it + 1, t);
      std::copy(g.begin(), g.end(), state.grads[t].begin());
    }
    barrier_.arrive_and_wait();
  }
  if (rank == 0) {
    iterations_ = static_cast<int>(it);
    loop_messages_ = timing_->messages() - loop_messages_;
    loop_bytes_ = timing_->bytes() - loop_bytes_;
  }
  barrier_.arrive_and_wait();
  SyncRounds(rank);
  SparseUnit(rank);
  if (rank == 0) LocalProbes();
  SetThreadLog(nullptr);
}

ReplayResult Replay::Execute() {
  // The loop stops once the time budget is spent (at least two iterations).
  deadline_ns_ = NowNs() + static_cast<std::int64_t>(seconds_ * 1e9);
  std::vector<std::thread> threads;
  for (int r = 1; r < world_; ++r) threads.emplace_back([this, r] { RankLoop(r); });
  RankLoop(0);
  for (auto& t : threads) t.join();
  timing_->Shutdown();

  ReplayResult out;
  if (!failed_.load()) {
    for (std::size_t r = 1; r < ranks_.size() && error_.empty(); ++r) {
      for (std::size_t t = 0; t < ranks_[0].params.size(); ++t) {
        if (std::memcmp(ranks_[0].params[t].data(), ranks_[r].params[t].data(),
                        ranks_[0].params[t].size() * sizeof(float)) != 0) {
          error_ = "replay: rank " + std::to_string(r) + " parameters differ";
          break;
        }
      }
    }
    for (const auto& p : ranks_[0].params) {
      if (!std::all_of(p.begin(), p.end(), [](float v) { return std::isfinite(v); })) {
        error_ = "replay: non-finite parameters";
      }
    }
  }
  Compute(out);
  out.iterations = iterations_;
  out.correct = error_.empty();
  out.error = error_;
  out.logs = std::move(logs_);
  return out;
}

void Replay::Compute(ReplayResult& out) const {
  const SpanLog& log0 = *logs_[0];
  const int iters = std::max(1, iterations_);
  auto& m = out.metrics;
  m["core.pack_us_per_iter"] = {1e3 * MsPerIter(log0, "StreamingPacker", iters), "us"};
  m["core.sched_op_us"] = {1e3 * MsPerIter(log0, "ReadySetScheduler", iters) /
                               static_cast<double>(2 * units_.size()),
                           "us"};
  m["core.gather_scatter_ms_per_iter"] = {
      MsPerIter(log0, "GatherUnit", iters) + MsPerIter(log0, "ScatterUnit", iters), "ms"};
  m["core.opt_step_ms_per_iter"] = {MsPerIter(log0, "Optimizer::StepTensor", iters), "ms"};

  // Ring units: latency and nccl-tests bus bandwidth (rank 0).
  double ring_bytes = 0.0;
  for (const auto& unit : units_) {
    if (!compress::IsSparse(unit.codec.kind)) ring_bytes += static_cast<double>(unit.TotalBytes());
  }
  const std::vector<double> ring_ms = log0.DurationsMs("RingAllReduce");
  double ring_total_ms = 0.0;
  for (double ms : ring_ms) ring_total_ms += ms;
  m["collective.unit_ms_p50"] = {Median(ring_ms), "ms"};
  m["collective.busbw_gbps"] = {
      Gbps(ring_bytes * iters * 2.0 * (world_ - 1) / world_, 1e6 * ring_total_ms), "GB/s"};
  m["collective.accumulate_gbps"] = {Median(accumulate_gbps_), "GB/s"};
  m["collective.sync_round_us_p50"] = {1e3 * Median(log0.DurationsMs("sync_round")), "us"};
  m["collective.sparse_unit_ms"] = {Median(log0.DurationsMs("CompressedAllReduce.probe")), "ms"};

  // Transport calls of the unit loop (the probes after it are excluded).
  std::vector<double> send_us;
  double recv_ms = 0.0;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (!Under(*log, s, "unit")) continue;
      const double ms = 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
      if (std::string_view(s.name) == "Transport::Send") send_us.push_back(1e3 * ms);
      if (std::string_view(s.name) == "Transport::Recv") recv_ms += ms;
    }
  }
  m["transport.msgs_per_iter"] = {static_cast<double>(loop_messages_) / iters, "count"};
  m["transport.mib_per_iter"] = {
      static_cast<double>(loop_bytes_) / static_cast<double>(1 << 20) / iters, "MiB"};
  m["transport.send_us_p50"] = {Median(send_us), "us"};
  m["transport.recv_wait_ms_per_iter"] = {recv_ms / world_ / iters, "ms"};

  m["compress.cast_encode_gbps"] = {Median(encode_gbps_), "GB/s"};
  m["compress.cast_decode_gbps"] = {Median(decode_gbps_), "GB/s"};
  m["compress.topk_encode_ms"] = {Median(topk_encode_ms_), "ms"};
  m["compress.topk_decode_ms"] = {Median(topk_decode_ms_), "ms"};
  m["compress.wire_ratio"] = {raw_bytes_ > 0 ? wire_bytes_ / raw_bytes_ : 0.0, "ratio"};
}

}  // namespace

ReplayResult RunReplay(const Workload& workload, const GradientData& data,
                       int world, double seconds) {
  return Replay(workload, data, world, seconds).Execute();
}

}  // namespace enginebench
