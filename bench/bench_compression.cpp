// Gradient-compression bench: measures the wire-byte reduction and the
// reconstruction error of every codec on two workload shapes at world 4:
//
//   * dense_conv        — a dense, smooth gradient (every element nonzero),
//                         the shape of conv/MLP layer gradients;
//   * sparse_embedding  — an embedding-table gradient where <1% of rows were
//                         touched this step (the paper's CTR workloads).
//
// For each (workload, codec) pair the bench runs real ring all-reduces over
// InProcTransport (cast codecs ride the sliced ring, sparse codecs the
// record all-gather of CompressedAllReduce with per-rank error-feedback
// residuals) and reports measured transport bytes via TotalPayloadBytes,
// the reduction vs the raw-fp32 wire, the median and quartiles of the
// per-iteration all-reduce time (after one untimed warm-up all-reduce per
// codec), and the relative error of the final iteration against the exact
// fp32 average.
//
// A second section demonstrates the per-tensor codec bandit
// (compress::PerTensorCodecTuner): after a few dozen observed rounds it must
// settle on different codecs for the two shapes (fp16 for dense, top-k for
// the sparse embedding). `--json` prints a machine-readable summary with
// the core count and build flags (the checked-in BENCH_compression.json,
// from the release-bench preset); `--smoke` shrinks the workloads and
// exits non-zero unless fp16 cuts embedding wire bytes by >= 1.9x, top-k by
// >= 10x, and the bandit separates the two workloads (wired into ctest).
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/stats.h"
#include "compress/codec.h"
#include "compress/tuner.h"
#include "transport/inproc.h"

namespace {

using aiacc::common::BufferPool;
using aiacc::compress::CodecKind;
using aiacc::compress::CodecSpec;

struct BenchConfig {
  int world = 4;
  std::size_t dense_elems = 1u << 18;
  std::size_t embed_elems = 1u << 20;
  int iters = 40;
  int tuner_rounds = 60;
};

// Deterministic per-(rank, index) gradient values, so the exact fp32
// average is computable without a reference all-reduce.
float DenseValue(int rank, std::size_t i) {
  std::uint32_t h = static_cast<std::uint32_t>(i) * 2654435761u +
                    static_cast<std::uint32_t>(rank + 1) * 40503u;
  h ^= h >> 15;
  h *= 2246822519u;
  h ^= h >> 13;
  return static_cast<float>(h & 0xFFFFFFu) / 8388608.0f - 1.0f;
}

// ~0.8% of positions hot; the same positions on every rank (the touched
// rows of one minibatch), which is what makes top-k@1% lossless here.
float EmbeddingValue(int rank, std::size_t i) {
  const std::uint32_t h = static_cast<std::uint32_t>(i) * 2654435761u;
  if ((h >> 8) % 125 != 0) return 0.0f;
  return DenseValue(rank, i);
}

struct CodecResult {
  CodecSpec spec;
  std::uint64_t wire_bytes = 0;
  // Per-iteration all-reduce time: quartiles over the timed iterations.
  double us_p25 = 0.0;
  double us_p50 = 0.0;
  double us_p75 = 0.0;
  double rel_error = 0.0;
};

/// Run one untimed warm-up all-reduce, then `iters` timed all-reduces of
/// the generated workload at every rank, and measure transport bytes,
/// each iteration's time (fence to fence, so the slowest rank sets it) and
/// final-iteration error vs the exact average. The warm-up takes the pool
/// misses and first-touch page faults, so the timed window is steady state
/// whichever codec a process measures first.
template <typename Gen>
CodecResult RunCodecPhase(const CodecSpec& spec, int world,
                          std::size_t elems, int iters, Gen gen) {
  aiacc::transport::InProcTransport tr(world);
  BufferPool pool;
  std::vector<float> rank0_result(elems);
  std::barrier<> gate(static_cast<std::ptrdiff_t>(world) + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> data(elems);
      std::vector<float> residual;
      if (aiacc::compress::UsesErrorFeedback(spec.kind)) {
        residual.assign(elems, 0.0f);
      }
      auto all_reduce = [&] {
        for (std::size_t i = 0; i < elems; ++i) data[i] = gen(r, i);
        aiacc::collective::Comm comm{&tr,  r, world, /*tag_base=*/1,
                                     /*timeout_ms=*/0, &pool};
        comm.codec = spec;
        const aiacc::Status st =
            aiacc::compress::IsSparse(spec.kind)
                ? aiacc::collective::CompressedAllReduce(
                      comm, data, aiacc::collective::ReduceOp::kAvg,
                      std::span<float>(residual))
                : aiacc::collective::RingAllReduce(
                      comm, data, aiacc::collective::ReduceOp::kAvg);
        if (!st.ok()) {
          std::fprintf(stderr, "all-reduce (%s) failed: %s\n",
                       aiacc::compress::ToString(spec).c_str(),
                       st.ToString().c_str());
          std::exit(2);
        }
      };
      all_reduce();  // warm-up
      // The timed window starts from a zero residual, as without warm-up.
      std::fill(residual.begin(), residual.end(), 0.0f);
      gate.arrive_and_wait();  // warmed up (main samples counters)
      gate.arrive_and_wait();  // start line
      for (int it = 0; it < iters; ++it) {
        all_reduce();
        gate.arrive_and_wait();  // iteration fence (keeps tags in lockstep)
      }
      if (r == 0) std::copy(data.begin(), data.end(), rank0_result.begin());
      gate.arrive_and_wait();  // finish line
    });
  }
  // Sample counters after the warm-up and BEFORE the start gate releases
  // the rank threads, so the window covers every send of every timed
  // iteration and nothing else.
  gate.arrive_and_wait();
  const std::uint64_t wire0 = tr.TotalPayloadBytes();
  std::vector<double> iter_us;
  iter_us.reserve(static_cast<std::size_t>(iters));
  auto t0 = std::chrono::steady_clock::now();
  gate.arrive_and_wait();
  for (int it = 0; it < iters; ++it) {
    gate.arrive_and_wait();
    const auto t1 = std::chrono::steady_clock::now();
    iter_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    t0 = t1;
  }
  gate.arrive_and_wait();
  for (auto& t : threads) t.join();

  CodecResult result;
  result.spec = spec;
  result.wire_bytes = tr.TotalPayloadBytes() - wire0;
  result.us_p25 = aiacc::PercentileInPlace(iter_us, 25.0);
  result.us_p50 = aiacc::PercentileInPlace(iter_us, 50.0);
  result.us_p75 = aiacc::PercentileInPlace(iter_us, 75.0);
  // Exact average of the last iteration's inputs.
  double err2 = 0.0;
  double ref2 = 0.0;
  for (std::size_t i = 0; i < elems; ++i) {
    double sum = 0.0;
    for (int r = 0; r < world; ++r) sum += static_cast<double>(gen(r, i));
    const double exact = sum / world;
    const double d = static_cast<double>(rank0_result[i]) - exact;
    err2 += d * d;
    ref2 += exact * exact;
  }
  result.rel_error = ref2 > 0.0 ? std::sqrt(err2 / ref2) : 0.0;
  return result;
}

/// Local single-shot encode footprint + reconstruction error — the
/// observation the per-tensor bandit consumes each round.
void EncodeFootprint(const CodecSpec& spec, std::span<const float> src,
                     BufferPool& pool, std::size_t* wire_floats,
                     double* rel_error) {
  const std::size_t n = src.size();
  if (spec.kind == CodecKind::kNone) {
    *wire_floats = n;
    *rel_error = 0.0;
    return;
  }
  std::vector<float> wire =
      pool.Acquire(aiacc::compress::MaxWireFloats(spec, n));
  std::vector<float> decoded = pool.Acquire(n);
  if (aiacc::compress::IsCast(spec.kind)) {
    *wire_floats = aiacc::compress::CastWireFloats(n);
    aiacc::compress::CastEncode(spec.kind, src, wire);
    aiacc::compress::CastDecode(spec.kind, wire, decoded, n);
  } else {
    *wire_floats = aiacc::compress::SparseEncode(
        spec, src, std::span<float>(wire), pool);
    std::fill(decoded.begin(), decoded.begin() + static_cast<long>(n), 0.0f);
    const aiacc::Status st = aiacc::compress::SparseDecodeAccumulate(
        spec, std::span<const float>(wire.data(), *wire_floats),
        std::span<float>(decoded.data(), n));
    if (!st.ok()) {
      std::fprintf(stderr, "decode failed: %s\n", st.ToString().c_str());
      std::exit(2);
    }
  }
  double err2 = 0.0;
  double ref2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d =
        static_cast<double>(decoded[i]) - static_cast<double>(src[i]);
    err2 += d * d;
    ref2 += static_cast<double>(src[i]) * static_cast<double>(src[i]);
  }
  *rel_error = ref2 > 0.0 ? std::sqrt(err2 / ref2) : 0.0;
  pool.Release(std::move(wire));
  pool.Release(std::move(decoded));
}

struct WorkloadReport {
  std::string name;
  std::size_t elems = 0;
  std::vector<CodecResult> codecs;
};

void PrintJson(const BenchConfig& cfg,
               const std::vector<WorkloadReport>& workloads,
               const CodecSpec& dense_pick, const CodecSpec& embed_pick) {
  std::printf("{\"world\": %d, \"iters\": %d, \"cores\": %u, "
              "\"build\": \"%s\",\n \"workloads\": [\n",
              cfg.world, cfg.iters, std::thread::hardware_concurrency(),
              AIACC_BENCH_BUILD);
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadReport& wl = workloads[w];
    const double raw = static_cast<double>(wl.codecs.front().wire_bytes);
    std::printf("  {\"name\": \"%s\", \"elems\": %zu, \"codecs\": [\n",
                wl.name.c_str(), wl.elems);
    for (std::size_t c = 0; c < wl.codecs.size(); ++c) {
      const CodecResult& r = wl.codecs[c];
      std::printf("    {\"codec\": \"%s\", \"wire_bytes\": %llu, "
                  "\"reduction_vs_raw\": %.2f, \"rel_error\": %.3e, "
                  "\"all_reduce_us\": %.1f, \"all_reduce_us_p25\": %.1f, "
                  "\"all_reduce_us_p75\": %.1f}%s\n",
                  aiacc::compress::ToString(r.spec).c_str(),
                  static_cast<unsigned long long>(r.wire_bytes),
                  r.wire_bytes > 0
                      ? raw / static_cast<double>(r.wire_bytes)
                      : 0.0,
                  r.rel_error, r.us_p50, r.us_p25, r.us_p75,
                  c + 1 < wl.codecs.size() ? "," : "");
    }
    std::printf("  ]}%s\n", w + 1 < workloads.size() ? "," : "");
  }
  std::printf(" ],\n \"tuner\": {\"rounds\": %d, \"dense_conv\": \"%s\", "
              "\"sparse_embedding\": \"%s\"}}\n",
              cfg.tuner_rounds,
              aiacc::compress::ToString(dense_pick).c_str(),
              aiacc::compress::ToString(embed_pick).c_str());
}

void PrintText(const BenchConfig& cfg,
               const std::vector<WorkloadReport>& workloads,
               const CodecSpec& dense_pick, const CodecSpec& embed_pick) {
  std::printf("compression bench: %d ranks, %d iters per codec\n", cfg.world,
              cfg.iters);
  for (const WorkloadReport& wl : workloads) {
    const double raw = static_cast<double>(wl.codecs.front().wire_bytes);
    std::printf("  %s (%zu floats):\n", wl.name.c_str(), wl.elems);
    for (const CodecResult& r : wl.codecs) {
      std::printf("    %-12s %12llu wire bytes  %6.2fx  rel_err %.3e  "
                  "%10.1f us/all-reduce (p25 %.1f, p75 %.1f)\n",
                  aiacc::compress::ToString(r.spec).c_str(),
                  static_cast<unsigned long long>(r.wire_bytes),
                  r.wire_bytes > 0 ? raw / static_cast<double>(r.wire_bytes)
                                   : 0.0,
                  r.rel_error, r.us_p50, r.us_p25, r.us_p75);
    }
  }
  std::printf("  per-tensor bandit after %d rounds: dense_conv -> %s, "
              "sparse_embedding -> %s\n",
              cfg.tuner_rounds,
              aiacc::compress::ToString(dense_pick).c_str(),
              aiacc::compress::ToString(embed_pick).c_str());
}

double ReductionFor(const WorkloadReport& wl, CodecKind kind) {
  const double raw = static_cast<double>(wl.codecs.front().wire_bytes);
  for (const CodecResult& r : wl.codecs) {
    if (r.spec.kind == kind && r.wire_bytes > 0) {
      return raw / static_cast<double>(r.wire_bytes);
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      cfg.iters = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--smoke] [--iters N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (smoke) {
    cfg.dense_elems = 1u << 14;
    cfg.embed_elems = 1u << 17;
    cfg.iters = 3;
  }

  const std::vector<CodecSpec> codecs = {
      CodecSpec{CodecKind::kNone}, CodecSpec{CodecKind::kFp16},
      CodecSpec{CodecKind::kBf16}, CodecSpec{CodecKind::kOneBit},
      CodecSpec{CodecKind::kTopK, 0.01f}};

  std::vector<WorkloadReport> workloads(2);
  workloads[0].name = "dense_conv";
  workloads[0].elems = cfg.dense_elems;
  workloads[1].name = "sparse_embedding";
  workloads[1].elems = cfg.embed_elems;
  for (const CodecSpec& spec : codecs) {
    workloads[0].codecs.push_back(RunCodecPhase(
        spec, cfg.world, cfg.dense_elems, cfg.iters, DenseValue));
    workloads[1].codecs.push_back(RunCodecPhase(
        spec, cfg.world, cfg.embed_elems, cfg.iters, EmbeddingValue));
  }

  // Per-tensor bandit demo: observe every round's encode footprint + error
  // and let UCB1 separate the two shapes.
  BufferPool tuner_pool;
  aiacc::compress::PerTensorCodecTuner tuner;
  const std::size_t dense_id = tuner.RegisterTensor("dense_conv");
  const std::size_t embed_id = tuner.RegisterTensor("sparse_embedding");
  std::vector<float> dense_grad(cfg.dense_elems);
  std::vector<float> embed_grad(cfg.embed_elems);
  for (std::size_t i = 0; i < cfg.dense_elems; ++i) {
    dense_grad[i] = DenseValue(0, i);
  }
  for (std::size_t i = 0; i < cfg.embed_elems; ++i) {
    embed_grad[i] = EmbeddingValue(0, i);
  }
  for (int round = 0; round < cfg.tuner_rounds; ++round) {
    for (const auto& [id, grad] :
         {std::pair<std::size_t, std::span<const float>>{dense_id,
                                                         dense_grad},
          {embed_id, embed_grad}}) {
      const CodecSpec pick = tuner.Choose(id);
      std::size_t wire = 0;
      double err = 0.0;
      EncodeFootprint(pick, grad, tuner_pool, &wire, &err);
      tuner.Observe(id, wire, grad.size(), err);
    }
  }
  const CodecSpec dense_pick = tuner.Best(dense_id);
  const CodecSpec embed_pick = tuner.Best(embed_id);

  if (json) {
    PrintJson(cfg, workloads, dense_pick, embed_pick);
  } else {
    PrintText(cfg, workloads, dense_pick, embed_pick);
  }

  if (smoke) {
    const double fp16_red = ReductionFor(workloads[1], CodecKind::kFp16);
    const double topk_red = ReductionFor(workloads[1], CodecKind::kTopK);
    if (fp16_red < 1.9) {
      std::fprintf(stderr,
                   "SMOKE FAILURE: fp16 embedding wire reduction %.2fx "
                   "(want >= 1.9x)\n",
                   fp16_red);
      return 1;
    }
    if (topk_red < 10.0) {
      std::fprintf(stderr,
                   "SMOKE FAILURE: top-k embedding wire reduction %.2fx "
                   "(want >= 10x)\n",
                   topk_red);
      return 1;
    }
    if (dense_pick == embed_pick ||
        dense_pick.kind != CodecKind::kFp16 ||
        embed_pick.kind != CodecKind::kTopK) {
      std::fprintf(stderr,
                   "SMOKE FAILURE: bandit picked %s for dense_conv and %s "
                   "for sparse_embedding (want fp16 / topk)\n",
                   aiacc::compress::ToString(dense_pick).c_str(),
                   aiacc::compress::ToString(embed_pick).c_str());
      return 1;
    }
  }
  return 0;
}
