// The benchmark's three training workloads and their seeded inputs.
//
// Each workload is a synthetic model (gradient shapes scaled from the
// src/dnn zoo) plus the engine configuration it trains under. Tensor names
// are zero-padded so the engine's name-sorted registry ids follow forward
// layer order: id 0 is the first layer, the one the next forward pass
// consumes first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"

namespace enginebench {

struct TensorSpec {
  std::string name;
  std::size_t elems = 0;
};

struct Workload {
  std::string name;
  std::vector<TensorSpec> tensors;  // forward order == registry id order
  aiacc::core::CommConfig config;
  /// Frames go through the engine's ReliableTransport (no faults).
  bool reliable = false;
  /// Layer-wise iteration: backward pushes back-to-front after `bwd_us` of
  /// modeled compute per layer, the next forward waits on every gradient
  /// front-to-back and computes `fwd_us` per layer, and an SGD optimizer is
  /// bound to the engine. Otherwise the driver pushes every gradient at
  /// once, waits for the front layer and the iteration, and applies plain
  /// SGD itself.
  bool layerwise = false;
  int bwd_us = 0;
  int fwd_us = 0;
  /// Bulk workloads push all ids in one call (PushAll) instead of one Push
  /// per tensor in backward order.
  bool push_all = false;
  /// Compare the final parameters of the tensors on the raw fp32 wire with
  /// a sequential single-process reference (bulk workloads only; lossy
  /// codecs are left out).
  bool check_reference = false;
  /// Percentile reported as iter_ms_tail. Fixed per workload (not derived
  /// from each run's sample count) so it cannot flip between runs; chosen
  /// so a default-length run leaves well over ten samples above it.
  double tail_percentile = 90.0;

  /// Samples the quiet window keeps at least: enough for 15 above the tail
  /// percentile.
  [[nodiscard]] std::size_t QuietSamples() const {
    return static_cast<std::size_t>(15.0 / (1.0 - tail_percentile / 100.0));
  }

  [[nodiscard]] std::size_t LargestTensor() const;  // index
};

/// "dense_bulk", "nlp_layerwise" or "ctr_reliable"; nullopt otherwise.
std::optional<Workload> MakeWorkload(const std::string& name);

/// Seeded gradient and parameter values. Rank r's gradient for optimizer
/// step s is a window into one shared random pool at an offset that depends
/// on r and s % kSets, so every rank and consecutive steps see different
/// values while the inputs cost one pool, not one copy per rank.
class GradientData {
 public:
  static constexpr int kSets = 2;

  GradientData(const Workload& workload, std::uint64_t seed, int world);

  [[nodiscard]] std::span<const float> Grad(int rank, std::int64_t step,
                                            std::size_t tensor) const;
  [[nodiscard]] std::span<const float> InitialParam(std::size_t tensor) const;

 private:
  std::vector<std::size_t> offsets_;  // tensor start inside one model copy
  std::vector<std::size_t> elems_;
  std::vector<float> pool_;
  std::vector<float> init_;
};

}  // namespace enginebench
