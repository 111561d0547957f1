#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "dnn/zoo.h"

namespace enginebench {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr std::size_t kFloatsPerMiB = kMiB / sizeof(float);

std::string TensorName(std::size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "g%04zu", index);
  return buf;
}

/// Every gradient of `model`, scaled by one factor so the set totals
/// `target_elems` (VGG keeps its fc-dominated profile).
std::vector<TensorSpec> ScaleProportional(
    const aiacc::dnn::ModelDescriptor& model, std::size_t target_elems) {
  double total = 0.0;
  for (const auto& g : model.gradients()) {
    total += static_cast<double>(g.NumElements());
  }
  std::vector<TensorSpec> out;
  for (const auto& g : model.gradients()) {
    const double share = static_cast<double>(g.NumElements()) / total;
    const auto elems = static_cast<std::size_t>(
        std::max(16.0, share * static_cast<double>(target_elems)));
    out.push_back({TensorName(out.size()), elems});
  }
  return out;
}

/// `keep` gradients sampled evenly over the forward order, scaled to total
/// about `target_elems`, each clamped to [mean/2, 2*mean] so no single
/// tensor dominates the traffic (the bench_fig10_nlp scaling).
std::vector<TensorSpec> ScaleSampled(const aiacc::dnn::ModelDescriptor& model,
                                     std::size_t keep,
                                     std::size_t target_elems) {
  const auto& grads = model.gradients();
  keep = std::min(keep, grads.size());
  std::vector<double> raw;
  double raw_total = 0.0;
  for (std::size_t k = 0; k < keep; ++k) {
    raw.push_back(
        static_cast<double>(grads[k * grads.size() / keep].NumElements()));
    raw_total += raw.back();
  }
  const double scale = raw_total / static_cast<double>(target_elems);
  const double mean =
      static_cast<double>(target_elems) / static_cast<double>(keep);
  std::vector<TensorSpec> out;
  for (double r : raw) {
    const auto elems = static_cast<std::size_t>(
        std::clamp(r / scale, std::max(256.0, mean / 2.0), 2.0 * mean));
    out.push_back({TensorName(out.size()), elems});
  }
  return out;
}

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform floats in [-scale, scale).
void FillUniform(std::vector<float>& out, std::uint64_t seed, float scale) {
  std::uint64_t state = seed;
  for (float& v : out) {
    const auto bits = static_cast<std::uint32_t>(SplitMix64(state) >> 40);
    v = scale * (static_cast<float>(bits) * (2.0f / 16777216.0f) - 1.0f);
  }
}

}  // namespace

std::size_t Workload::LargestTensor() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < tensors.size(); ++i) {
    if (tensors[i].elems > tensors[best].elems) best = i;
  }
  return best;
}

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  w.config.num_streams = 4;
  if (name == "dense_bulk") {
    // Pure communication: ~10 MiB of VGG-16 gradients, MiB units, raw fp32
    // over the bare inproc transport, everything pushed at once.
    w.tensors = ScaleProportional(aiacc::dnn::MakeVgg16(), 10 * kFloatsPerMiB);
    w.config.granularity_bytes = kMiB;
    w.push_all = true;
    w.check_reference = true;
    w.tail_percentile = 95.0;
  } else if (name == "nlp_layerwise") {
    // Compute plus exposed communication: 64 BERT-Large tensors (~8 MiB),
    // fp16 wire, forward-order priority over the whole id space, SGD bound
    // to the engine so optimizer steps overlap the tail collectives.
    w.tensors = ScaleSampled(aiacc::dnn::MakeBertLarge(), 64,
                             8 * kFloatsPerMiB);
    w.config.granularity_bytes = 256 * 1024;
    w.config.codec = {aiacc::compress::CodecKind::kFp16};
    w.config.priority_urgent_fraction = 1.0f;
    // Aging must exceed the iteration's comm backlog, or every entry ages
    // out and dispatch degenerates to FIFO.
    w.config.priority_aging_ms = 1000;
    w.layerwise = true;
    w.bwd_us = 1200;
    w.fwd_us = 600;
    w.tail_percentile = 90.0;
  } else if (name == "ctr_reliable") {
    // Many small tensors through the reliable stack: 1000 CTR embedding
    // fields at a quarter of their zoo rows plus the dense tower at an
    // eighth of its zoo size (~4 MiB in all), top-k 1% on the largest
    // tensor.
    const auto model = aiacc::dnn::MakeCtrModel(1000);
    for (const auto& g : model.gradients()) {
      const bool tower = g.name.rfind("tower", 0) == 0;
      const auto elems = static_cast<std::size_t>(g.NumElements());
      w.tensors.push_back(
          {TensorName(w.tensors.size()), tower ? (elems + 7) / 8 : (elems + 3) / 4});
    }
    w.config.granularity_bytes = kMiB;
    w.config.codec_overrides.emplace_back(
        w.tensors[w.LargestTensor()].name,
        aiacc::compress::CodecSpec{aiacc::compress::CodecKind::kTopK, 0.01f});
    w.reliable = true;
    w.check_reference = true;
    w.tail_percentile = 90.0;
  } else {
    return std::nullopt;
  }
  return w;
}

GradientData::GradientData(const Workload& workload, std::uint64_t seed,
                           int world) {
  std::size_t offset = 0;
  for (const auto& t : workload.tensors) {
    offsets_.push_back(offset);
    elems_.push_back(t.elems);
    offset += t.elems;
  }
  // One model's worth plus a distinct odd shift per (rank, set) window.
  pool_.resize(offset + static_cast<std::size_t>(world * kSets) * 4099);
  FillUniform(pool_, seed * 2 + 1, 1.0f);
  init_.resize(offset);
  FillUniform(init_, seed * 2 + 2, 0.05f);
}

std::span<const float> GradientData::Grad(int rank, std::int64_t step,
                                          std::size_t tensor) const {
  const auto window = static_cast<std::size_t>(
      rank * kSets + static_cast<int>(step % kSets));
  return {pool_.data() + window * 4099 + offsets_[tensor], elems_[tensor]};
}

std::span<const float> GradientData::InitialParam(std::size_t tensor) const {
  return {init_.data() + offsets_[tensor], elems_[tensor]};
}

}  // namespace enginebench
