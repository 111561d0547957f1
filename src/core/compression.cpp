#include "core/compression.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "compress/codec.h"
#include "compress/scalar.h"

// The binary16 conversion lives in the codec layer — the scalar element
// functions in compress/scalar.cpp and the dispatched bulk kernels behind
// compress::CastEncodeLanes/CastDecodeLanes. This legacy Perseus wire path
// must quantize identically, so there is exactly one implementation and
// core forwards to it.

namespace aiacc::core {

using compress::CodecKind;

std::uint16_t FloatToHalf(float value) noexcept {
  return compress::FloatToHalf(value);
}

float HalfToFloat(std::uint16_t half) noexcept {
  return compress::HalfToFloat(half);
}

std::vector<std::uint16_t> CompressToHalf(std::span<const float> values) {
  std::vector<std::uint16_t> out(values.size());
  compress::CastEncodeLanes(CodecKind::kFp16, values, out);
  return out;
}

void DecompressFromHalf(std::span<const std::uint16_t> halfs,
                        std::span<float> out) {
  AIACC_CHECK(halfs.size() == out.size());
  compress::CastDecodeLanes(CodecKind::kFp16, halfs, out);
}

void QuantizeToHalfInPlace(std::span<float> values) {
  // Round-trip through a small stack block so the bulk kernels do the work
  // without a heap buffer the size of the tensor.
  std::array<std::uint16_t, 1024> lanes{};
  for (std::size_t i = 0; i < values.size(); i += lanes.size()) {
    const std::span<float> block =
        values.subspan(i, std::min(lanes.size(), values.size() - i));
    const std::span<std::uint16_t> encoded(lanes.data(), block.size());
    compress::CastEncodeLanes(CodecKind::kFp16, block, encoded);
    compress::CastDecodeLanes(CodecKind::kFp16, encoded, block);
  }
}

}  // namespace aiacc::core
