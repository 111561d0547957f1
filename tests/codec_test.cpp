// Gradient-compression codec tests: exhaustive fp16/bf16 scalar roundtrips
// (NaN/Inf/denormal-safe), cast wire packing at odd lengths, 1-bit and
// top-k wire-format units including malformed-record rejection, the
// error-feedback residual property, a ring bit-exactness matrix over
// codec x op x world x odd lengths x pipeline depth x channels, the
// chaos/reliable-transport composition, steady-state allocation checks,
// codec-aware unit packing, the CommConfig codec axis + tuning-cache v3
// round-trip, the per-tensor codec bandit, and end-to-end MLP training
// parity through the threaded engine under every codec family.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "autotune/tuning_cache.h"
#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "compress/scalar.h"
#include "compress/tuner.h"
#include "core/config.h"
#include "core/packing.h"
#include "core/threaded_engine.h"
#include "dnn/mlp.h"
#include "dnn/zoo.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/reliable.h"
#include "transport/stack.h"

#include "pool_prime.h"

namespace aiacc {
namespace {

using compress::CodecKind;
using compress::CodecSpec;

bool IsNanHalf(std::uint16_t h) {
  return (h & 0x7C00u) == 0x7C00u && (h & 0x03FFu) != 0;
}
bool IsNanBf16(std::uint16_t b) {
  return (b & 0x7F80u) == 0x7F80u && (b & 0x007Fu) != 0;
}

// ------------------------------------------------------- scalar casts ----

// half -> float -> half is the identity for every non-NaN pattern
// (float32 represents every half exactly); NaN patterns must stay NaN with
// the sign preserved (the payload may be canonicalized).
TEST(ScalarCastTest, Fp16ExhaustiveRoundtrip) {
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    const float f = compress::HalfToFloat(half);
    const std::uint16_t back = compress::FloatToHalf(f);
    if (IsNanHalf(half)) {
      EXPECT_TRUE(std::isnan(f)) << "half 0x" << std::hex << h;
      EXPECT_TRUE(IsNanHalf(back)) << "half 0x" << std::hex << h;
      EXPECT_EQ(back & 0x8000u, half & 0x8000u) << "half 0x" << std::hex << h;
    } else {
      EXPECT_EQ(back, half) << "half 0x" << std::hex << h;
    }
  }
}

TEST(ScalarCastTest, Bf16ExhaustiveRoundtrip) {
  for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
    const auto bf = static_cast<std::uint16_t>(b);
    const float f = compress::Bf16ToFloat(bf);
    const std::uint16_t back = compress::FloatToBf16(f);
    if (IsNanBf16(bf)) {
      EXPECT_TRUE(std::isnan(f)) << "bf16 0x" << std::hex << b;
      EXPECT_TRUE(IsNanBf16(back)) << "bf16 0x" << std::hex << b;
      EXPECT_EQ(back & 0x8000u, bf & 0x8000u) << "bf16 0x" << std::hex << b;
    } else {
      EXPECT_EQ(back, bf) << "bf16 0x" << std::hex << b;
    }
  }
}

TEST(ScalarCastTest, Fp16DirectedValues) {
  // Signed zero survives.
  EXPECT_EQ(compress::FloatToHalf(0.0f), 0x0000u);
  EXPECT_EQ(compress::FloatToHalf(-0.0f), 0x8000u);
  // Infinities survive; overflow saturates to infinity.
  EXPECT_EQ(compress::FloatToHalf(INFINITY), 0x7C00u);
  EXPECT_EQ(compress::FloatToHalf(-INFINITY), 0xFC00u);
  EXPECT_EQ(compress::FloatToHalf(65536.0f), 0x7C00u);
  EXPECT_EQ(compress::FloatToHalf(1e30f), 0x7C00u);
  // Largest finite half.
  EXPECT_EQ(compress::FloatToHalf(65504.0f), 0x7BFFu);
  // Subnormal halves roundtrip through float exactly (exhaustive test
  // covers them all; spot-check the smallest).
  EXPECT_EQ(compress::FloatToHalf(compress::HalfToFloat(0x0001u)), 0x0001u);
  // NaN stays NaN (payload may change, never becomes a number).
  EXPECT_TRUE(IsNanHalf(compress::FloatToHalf(std::nanf(""))));
}

TEST(ScalarCastTest, Bf16RoundsToNearestEven) {
  // upper even, round bit set, sticky clear -> ties to even (down).
  EXPECT_EQ(compress::FloatToBf16(std::bit_cast<float>(0x3F808000u)),
            0x3F80u);
  // upper odd, round bit set, sticky clear -> ties to even (up).
  EXPECT_EQ(compress::FloatToBf16(std::bit_cast<float>(0x3F818000u)),
            0x3F82u);
  // round bit set, sticky set -> always up.
  EXPECT_EQ(compress::FloatToBf16(std::bit_cast<float>(0x3F808001u)),
            0x3F81u);
  // round bit clear -> truncate.
  EXPECT_EQ(compress::FloatToBf16(std::bit_cast<float>(0x3F807FFFu)),
            0x3F80u);
  // Signed zero and infinities.
  EXPECT_EQ(compress::FloatToBf16(-0.0f), 0x8000u);
  EXPECT_EQ(compress::FloatToBf16(INFINITY), 0x7F80u);
  EXPECT_TRUE(IsNanBf16(compress::FloatToBf16(std::nanf(""))));
}

// ---------------------------------------------------- cast wire format ----

TEST(CastWireTest, RoundtripAtOddLengths) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}, std::size_t{8},
                              std::size_t{1023}}) {
    std::vector<float> src(n);
    Rng rng(static_cast<std::uint64_t>(n));
    for (float& x : src) x = static_cast<float>(rng.Uniform(-4.0, 4.0));
    for (const CodecKind kind : {CodecKind::kFp16, CodecKind::kBf16}) {
      std::vector<float> wire(compress::CastWireFloats(n), -1.0f);
      std::vector<float> out(n, -99.0f);
      compress::CastEncode(kind, src, wire);
      compress::CastDecode(kind, wire, out, n);
      for (std::size_t i = 0; i < n; ++i) {
        const float want =
            kind == CodecKind::kFp16
                ? compress::HalfToFloat(compress::FloatToHalf(src[i]))
                : compress::Bf16ToFloat(compress::FloatToBf16(src[i]));
        EXPECT_EQ(out[i], want) << "kind=" << static_cast<int>(kind)
                                << " n=" << n << " i=" << i;
      }
    }
  }
}

// --------------------------------------------- dispatched cast kernels ----
//
// CastEncode/CastDecode (and their unpacked *Lanes twins) run whichever
// kernel the CPU supports — 8-wide F16C/AVX2 blocks or the scalar loop —
// and either way every lane must equal the scalar element functions bit
// for bit, NaN payloads included.

std::uint16_t ScalarEncode(CodecKind kind, float v) {
  return kind == CodecKind::kFp16 ? compress::FloatToHalf(v)
                                  : compress::FloatToBf16(v);
}

float ScalarDecode(CodecKind kind, std::uint16_t h) {
  return kind == CodecKind::kFp16 ? compress::HalfToFloat(h)
                                  : compress::Bf16ToFloat(h);
}

/// Lane i of packed wire words (element 2i in the low half of word i).
std::uint16_t WireLane(std::span<const float> wire, std::size_t i) {
  const auto word = std::bit_cast<std::uint32_t>(wire[i / 2]);
  return static_cast<std::uint16_t>(i % 2 == 0 ? word & 0xFFFFu : word >> 16);
}

std::vector<float> PackWire(std::span<const std::uint16_t> lanes) {
  std::vector<float> wire(compress::CastWireFloats(lanes.size()));
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const std::uint32_t shifted = static_cast<std::uint32_t>(lanes[i])
                                  << (i % 2 == 0 ? 0 : 16);
    wire[i / 2] =
        std::bit_cast<float>(std::bit_cast<std::uint32_t>(wire[i / 2]) |
                             shifted);
  }
  return wire;
}

/// Encodes `src` through both dispatched entry points and counts lanes that
/// differ from the scalar reference (reporting the first one).
void ExpectEncodeMatchesScalar(CodecKind kind, std::span<const float> src) {
  std::vector<float> wire(compress::CastWireFloats(src.size()));
  std::vector<std::uint16_t> lanes(src.size());
  compress::CastEncode(kind, src, wire);
  compress::CastEncodeLanes(kind, src, lanes);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::uint16_t want = ScalarEncode(kind, src[i]);
    if (WireLane(wire, i) == want && lanes[i] == want) continue;
    if (mismatches++ == 0) {
      ADD_FAILURE() << compress::ToString(kind) << " encode of float 0x"
                    << std::hex << std::bit_cast<std::uint32_t>(src[i])
                    << " at " << std::dec << i << ": wire 0x" << std::hex
                    << WireLane(wire, i) << ", lanes 0x" << lanes[i]
                    << ", scalar 0x" << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << compress::ToString(kind);
}

void ExpectDecodeMatchesScalar(CodecKind kind,
                               std::span<const std::uint16_t> lanes) {
  const std::vector<float> wire = PackWire(lanes);
  std::vector<float> from_wire(lanes.size());
  std::vector<float> from_lanes(lanes.size());
  compress::CastDecode(kind, wire, from_wire, lanes.size());
  compress::CastDecodeLanes(kind, lanes, from_lanes);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const auto want = std::bit_cast<std::uint32_t>(ScalarDecode(kind, lanes[i]));
    if (std::bit_cast<std::uint32_t>(from_wire[i]) == want &&
        std::bit_cast<std::uint32_t>(from_lanes[i]) == want) {
      continue;
    }
    if (mismatches++ == 0) {
      ADD_FAILURE() << compress::ToString(kind) << " decode of 0x" << std::hex
                    << lanes[i] << " at " << std::dec << i << ": wire 0x"
                    << std::hex << std::bit_cast<std::uint32_t>(from_wire[i])
                    << ", lanes 0x"
                    << std::bit_cast<std::uint32_t>(from_lanes[i])
                    << ", scalar 0x" << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << compress::ToString(kind);
}

TEST(CastKernelTest, DecodeEvery16BitPattern) {
  std::vector<std::uint16_t> lanes(0x10000);
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    lanes[h] = static_cast<std::uint16_t>(h);
  }
  for (const CodecKind kind : {CodecKind::kFp16, CodecKind::kBf16}) {
    ExpectDecodeMatchesScalar(kind, lanes);
  }
}

/// Every float whose top bits vary over [0, 2^(32 - low_bits)), with the
/// dropped low bits fixed to each of `lows`.
void ExpectEncodeBoundariesMatchScalar(CodecKind kind, int low_bits,
                                       std::initializer_list<std::uint32_t> lows) {
  std::vector<float> src(std::size_t{1} << (32 - low_bits));
  for (const std::uint32_t low : lows) {
    for (std::size_t hi = 0; hi < src.size(); ++hi) {
      src[hi] = std::bit_cast<float>(
          (static_cast<std::uint32_t>(hi) << low_bits) | low);
    }
    ExpectEncodeMatchesScalar(kind, src);
  }
}

// fp16 drops 13 mantissa bits: round-bit/sticky boundaries, plus every
// subnormal, overflow, Inf and NaN pattern the top 19 bits can reach.
TEST(CastKernelTest, Fp16EncodeRoundingBoundaries) {
  ExpectEncodeBoundariesMatchScalar(
      CodecKind::kFp16, 13,
      {0x0u, 0x1u, 0x7FFu, 0x800u, 0x801u, 0xFFFu, 0x1000u, 0x1001u, 0x1FFFu});
}

TEST(CastKernelTest, Bf16EncodeRoundingBoundaries) {
  ExpectEncodeBoundariesMatchScalar(
      CodecKind::kBf16, 16, {0x0u, 0x1u, 0x7FFFu, 0x8000u, 0x8001u, 0xFFFFu});
}

// A block with one special lane must take the scalar path for that lane
// (or produce the identical bits) without disturbing its seven neighbours.
TEST(CastKernelTest, SpecialValueAtEveryLane) {
  const std::vector<std::uint32_t> special_floats = {
      0x7FC00000u,  // quiet NaN
      0x7F800001u,  // signalling NaN, payload only in the low bits
      0xFFC12345u,  // negative quiet NaN with payload
      0x7F800000u,  // +Inf
      0xFF800000u,  // -Inf
      0x00000001u,  // smallest float subnormal
      0x35800000u,  // 2^-20: an fp16 subnormal
  };
  const std::vector<std::uint16_t> special_halves = {
      0x7C01u, 0xFE00u, 0x7C00u, 0xFC00u, 0x0001u, 0x83FFu,  // fp16
      0x7F81u, 0xFFC0u, 0x7F80u, 0xFF80u, 0x0001u, 0x807Fu,  // bf16
  };
  Rng rng(17);
  std::vector<float> base(16);
  for (float& x : base) x = static_cast<float>(rng.Uniform(-4.0, 4.0));
  for (const CodecKind kind : {CodecKind::kFp16, CodecKind::kBf16}) {
    std::vector<std::uint16_t> base_lanes(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      base_lanes[i] = ScalarEncode(kind, base[i]);
    }
    for (std::size_t lane = 0; lane < 8; ++lane) {
      for (const std::uint32_t bits : special_floats) {
        std::vector<float> src = base;
        src[lane] = std::bit_cast<float>(bits);
        src[8 + lane] = std::bit_cast<float>(bits);
        ExpectEncodeMatchesScalar(kind, src);
      }
      for (const std::uint16_t h : special_halves) {
        std::vector<std::uint16_t> lanes = base_lanes;
        lanes[lane] = h;
        lanes[8 + lane] = h;
        ExpectDecodeMatchesScalar(kind, lanes);
      }
    }
  }
}

// Lengths 0..33 at source offsets 0..7 cover empty input, tails shorter
// than a block, whole blocks and block + tail at every alignment; the
// source mixes specials into ordinary values so tails see them too. Writes
// must stay inside CastWireFloats(n) words / n lanes / n floats.
TEST(CastKernelTest, LengthsAndOffsets) {
  constexpr std::uint32_t kSentinel = 0x7FBADBADu;
  Rng rng(29);
  std::vector<float> src(48);
  for (float& x : src) x = static_cast<float>(rng.Uniform(-70000.0, 70000.0));
  src[5] = std::bit_cast<float>(0x7F800001u);
  src[13] = std::numeric_limits<float>::infinity();
  src[22] = std::bit_cast<float>(0x33800000u);  // 2^-24, fp16 rounding edge
  src[30] = std::bit_cast<float>(0xFFC12345u);
  src[37] = 1e-3f;
  for (const CodecKind kind : {CodecKind::kFp16, CodecKind::kBf16}) {
    std::vector<std::uint16_t> all_lanes(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      all_lanes[i] = ScalarEncode(kind, src[i]);
    }
    all_lanes[9] = kind == CodecKind::kFp16 ? 0x7C01u : 0x7F81u;
    const std::vector<float> all_wire = PackWire(all_lanes);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t n = 0; n <= 33; ++n) {
        SCOPED_TRACE(testing::Message()
                     << compress::ToString(kind) << " offset=" << offset
                     << " n=" << n);
        const auto in = std::span<const float>(src).subspan(offset, n);
        const std::size_t words = compress::CastWireFloats(n);
        std::vector<float> wire(words + 1, std::bit_cast<float>(kSentinel));
        compress::CastEncode(kind, in, wire);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(WireLane(wire, i), ScalarEncode(kind, in[i])) << i;
        }
        if (n % 2 != 0) {
          ASSERT_EQ(WireLane(wire, n), 0u);  // zeroed high half
        }
        ASSERT_EQ(std::bit_cast<std::uint32_t>(wire[words]), kSentinel);

        const auto lanes =
            std::span<const std::uint16_t>(all_lanes).subspan(offset, n);
        std::vector<float> out(n + 1, std::bit_cast<float>(kSentinel));
        compress::CastDecodeLanes(kind, lanes, out);
        // Wire words at the same offset: their lanes start at 2 * offset.
        std::vector<float> out_wire(n + 1, std::bit_cast<float>(kSentinel));
        compress::CastDecode(kind,
                             std::span<const float>(all_wire)
                                 .subspan(offset, compress::CastWireFloats(n)),
                             out_wire, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                    std::bit_cast<std::uint32_t>(ScalarDecode(kind, lanes[i])))
              << i;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(out_wire[i]),
                    std::bit_cast<std::uint32_t>(
                        ScalarDecode(kind, all_lanes[2 * offset + i])))
              << i;
        }
        ASSERT_EQ(std::bit_cast<std::uint32_t>(out[n]), kSentinel);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(out_wire[n]), kSentinel);
      }
    }
  }
}

// ------------------------------------------------- sparse wire formats ----

TEST(SparseWireTest, OneBitEncodeDecode) {
  common::BufferPool pool;
  const std::vector<float> src = {2.0f, -1.0f, 0.0f, 4.0f, -3.0f};
  const CodecSpec spec{CodecKind::kOneBit};
  std::vector<float> wire(compress::MaxWireFloats(spec, src.size()));
  const std::size_t wn = compress::SparseEncode(spec, src, wire, pool);
  // Header (2) + one mask word for 5 elements.
  ASSERT_EQ(wn, 3u);
  const float pos_mean = wire[0];  // mean of {2, 4}
  const float neg_mean = wire[1];  // mean of {-1, 0, -3}
  EXPECT_FLOAT_EQ(pos_mean, 3.0f);
  EXPECT_FLOAT_EQ(neg_mean, -4.0f / 3.0f);
  std::vector<float> out(src.size(), 0.0f);
  ASSERT_TRUE(compress::SparseDecodeAccumulate(
                  spec, std::span<const float>(wire.data(), wn), out)
                  .ok());
  EXPECT_FLOAT_EQ(out[0], pos_mean);
  EXPECT_FLOAT_EQ(out[1], neg_mean);
  EXPECT_FLOAT_EQ(out[2], neg_mean);
  EXPECT_FLOAT_EQ(out[3], pos_mean);
  EXPECT_FLOAT_EQ(out[4], neg_mean);
  // Truncated record is rejected without touching dst.
  EXPECT_FALSE(compress::SparseDecodeAccumulate(
                   spec, std::span<const float>(wire.data(), wn - 1), out)
                   .ok());
}

TEST(SparseWireTest, TopKEncodeDecode) {
  common::BufferPool pool;
  std::vector<float> src(100, 0.0f);
  src[7] = 5.0f;
  src[42] = -9.0f;
  src[99] = 3.0f;
  const CodecSpec spec{CodecKind::kTopK, 0.03f};  // k = 3
  std::vector<float> wire(compress::MaxWireFloats(spec, src.size()));
  const std::size_t wn = compress::SparseEncode(spec, src, wire, pool);
  ASSERT_EQ(wn, 1u + 2u * 3u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[0]), 3u);
  // (index, value) pairs in ascending index order.
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[1]), 7u);
  EXPECT_FLOAT_EQ(wire[2], 5.0f);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[3]), 42u);
  EXPECT_FLOAT_EQ(wire[4], -9.0f);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[5]), 99u);
  EXPECT_FLOAT_EQ(wire[6], 3.0f);
  std::vector<float> out(src.size(), 0.0f);
  ASSERT_TRUE(compress::SparseDecodeAccumulate(
                  spec, std::span<const float>(wire.data(), wn), out)
                  .ok());
  EXPECT_EQ(out, src);
}

TEST(SparseWireTest, TopKTiesResolveByIndexOrder) {
  common::BufferPool pool;
  std::vector<float> src(10, 1.0f);  // every magnitude ties
  const CodecSpec spec{CodecKind::kTopK, 0.3f};  // k = 3
  std::vector<float> wire(compress::MaxWireFloats(spec, src.size()));
  const std::size_t wn = compress::SparseEncode(spec, src, wire, pool);
  ASSERT_EQ(wn, 7u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[1 + 2 * i]),
              static_cast<std::uint32_t>(i));
  }
}

TEST(SparseWireTest, TopKRejectsMalformedRecords) {
  common::BufferPool pool;
  std::vector<float> src(16, 1.0f);
  const CodecSpec spec{CodecKind::kTopK, 0.25f};  // k = 4
  std::vector<float> wire(compress::MaxWireFloats(spec, src.size()));
  const std::size_t wn = compress::SparseEncode(spec, src, wire, pool);
  std::vector<float> out(src.size(), 0.0f);

  // Length does not match the header's k.
  EXPECT_FALSE(compress::SparseDecodeAccumulate(
                   spec, std::span<const float>(wire.data(), wn - 2), out)
                   .ok());
  // Out-of-range index.
  std::vector<float> bad(wire.begin(), wire.begin() + static_cast<long>(wn));
  bad[1] = std::bit_cast<float>(std::uint32_t{999});
  EXPECT_FALSE(
      compress::SparseDecodeAccumulate(spec, bad, out).ok());
  // Non-ascending (duplicate) index.
  bad.assign(wire.begin(), wire.begin() + static_cast<long>(wn));
  bad[3] = bad[1];
  EXPECT_FALSE(
      compress::SparseDecodeAccumulate(spec, bad, out).ok());
  // k larger than the destination.
  std::vector<float> tiny(2, 0.0f);
  EXPECT_FALSE(compress::SparseDecodeAccumulate(
                   spec, std::span<const float>(wire.data(), wn), tiny)
                   .ok());
  // Empty record.
  EXPECT_FALSE(compress::SparseDecodeAccumulate(
                   spec, std::span<const float>(), out)
                   .ok());
}

TEST(SparseWireTest, TopKCountClamps) {
  EXPECT_EQ(compress::TopKCount(0, 0.01f), 0u);
  EXPECT_EQ(compress::TopKCount(10, 0.0f), 1u);   // floor at 1
  EXPECT_EQ(compress::TopKCount(10, 1.0f), 10u);  // ceiling at n
  EXPECT_EQ(compress::TopKCount(1000, 0.01f), 10u);
}

// ------------------------------------------------------ error feedback ----

// With error feedback, the running average of the decoded (transmitted)
// gradients converges to the true gradient even though every single step is
// heavily quantized — the residual re-injects exactly what was dropped.
TEST(ErrorFeedbackTest, RunningAverageConvergesToTrueGradient) {
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kOneBit}, CodecSpec{CodecKind::kTopK, 0.05f}}) {
    common::BufferPool pool;
    const std::size_t n = 512;
    std::vector<float> g(n);
    Rng rng(7);
    for (float& x : g) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    double g_norm = 0.0;
    for (float x : g) g_norm += static_cast<double>(x) * x;
    g_norm = std::sqrt(g_norm);

    std::vector<float> residual(n, 0.0f);
    std::vector<float> compensated(n);
    std::vector<double> sum_decoded(n, 0.0);
    std::vector<float> wire(compress::MaxWireFloats(spec, n));
    auto avg_error_after = [&](int steps, int start) {
      for (int t = start; t < steps; ++t) {
        for (std::size_t i = 0; i < n; ++i) {
          compensated[i] = g[i] + residual[i];
        }
        const std::size_t wn =
            compress::SparseEncode(spec, compensated, wire, pool);
        std::vector<float> decoded(n, 0.0f);
        EXPECT_TRUE(compress::SparseDecodeAccumulate(
                        spec, std::span<const float>(wire.data(), wn),
                        decoded)
                        .ok());
        for (std::size_t i = 0; i < n; ++i) {
          residual[i] = compensated[i] - decoded[i];
          sum_decoded[i] += static_cast<double>(decoded[i]);
        }
      }
      double err = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d =
            sum_decoded[i] / steps - static_cast<double>(g[i]);
        err += d * d;
      }
      return std::sqrt(err) / g_norm;
    };
    auto residual_norm = [&] {
      double r2 = 0.0;
      for (float r : residual) r2 += static_cast<double>(r) * r;
      return std::sqrt(r2);
    };
    const double early = avg_error_after(5, 0);
    const double late = avg_error_after(100, 5);
    // The residual keeps what every step dropped, so the time-averaged
    // transmitted gradient closes in on the truth.
    EXPECT_LT(late, early * 0.5) << compress::ToString(spec);
    // And the residual saturates rather than growing without bound: after
    // it reaches steady state (top-k revisits every coordinate once per
    // ~n/k steps), another 100 steps barely move its norm.
    const double r_mid = residual_norm();
    avg_error_after(200, 100);
    EXPECT_LT(residual_norm(), 1.25 * r_mid + 1e-3 * g_norm)
        << compress::ToString(spec);
  }
}

// --------------------------------------------------- ring bit-exactness ----

/// All-reduce `data[r]` on every rank over a fresh transport; returns
/// per-rank results.
std::vector<std::vector<float>> RunRing(const CodecSpec& spec, int world,
                                        std::vector<std::vector<float>> data,
                                        collective::ReduceOp op, int depth,
                                        int channels = 1) {
  transport::InProcTransport tr(world);
  common::BufferPool pool;
  std::vector<std::thread> threads;
  std::vector<std::vector<float>> residuals(
      static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& vec = data[static_cast<std::size_t>(r)];
      collective::Comm comm{&tr, r, world, /*tag_base=*/1,
                            /*timeout_ms=*/20000, &pool, depth};
      comm.codec = spec;
      Status st;
      if (compress::IsSparse(spec.kind) && channels == 1) {
        auto& res = residuals[static_cast<std::size_t>(r)];
        res.assign(vec.size(), 0.0f);
        st = collective::CompressedAllReduce(comm, vec, op,
                                             std::span<float>(res));
      } else if (channels > 1) {
        st = collective::MultiChannelAllReduce(comm, vec, op, channels);
      } else {
        st = collective::RingAllReduce(comm, vec, op);
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
    });
  }
  for (auto& t : threads) t.join();
  return data;
}

std::vector<std::vector<float>> MakeRankData(int world, std::size_t len,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> data(static_cast<std::size_t>(world));
  Rng rng(seed);
  for (auto& v : data) {
    v.resize(len);
    for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return data;
}

// Every codec, odd lengths, several worlds and depths: all replicas must be
// bit-identical, and the cast codecs must stay near the exact average.
TEST(RingCodecMatrixTest, ReplicasBitIdenticalAndCastAccurate) {
  const std::vector<CodecSpec> codecs = {
      CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kBf16},
      CodecSpec{CodecKind::kOneBit}, CodecSpec{CodecKind::kTopK, 0.1f}};
  for (const CodecSpec& spec : codecs) {
    for (const int world : {2, 3, 4}) {
      for (const std::size_t len :
           {std::size_t{1}, std::size_t{5}, std::size_t{63},
            std::size_t{130}}) {
        for (const int depth : {1, 4}) {
          const auto inputs = MakeRankData(
              world, len,
              1000 + static_cast<std::uint64_t>(world) * 10 + len);
          const auto out = RunRing(spec, world, inputs,
                                   collective::ReduceOp::kAvg, depth);
          for (int r = 1; r < world; ++r) {
            ASSERT_EQ(out[static_cast<std::size_t>(r)], out[0])
                << compress::ToString(spec) << " world=" << world
                << " len=" << len << " depth=" << depth << " rank=" << r;
          }
          if (compress::IsCast(spec.kind)) {
            const float tol =
                spec.kind == CodecKind::kFp16 ? 0.01f : 0.08f;
            for (std::size_t i = 0; i < len; ++i) {
              double exact = 0.0;
              for (int r = 0; r < world; ++r) {
                exact += static_cast<double>(
                    inputs[static_cast<std::size_t>(r)][i]);
              }
              exact /= world;
              EXPECT_NEAR(out[0][i], static_cast<float>(exact), tol)
                  << compress::ToString(spec) << " world=" << world
                  << " len=" << len << " depth=" << depth << " i=" << i;
            }
          }
        }
      }
    }
  }
}

// kSum must also hold (the engine retries use it via FinalizeAvg skipping).
TEST(RingCodecMatrixTest, SumOpBitIdentical) {
  const auto inputs = MakeRankData(3, 130, 99);
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kTopK, 0.1f}}) {
    const auto out =
        RunRing(spec, 3, inputs, collective::ReduceOp::kSum, 2);
    EXPECT_EQ(out[1], out[0]) << compress::ToString(spec);
    EXPECT_EQ(out[2], out[0]) << compress::ToString(spec);
  }
}

// Top-k with a shared sparse support (<= k per rank's union) is lossless:
// the all-reduce equals the exact average to fp32 rounding.
TEST(RingCodecMatrixTest, TopKLosslessOnSharedSparseSupport) {
  const int world = 4;
  const std::size_t len = 1000;
  std::vector<std::vector<float>> inputs(world);
  Rng rng(5);
  for (int r = 0; r < world; ++r) {
    inputs[static_cast<std::size_t>(r)].assign(len, 0.0f);
  }
  for (std::size_t i = 0; i < len; i += 125) {  // 8 hot rows, k = 10
    for (int r = 0; r < world; ++r) {
      inputs[static_cast<std::size_t>(r)][i] =
          static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  const auto out = RunRing(CodecSpec{CodecKind::kTopK, 0.01f}, world, inputs,
                           collective::ReduceOp::kAvg, 1);
  for (std::size_t i = 0; i < len; ++i) {
    double exact = 0.0;
    for (int r = 0; r < world; ++r) {
      exact += static_cast<double>(inputs[static_cast<std::size_t>(r)][i]);
    }
    EXPECT_NEAR(out[0][i], static_cast<float>(exact / world), 1e-6f) << i;
  }
}

// Codecs compose with the multi-channel splitter: every channel's sub-ring
// inherits the codec, replicas stay bit-identical.
TEST(RingCodecMatrixTest, MultiChannelComposition) {
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kTopK, 0.1f}}) {
    const auto inputs = MakeRankData(3, 4096, 21);
    const auto out = RunRing(spec, 3, inputs, collective::ReduceOp::kAvg,
                             /*depth=*/2, /*channels=*/2);
    EXPECT_EQ(out[1], out[0]) << compress::ToString(spec);
    EXPECT_EQ(out[2], out[0]) << compress::ToString(spec);
  }
}

// Codec wire formats survive the reliable layer over drop/dup/reorder/
// corrupt chaos: the result is bit-identical to a clean-transport run.
TEST(RingCodecMatrixTest, ChaosReliableComposition) {
  const int world = 3;
  const std::size_t len = 1024;
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kTopK, 0.05f}}) {
    auto run = [&](transport::Transport& tr) {
      auto data = MakeRankData(world, len, 321);
      common::BufferPool pool;
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          auto& vec = data[static_cast<std::size_t>(r)];
          collective::Comm comm{&tr, r, world, /*tag_base=*/1,
                                /*timeout_ms=*/20000, &pool, 2};
          comm.codec = spec;
          std::vector<float> res;
          Status st;
          if (compress::IsSparse(spec.kind)) {
            res.assign(len, 0.0f);
            st = collective::CompressedAllReduce(
                comm, vec, collective::ReduceOp::kAvg,
                std::span<float>(res));
          } else {
            st = collective::RingAllReduce(comm, vec,
                                           collective::ReduceOp::kAvg);
          }
          EXPECT_TRUE(st.ok()) << st.ToString();
        });
      }
      for (auto& t : threads) t.join();
      return data;
    };

    transport::InProcTransport clean(world);
    const auto ref = run(clean);

    transport::FaultSpec fault;
    fault.seed = 4242;
    fault.all_links.drop_prob = 0.03;
    fault.all_links.dup_prob = 0.03;
    fault.all_links.reorder_prob = 0.03;
    fault.all_links.corrupt_prob = 0.01;
    transport::TransportStack stack(world, fault,
                                    transport::ReliableOptions{});
    transport::ReliableTransport& rel = *stack.reliable();
    const auto chaotic = run(rel);

    for (int r = 0; r < world; ++r) {
      ASSERT_EQ(chaotic[static_cast<std::size_t>(r)],
                ref[static_cast<std::size_t>(r)])
          << compress::ToString(spec) << " rank=" << r;
    }
  }
}

// Compressed collectives run entirely out of the buffer pool: no payload
// allocations, no pool misses in any round. The pool is primed with each
// size class's worst-case population, derived from the algorithms:
//  * cast ring: every rank holds one decode-scratch chunk for the whole
//    collective and puts `depth` wire slices in flight in the reduce-scatter
//    prologue; every later hop reuses a received payload.
//  * CompressedAllReduce: every rank holds its own record plus one cursor
//    per hop (`world` records, kept until the decode), and one len-sized
//    scratch at a time — the top-k partition buffer, released before the
//    error-feedback `decoded` buffer is taken. How many ranks' scratch
//    overlaps depends on thread timing, so a single warm-up round can stop
//    short of `world` of them; priming does not depend on the timing.
TEST(RingCodecMatrixTest, ZeroSteadyStateAllocations) {
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kTopK, 0.1f}}) {
    const int world = 2;
    const int depth = 2;
    const std::size_t len = 1000;
    const std::size_t chunk = (len + world - 1) / world;
    const std::size_t slice = (chunk + depth - 1) / depth;
    const std::vector<std::pair<std::size_t, int>> prime =
        compress::IsSparse(spec.kind)
            ? std::vector<std::pair<std::size_t, int>>{
                  {compress::MaxWireFloats(spec, len), world * world},
                  {len, world}}
            : std::vector<std::pair<std::size_t, int>>{
                  {compress::CastWireFloats(slice), world * depth},
                  {chunk, world}};
    transport::InProcTransport tr(world);
    common::BufferPool pool;
    test::PrimePool(pool, prime);
    auto round = [&] {
      auto data = MakeRankData(world, len, 77);
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          collective::Comm comm{&tr, r, world, /*tag_base=*/1,
                                /*timeout_ms=*/20000, &pool, depth};
          comm.codec = spec;
          auto& vec = data[static_cast<std::size_t>(r)];
          std::vector<float> res;
          Status st;
          if (compress::IsSparse(spec.kind)) {
            res.assign(len, 0.0f);
            st = collective::CompressedAllReduce(
                comm, vec, collective::ReduceOp::kAvg,
                std::span<float>(res));
          } else {
            st = collective::RingAllReduce(comm, vec,
                                           collective::ReduceOp::kAvg);
          }
          EXPECT_TRUE(st.ok()) << st.ToString();
        });
      }
      for (auto& t : threads) t.join();
    };
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t misses0 = pool.stats().misses;
      round();
      EXPECT_EQ(pool.stats().misses, misses0)
          << compress::ToString(spec) << " round " << i;
    }
  }
}

// ------------------------------------------------- codec-aware packing ----

TEST(PackingCodecTest, CodecChangeClosesUnit) {
  core::StreamingPacker packer(/*granularity_bytes=*/1024);
  packer.Add(0, 100, CodecSpec{CodecKind::kFp16});
  packer.Add(1, 100, CodecSpec{CodecKind::kTopK, 0.01f});
  packer.Flush();
  ASSERT_EQ(packer.ReadyUnits(), 2u);
  const auto a = packer.PopReadyUnit();
  const auto b = packer.PopReadyUnit();
  EXPECT_EQ(a.codec, (CodecSpec{CodecKind::kFp16}));
  EXPECT_EQ(b.codec, (CodecSpec{CodecKind::kTopK, 0.01f}));
}

TEST(PackingCodecTest, SameCodecStillMerges) {
  core::StreamingPacker packer(1024);
  packer.Add(0, 100, CodecSpec{CodecKind::kFp16});
  packer.Add(1, 100, CodecSpec{CodecKind::kFp16});
  packer.Flush();
  ASSERT_EQ(packer.ReadyUnits(), 1u);
  EXPECT_EQ(packer.PopReadyUnit().segments.size(), 2u);
}

TEST(PackingCodecTest, SplitGradientStampsEveryUnit) {
  core::StreamingPacker packer(1024);
  packer.Add(0, 3000, CodecSpec{CodecKind::kOneBit});
  packer.Flush();
  ASSERT_EQ(packer.ReadyUnits(), 3u);
  while (packer.HasReadyUnit()) {
    EXPECT_EQ(packer.PopReadyUnit().codec, (CodecSpec{CodecKind::kOneBit}));
  }
}

// ------------------------------------------- config axis + cache v3 ----

TEST(ConfigCodecTest, CodecAxisFollowsDepthInFlatIndex) {
  core::CommConfigSpace space;
  const std::size_t base = space.stream_options.size() *
                           space.granularity_options.size() *
                           space.algorithm_options.size() *
                           space.pipeline_depth_options.size();
  EXPECT_EQ(space.NumPoints(), base * space.codec_options.size() *
                                   space.priority_urgent_options.size() *
                                   space.priority_aging_options.size());
  // Indices below the codec-free space size keep their old meaning
  // (codec = kNone and FIFO dispatch, exactly how those configs ran before
  // the newer axes existed), so persisted flat indices stay valid.
  for (const std::size_t i : {std::size_t{0}, base / 2, base - 1}) {
    EXPECT_EQ(space.ConfigAt(i).codec.kind, CodecKind::kNone) << i;
    EXPECT_EQ(space.ConfigAt(i).priority_urgent_fraction,
              space.priority_urgent_options[0])
        << i;
    EXPECT_EQ(space.ConfigAt(i).priority_aging_ms,
              space.priority_aging_options[0])
        << i;
  }
  EXPECT_EQ(space.ConfigAt(base).codec.kind, space.codec_options[1].kind);
  // The priority axes are appended after codec: the first index past the
  // codec-extended space flips urgent_fraction, not any older axis.
  const std::size_t codec_space = base * space.codec_options.size();
  EXPECT_EQ(space.ConfigAt(codec_space).codec.kind, CodecKind::kNone);
  EXPECT_EQ(space.ConfigAt(codec_space).priority_urgent_fraction,
            space.priority_urgent_options[1]);
}

TEST(ConfigCodecTest, CodecForResolvesOverrides) {
  core::CommConfig cfg;
  cfg.codec = CodecSpec{CodecKind::kFp16};
  cfg.codec_overrides.emplace_back("embedding",
                                   CodecSpec{CodecKind::kTopK, 0.02f});
  EXPECT_EQ(cfg.CodecFor("embedding"), (CodecSpec{CodecKind::kTopK, 0.02f}));
  EXPECT_EQ(cfg.CodecFor("conv1"), (CodecSpec{CodecKind::kFp16}));
  EXPECT_NE(cfg.ToString().find("codec=fp16"), std::string::npos);
}

TEST(ConfigCodecTest, TuningCacheV3RoundTripsCodec) {
  autotune::TuningCache cache;
  net::Topology topo{4, 8, net::TransportKind::kTcp};
  core::CommConfig cfg;
  cfg.num_streams = 12;
  cfg.codec = CodecSpec{CodecKind::kTopK, 0.02f};
  cfg.codec_overrides.emplace_back("dense", CodecSpec{CodecKind::kFp16});
  cfg.codec_overrides.emplace_back("emb",
                                   CodecSpec{CodecKind::kTopK, 0.05f});
  cache.Store(dnn::MakeResNet50(), topo, cfg, 42.0);

  autotune::TuningCache restored;
  ASSERT_TRUE(restored.Deserialize(cache.Serialize()).ok());
  auto hit = restored.LookupSimilar(dnn::MakeResNet50(), topo);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, cfg);
}

// ------------------------------------------------- per-tensor bandit ----

TEST(CodecTunerTest, SeparatesDenseFromSparse) {
  compress::PerTensorCodecTuner tuner;
  const std::size_t dense = tuner.RegisterTensor("conv1");
  const std::size_t sparse = tuner.RegisterTensor("embedding");
  EXPECT_EQ(tuner.RegisterTensor("conv1"), dense);  // idempotent
  EXPECT_EQ(tuner.NumTensors(), 2u);

  common::BufferPool pool;
  const std::size_t n = 4096;
  std::vector<float> dense_g(n);
  std::vector<float> sparse_g(n, 0.0f);
  Rng rng(13);
  for (float& x : dense_g) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (std::size_t i = 0; i < n; i += 128) {  // 0.8% hot
    sparse_g[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }

  auto observe = [&](std::size_t id, std::span<const float> g) {
    const CodecSpec pick = tuner.Choose(id);
    std::size_t wire = g.size();
    double err = 0.0;
    if (pick.kind != CodecKind::kNone) {
      std::vector<float> w(compress::MaxWireFloats(pick, g.size()));
      std::vector<float> d(g.size(), 0.0f);
      if (compress::IsCast(pick.kind)) {
        wire = compress::CastWireFloats(g.size());
        compress::CastEncode(pick.kind, g, w);
        compress::CastDecode(pick.kind, w, d, g.size());
      } else {
        wire = compress::SparseEncode(pick, g, w, pool);
        ASSERT_TRUE(compress::SparseDecodeAccumulate(
                        pick, std::span<const float>(w.data(), wire), d)
                        .ok());
      }
      double e2 = 0.0;
      double r2 = 0.0;
      for (std::size_t i = 0; i < g.size(); ++i) {
        const double diff =
            static_cast<double>(d[i]) - static_cast<double>(g[i]);
        e2 += diff * diff;
        r2 += static_cast<double>(g[i]) * static_cast<double>(g[i]);
      }
      err = r2 > 0 ? std::sqrt(e2 / r2) : 0.0;
    }
    tuner.Observe(id, wire, g.size(), err);
  };
  const int rounds = 40;
  for (int t = 0; t < rounds; ++t) {
    observe(dense, dense_g);
    observe(sparse, sparse_g);
  }
  EXPECT_EQ(tuner.Plays(dense), static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(tuner.Best(dense).kind, CodecKind::kFp16);
  EXPECT_EQ(tuner.Best(sparse).kind, CodecKind::kTopK);
  EXPECT_EQ(tuner.NameOf(sparse), "embedding");
}

// ------------------------------------------ engine end-to-end parity ----

constexpr int kIn = 6;
constexpr int kOut = 2;

dnn::Mlp TrainSequential(const dnn::SyntheticDataset& ds, int steps,
                         float lr) {
  dnn::Mlp model({kIn, 12, kOut}, 42);
  for (int s = 0; s < steps; ++s) {
    model.Forward(ds.inputs, ds.num_samples);
    model.Backward(ds.inputs, ds.targets, ds.num_samples);
    model.SgdStep(lr);
  }
  return model;
}

std::vector<std::unique_ptr<dnn::Mlp>> TrainDistributed(
    const dnn::SyntheticDataset& ds, int world, int steps, float lr,
    core::CommConfig config) {
  core::ThreadedAiaccEngine engine(world, config);
  const int shard = ds.num_samples / world;
  std::vector<std::unique_ptr<dnn::Mlp>> replicas(
      static_cast<std::size_t>(world));
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      auto model =
          std::make_unique<dnn::Mlp>(std::vector<int>{kIn, 12, kOut}, 42);
      auto grads = model->GradientTensors();
      for (std::size_t t = 0; t < grads.size(); ++t) {
        char name[32];
        std::snprintf(name, sizeof(name), "grad%03zu", t);
        ASSERT_TRUE(worker.Register(name, grads[t]).ok());
      }
      worker.Finalize();
      std::vector<float> x(ds.inputs.begin() + r * shard * kIn,
                           ds.inputs.begin() + (r + 1) * shard * kIn);
      std::vector<float> y(ds.targets.begin() + r * shard * kOut,
                           ds.targets.begin() + (r + 1) * shard * kOut);
      for (int s = 0; s < steps; ++s) {
        model->Forward(x, shard);
        model->Backward(x, y, shard);
        worker.PushAll();
        ASSERT_TRUE(worker.WaitIteration().ok());
        model->SgdStep(lr);
      }
      replicas[static_cast<std::size_t>(r)] = std::move(model);
    });
  }
  for (auto& t : threads) t.join();
  return replicas;
}

float LossOf(const dnn::Mlp& model, const dnn::SyntheticDataset& ds) {
  // Forward is const-incorrect for caching reasons; evaluate on a copy.
  dnn::Mlp copy = model;
  return dnn::Mlp::MseLoss(copy.Forward(ds.inputs, ds.num_samples),
                           ds.targets);
}

// fp16 wire: replicas stay bit-identical to each other, land near the fp32
// reference, and training matches the reference loss closely.
TEST(EngineCodecTest, Fp16ConvergenceParity) {
  const auto ds = dnn::MakeSyntheticDataset(32, kIn, kOut, 7);
  const dnn::Mlp reference = TrainSequential(ds, 8, 0.2f);
  core::CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 256;
  config.codec = CodecSpec{CodecKind::kFp16};
  const auto replicas = TrainDistributed(ds, 4, 8, 0.2f, config);
  for (std::size_t r = 1; r < replicas.size(); ++r) {
    EXPECT_TRUE(replicas[r]->ParametersEqual(*replicas[0], 0.0f))
        << "rank " << r << " diverged";
  }
  EXPECT_TRUE(replicas[0]->ParametersEqual(reference, 0.05f));
  const float ref_loss = LossOf(reference, ds);
  const float got_loss = LossOf(*replicas[0], ds);
  EXPECT_NEAR(got_loss, ref_loss, std::max(0.02f, 0.25f * ref_loss));
}

// Sparse codecs with error feedback: replicas stay bit-identical and the
// loss still goes down substantially (EF makes quantized SGD converge).
TEST(EngineCodecTest, SparseCodecsConvergeWithErrorFeedback) {
  const auto ds = dnn::MakeSyntheticDataset(32, kIn, kOut, 7);
  const float initial_loss =
      LossOf(dnn::Mlp({kIn, 12, kOut}, 42), ds);
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kOneBit}, CodecSpec{CodecKind::kTopK, 0.25f}}) {
    core::CommConfig config;
    config.num_streams = 2;
    config.granularity_bytes = 256;
    config.codec = spec;
    const auto replicas = TrainDistributed(ds, 4, 30, 0.1f, config);
    for (std::size_t r = 1; r < replicas.size(); ++r) {
      EXPECT_TRUE(replicas[r]->ParametersEqual(*replicas[0], 0.0f))
          << compress::ToString(spec) << " rank " << r << " diverged";
    }
    const float final_loss = LossOf(*replicas[0], ds);
    EXPECT_LT(final_loss, 0.5f * initial_loss) << compress::ToString(spec);
  }
}

// Per-tensor overrides route different units through different codecs in
// the same iteration; determinism across ranks must survive the mix.
TEST(EngineCodecTest, PerTensorOverridesStayDeterministic) {
  const auto ds = dnn::MakeSyntheticDataset(24, kIn, kOut, 11);
  core::CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 128;
  config.codec_overrides.emplace_back("grad000",
                                      CodecSpec{CodecKind::kFp16});
  config.codec_overrides.emplace_back("grad001",
                                      CodecSpec{CodecKind::kTopK, 0.5f});
  const auto replicas = TrainDistributed(ds, 4, 6, 0.1f, config);
  for (std::size_t r = 1; r < replicas.size(); ++r) {
    EXPECT_TRUE(replicas[r]->ParametersEqual(*replicas[0], 0.0f))
        << "rank " << r << " diverged";
  }
}

}  // namespace
}  // namespace aiacc
