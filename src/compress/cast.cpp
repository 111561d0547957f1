// Bulk fp16/bf16 casts: the vector kernels behind CastEncode/CastDecode and
// CastEncodeLanes/CastDecodeLanes, selected once per process, with the scalar
// element functions (compress/scalar.h) as the reference, the tail handler
// and the fallback for CPUs without AVX2+F16C.
#include <bit>
#include <cstring>

#include "compress/codec.h"
#include "compress/scalar.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace aiacc::compress {
namespace {

// The kernels read and write 16-bit lanes in native byte order. A wire word
// keeps element 2i in its low half, which is the lower-addressed lane only on
// a little-endian host — every target this code builds for.
static_assert(std::endian::native == std::endian::little,
              "cast wire packing assumes a little-endian host");

// Lane storage is either a std::uint16_t array or the float words of a wire
// payload; memcpy keeps every scalar access alias-safe for both, and the
// vector loads/stores below are alias-safe by definition.
std::uint16_t LoadLane(const unsigned char* lanes, std::size_t i) noexcept {
  std::uint16_t v = 0;
  std::memcpy(&v, lanes + 2 * i, sizeof(v));
  return v;
}

void StoreLane(unsigned char* lanes, std::size_t i, std::uint16_t v) noexcept {
  std::memcpy(lanes + 2 * i, &v, sizeof(v));
}

using EncodeFn = void (*)(const float*, std::size_t, unsigned char*) noexcept;
using DecodeFn = void (*)(const unsigned char*, std::size_t, float*) noexcept;

template <std::uint16_t (*Encode)(float) noexcept>
void EncodeScalar(const float* src, std::size_t n,
                  unsigned char* dst) noexcept {
  for (std::size_t i = 0; i < n; ++i) StoreLane(dst, i, Encode(src[i]));
}

template <float (*Decode)(std::uint16_t) noexcept>
void DecodeScalar(const unsigned char* src, std::size_t n,
                  float* dst) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = Decode(LoadLane(src, i));
}

#if defined(__x86_64__)

// Vector kernels, 8 elements per block. They differ from the scalar codec
// only in NaN handling — F16C keeps NaN payload bits on encode and quiets
// signalling NaNs on decode — so any block holding a NaN (encode) or an
// all-ones fp16 exponent (decode) runs the scalar reference instead.
// bf16 decode is a plain shift and needs no such fallback.

/// Any lane of `v` a NaN?
__attribute__((target("avx2"))) bool HasNan(__m256 v) noexcept {
  return _mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q)) != 0;
}

__attribute__((target("avx2,f16c"))) void EncodeFp16Avx2(
    const float* src, std::size_t n, unsigned char* dst) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    if (HasNan(v)) {
      EncodeScalar<FloatToHalf>(src + i, 8, dst + 2 * i);
      continue;
    }
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + 2 * i),
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
  EncodeScalar<FloatToHalf>(src + i, n - i, dst + 2 * i);
}

__attribute__((target("avx2,f16c"))) void DecodeFp16Avx2(
    const unsigned char* src, std::size_t n, float* dst) noexcept {
  const __m128i exponent = _mm_set1_epi16(0x7C00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 2 * i));
    const __m128i special =
        _mm_cmpeq_epi16(_mm_and_si128(h, exponent), exponent);
    if (_mm_movemask_epi8(special) != 0) {
      DecodeScalar<HalfToFloat>(src + 2 * i, 8, dst + i);
      continue;
    }
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  DecodeScalar<HalfToFloat>(src + 2 * i, n - i, dst + i);
}

/// bf16 round to nearest even in integer lanes: adding 0x7FFF plus the
/// kept lsb carries into the upper half exactly when the scalar rule rounds
/// up (round bit set and sticky bits or lsb set). Non-NaN bit patterns
/// never overflow the addition; the largest is -inf, 0xFF800000.
__attribute__((target("avx2"))) void EncodeBf16Avx2(
    const float* src, std::size_t n, unsigned char* dst) noexcept {
  const __m256i bias = _mm256_set1_epi32(0x7FFF);
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    if (HasNan(v)) {
      EncodeScalar<FloatToBf16>(src + i, 8, dst + 2 * i);
      continue;
    }
    const __m256i bits = _mm256_castps_si256(v);
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16), one);
    const __m256i upper = _mm256_srli_epi32(
        _mm256_add_epi32(bits, _mm256_add_epi32(bias, lsb)), 16);
    // Every lane is <= 0xFFFF, so the unsigned-saturating pack is exact.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * i),
                     _mm_packus_epi32(_mm256_castsi256_si128(upper),
                                      _mm256_extracti128_si256(upper, 1)));
  }
  EncodeScalar<FloatToBf16>(src + i, n - i, dst + 2 * i);
}

__attribute__((target("avx2"))) void DecodeBf16Avx2(
    const unsigned char* src, std::size_t n, float* dst) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 2 * i));
    _mm256_storeu_ps(dst + i, _mm256_castsi256_ps(_mm256_slli_epi32(
                                  _mm256_cvtepu16_epi32(b), 16)));
  }
  DecodeScalar<Bf16ToFloat>(src + 2 * i, n - i, dst + i);
}

/// AVX2 (with the OS saving YMM state, which __builtin_cpu_supports checks)
/// plus the F16C bit of CPUID leaf 1. F16C is read from CPUID directly:
/// older Clang releases do not accept "f16c" in __builtin_cpu_supports.
bool HasAvx2F16c() noexcept {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2")) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_F16C) != 0;
}

#endif  // __x86_64__

struct CastKernels {
  EncodeFn encode;
  DecodeFn decode;
};

struct KernelTable {
  CastKernels fp16;
  CastKernels bf16;
};

KernelTable SelectKernels() noexcept {
#if defined(__x86_64__)
  if (HasAvx2F16c()) {
    return {{EncodeFp16Avx2, DecodeFp16Avx2}, {EncodeBf16Avx2, DecodeBf16Avx2}};
  }
#endif
  return {{EncodeScalar<FloatToHalf>, DecodeScalar<HalfToFloat>},
          {EncodeScalar<FloatToBf16>, DecodeScalar<Bf16ToFloat>}};
}

/// The kernels for `kind` (a cast codec), chosen once per process.
const CastKernels& KernelsFor(CodecKind kind) noexcept {
  static const KernelTable table = SelectKernels();
  return kind == CodecKind::kFp16 ? table.fp16 : table.bf16;
}

}  // namespace

void CastEncode(CodecKind kind, std::span<const float> src,
                std::span<float> dst) noexcept {
  const std::size_t n = src.size();
  auto* lanes = reinterpret_cast<unsigned char*>(dst.data());
  KernelsFor(kind).encode(src.data(), n, lanes);
  if (n % 2 != 0) StoreLane(lanes, n, 0);  // high half of the last word
}

void CastDecode(CodecKind kind, std::span<const float> src,
                std::span<float> dst, std::size_t count) noexcept {
  KernelsFor(kind).decode(reinterpret_cast<const unsigned char*>(src.data()),
                          count, dst.data());
}

void CastEncodeLanes(CodecKind kind, std::span<const float> src,
                     std::span<std::uint16_t> dst) noexcept {
  KernelsFor(kind).encode(src.data(), src.size(),
                          reinterpret_cast<unsigned char*>(dst.data()));
}

void CastDecodeLanes(CodecKind kind, std::span<const std::uint16_t> src,
                     std::span<float> dst) noexcept {
  KernelsFor(kind).decode(reinterpret_cast<const unsigned char*>(src.data()),
                          src.size(), dst.data());
}

}  // namespace aiacc::compress
