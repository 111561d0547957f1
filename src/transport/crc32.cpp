#include "transport/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace aiacc::transport {
namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte table; tables[k][b] is the CRC of byte b
/// followed by k zero bytes, which lets one step fold eight bytes at once.
const CrcTables& Tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const CrcTables& t = Tables();
  // The eight-byte step reads two little-endian words; big-endian hosts
  // take the bytewise loop for everything.
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; n -= 8, p += 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, sizeof(lo));
      std::memcpy(&hi, p + 4, sizeof(hi));
      lo ^= crc;
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
    }
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

}  // namespace aiacc::transport
