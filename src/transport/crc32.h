// CRC-32 (reflected, polynomial 0xEDB88320: the zlib/Ethernet CRC) used by
// the reliable transport's frame checksum. Slicing-by-8: eight 256-entry
// tables fold eight input bytes per step, several times faster than the
// classic byte-at-a-time loop while producing bit-identical values.
#pragma once

#include <cstddef>
#include <cstdint>

namespace aiacc::transport {

/// Fold `n` bytes at `data` into a running CRC register. The caller owns
/// the conventional pre/post conditioning: start from 0xFFFFFFFF and XOR
/// the result with 0xFFFFFFFF, so chained calls over consecutive pieces
/// equal one call over their concatenation.
std::uint32_t Crc32Update(std::uint32_t crc, const void* data, std::size_t n);

}  // namespace aiacc::transport
