// Pool priming for the steady-state allocation tests: fill a BufferPool's
// size classes with a communication pattern's worst-case buffer population
// up front, so a test can assert zero pool misses from its very first round
// instead of hoping one warm-up round happened to reach every peak.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"

namespace aiacc::test {

/// `prime` lists (request size, count) pairs, one entry per distinct size
/// class in play. All buffers are held at once before any is released, so
/// each class ends up with `count` idle buffers.
inline void PrimePool(common::BufferPool& pool,
                      const std::vector<std::pair<std::size_t, int>>& prime) {
  std::vector<common::BufferPool::Buffer> held;
  for (const auto& [n, count] : prime) {
    for (int i = 0; i < count; ++i) held.push_back(pool.Acquire(n));
  }
  for (auto& buffer : held) pool.Release(std::move(buffer));
}

}  // namespace aiacc::test
