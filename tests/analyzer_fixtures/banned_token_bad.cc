// Known-bad fixture for the banned-token check: one violation per row of
// the token table.
#include "support.h"

#include <cstdlib>
#include <mutex>

namespace fixtures {

std::mutex registry_mu;  // raw primitive: invisible to the lock-order detector

struct HotPathCounters {  // the retired side-channel counter struct
  int sends = 0;
};

float* ScratchBuffer(int n) {
  // Bypasses the buffer pool.
  return static_cast<float*>(std::malloc(sizeof(float) * n));
}

}  // namespace fixtures
