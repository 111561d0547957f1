// Known-good counterpart to banned_token_bad.cc: the wrapped primitives,
// mentions that are only comments or strings, and a deliberate allocation
// waived inline.
#include "support.h"

namespace fixtures {

// A std::mutex here would bypass the lock-order detector.
common::Mutex registry_mu;
const char* kHint = "never call notify_all( on a raw condition variable";

struct MetricsHandles {
  int sends = 0;
};

// ANALYZER-OK(banned-token: built once at startup, never on the hot path)
MetricsHandles* Handles() { return new MetricsHandles(); }

}  // namespace fixtures
