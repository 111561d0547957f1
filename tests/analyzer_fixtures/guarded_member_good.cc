// Known-good counterpart to guarded_member_bad.cc: every mutable member
// is annotated (on its own line or wrapped onto the next), exempt by type,
// or marked NOLOCK with a reason.
#include "support.h"

#include <atomic>
#include <vector>

namespace fixtures {

class Mailbox {
 public:
  void Push(float v);
  int size() const;

 private:
  common::Mutex mu_;
  common::CondVar cv_;
  std::vector<float> queue_ GUARDED_BY(mu_);
  std::vector<float> ready_
      GUARDED_BY(mu_);
  int dropped_ GUARDED_BY(mu_) = 0;
  std::atomic<int> waiters_{0};
  const int capacity_ = 64;
  int owner_rank_ = 0;  // NOLOCK(set in ctor only)
};

// No Mutex member: nothing to audit.
struct Plain {
  int count = 0;
};

}  // namespace fixtures
