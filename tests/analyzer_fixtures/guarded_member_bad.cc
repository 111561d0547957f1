// Known-bad fixture for the guarded-member check: a Mutex-owning class
// whose mutable members are neither GUARDED_BY nor marked NOLOCK.
#include "support.h"

#include <vector>

namespace fixtures {

class Mailbox {
 public:
  void Push(float v);

 private:
  common::Mutex mu_;
  std::vector<float> queue_;  // added later, lock forgotten
  std::vector<float> ready_
      GUARDED_BY(mu_);  // wrapped annotation: fine
  int dropped_ = 0;
  int owner_rank_ = 0;  // NOLOCK(set in ctor only)
};

}  // namespace fixtures
