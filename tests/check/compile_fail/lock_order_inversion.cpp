// Lockcheck case: acquiring two mutexes against their declared order.
//
// The serve stack declares service -> result-cache with
// SWDUAL_ACQUIRED_BEFORE (serve/service.h); this case is the minimal model
// of that declaration. The inversion diagnostic needs -Wthread-safety-beta,
// which is why the battery (and the build) always passes it alongside
// -Wthread-safety.
#include "util/mutex.h"

namespace {

class Ordered {
 public:
  void in_order() {
    swdual::util::MutexLock outer(first_);
    swdual::util::MutexLock inner(second_);
    ++transfers_;
  }

#ifdef LOCKCHECK_VIOLATION
  void inverted() {
    swdual::util::MutexLock inner(second_);
    swdual::util::MutexLock outer(first_);  // contradicts ACQUIRED_BEFORE
    ++transfers_;
  }
#endif

 private:
  swdual::util::Mutex first_ SWDUAL_ACQUIRED_BEFORE(second_);
  swdual::util::Mutex second_;
  long transfers_ SWDUAL_GUARDED_BY(second_) = 0;
};

}  // namespace

int main() {
  Ordered ordered;
  ordered.in_order();
#ifdef LOCKCHECK_VIOLATION
  ordered.inverted();
#endif
  return 0;
}
