#include "src/zofs/lease.h"

#include <algorithm>
#include <thread>

#include "src/common/clock.h"

namespace zofs {

LeaseClaim Lease::Acquire(uint64_t owner, uint64_t lease_ns) {
  const uint64_t give_up = common::RealNowNs() + std::max<uint64_t>(4 * lease_ns, 10'000'000);
  int spins = 0;
  for (;;) {
    const LeaseWord seen = Load();
    const uint64_t now = common::NowNs();
    if ((seen.owner == 0 || LeaseDead(seen.expiry, now)) &&
        TryClaim(seen, owner, now + lease_ns)) {
      return seen.owner == 0 ? LeaseClaim::kClaimed : LeaseClaim::kStolen;
    }
    if (common::RealNowNs() >= give_up) {
      return LeaseClaim::kBusy;
    }
    if (++spins < 64) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    } else {
      // The holder is probably descheduled: yield the CPU instead of
      // spinning out the timeslice (leases are hundreds of ms).
      std::this_thread::yield();
      spins = 0;
    }
  }
}

}  // namespace zofs
