// NVM leases (paper §5.2): the one claim protocol behind inode lease locks,
// leased per-thread free lists and the rename / staged-append intent slots.
//
// A lease is an owner word followed by an expiry word on the injectable
// common::NowNs() clock. The owner is a thread id (locks, lists) or an intent
// state (claimed, committed); 0 means free. Every claim CASes the expiry
// first and the owner second, each from the value the caller observed, and
// readers load the owner before the expiry: whoever sees a new owner also
// sees its fresh stamp, never the stale (zero or lapsed) expiry a
// claim-then-stamp protocol exposes between its two stores — the window in
// which a second claimant judges a just-claimed lease dead and takes it too.
// Of claimants racing from one observation, exactly one wins the expiry CAS.
// Nothing here writes back or fences: callers keep their own persistence.

#ifndef SRC_ZOFS_LEASE_H_
#define SRC_ZOFS_LEASE_H_

#include <cstdint>

#include "src/nvm/nvm.h"

namespace zofs {

// No legal lease stamp exceeds now + the longest lease anyone writes
// (recovery uses 10 s); an expiry further out than this slack is corrupt
// metadata, not a live holder.
inline constexpr uint64_t kMaxLeaseSlackNs = 60'000'000'000ull;

// A lease stamp that no live holder can currently own: expired, or too far
// out to be legal.
inline bool LeaseDead(uint64_t expiry, uint64_t now) {
  return expiry < now || expiry > now + kMaxLeaseSlackNs;
}

struct LeaseWord {
  uint64_t owner;
  uint64_t expiry;
};

enum class LeaseClaim {
  kClaimed,  // the lease was free
  kStolen,   // taken over from a dead holder
  kBusy,     // a live holder outlasted the wait bound
};

class Lease {
 public:
  // `owner_off` is the owner word; the expiry word follows it.
  Lease(nvm::NvmDevice* dev, uint64_t owner_off) : dev_(dev), owner_off_(owner_off) {}

  // Owner first, then expiry (see the protocol note above).
  LeaseWord Load() const {
    return {dev_->AtomicLoad64(owner_off_), dev_->AtomicLoad64(expiry_off())};
  }

  // Moves the pair from `seen` to (`owner`, `expiry`). False when another
  // party changed either word since `seen` was loaded.
  bool TryClaim(const LeaseWord& seen, uint64_t owner, uint64_t expiry) {
    return dev_->AtomicCas64(expiry_off(), seen.expiry, expiry) &&
           dev_->AtomicCas64(owner_off_, seen.owner, owner);
  }

  // Extends a lease held as `owner` whose expiry was read as `seen_expiry`,
  // then confirms the owner word still names the holder. False when the
  // lease changed hands.
  bool Renew(uint64_t owner, uint64_t seen_expiry, uint64_t expiry) {
    return dev_->AtomicCas64(expiry_off(), seen_expiry, expiry) &&
           dev_->AtomicLoad64(owner_off_) == owner;
  }

  // Claims the lease for `owner` with a `lease_ns` stamp, taking a dead
  // holder's lease over. A live holder is waited out with a bounded
  // pause/yield loop (a multiple of the lease, on the hardware clock so it
  // holds when a test pins the logical one); kBusy when it outlasts that.
  LeaseClaim Acquire(uint64_t owner, uint64_t lease_ns);

 private:
  uint64_t expiry_off() const { return owner_off_ + 8; }

  nvm::NvmDevice* dev_;
  uint64_t owner_off_;
};

}  // namespace zofs

#endif  // SRC_ZOFS_LEASE_H_
