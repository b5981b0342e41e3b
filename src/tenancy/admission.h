// Per-tenant token-bucket admission over the injected clock contract.
//
// TenantAdmission is the fleet-front quota gate: every envelope submit
// asks it whether the tenant's contract has tokens for the request's part
// count.  A refusal becomes ServeStatus::kQuotaExceeded — deliberately a
// different answer than kShed/kOverload, because the fixes differ: shed
// means the *fleet* is out of capacity (scale up), quota-refused means
// the *tenant* is out of contract (raise the contract or fix the caller).
// Autoscaling and shed-rate signals must therefore never count quota
// refusals; see ServerStats.
//
// Determinism: all bucket arithmetic is plain double add/multiply driven
// by caller-supplied `now` timestamps, so the same arrival sequence
// against the same contracts produces the same admit/refuse sequence —
// bit-identical between the threaded serving path under SimClock and the
// single-threaded fleetsim replay (test_tenancy asserts this).  The
// wall-clock convenience overloads read the injected serve::Clock.
//
// Locking: contract *lookup* is the registry's lock-free snapshot; bucket
// *mutation* takes a small mutex (buckets are inherently read-modify-
// write).  That is one uncontended lock per envelope at the fleet front,
// nowhere near the per-part hot path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "serve/clock.h"
#include "tenancy/tenant.h"

namespace ppgnn::tenancy {

// One bucket: `level` tokens available, refilled at `rate` tokens/sec up
// to `burst`, spent in whole-request units (no partial admission — an
// envelope either fits or is refused, so a big request can't be half
// admitted).  Pure value type; TenantAdmission owns the clock/registry
// wiring.
struct TokenBucket {
  double level = 0;
  double last_refill_s = 0;  // seconds on the caller's clock

  // Refill for the elapsed time, then try to spend `cost` tokens.
  // `now_s` must be monotone per bucket; a stale timestamp refills
  // nothing (never drains).  rate==0 means unmetered: always admitted,
  // nothing spent.
  bool try_take(double now_s, double rate, double burst, double cost) {
    if (rate <= 0) return true;
    if (now_s > last_refill_s) {
      level += (now_s - last_refill_s) * rate;
      if (level > burst) level = burst;
      last_refill_s = now_s;
    }
    if (level + 1e-9 < cost) return false;
    level -= cost;
    return true;
  }
};

class TenantAdmission {
 public:
  // `registry` must outlive the admission gate.  `clock` may be null
  // (falls back to the process-wide real clock) and is only consulted by
  // the no-`now` overload — explicit-now callers (fleetsim, tests) never
  // touch it.
  TenantAdmission(const TenantRegistry& registry, const serve::Clock* clock)
      : registry_(registry), clock_(*serve::clock_or_real(clock)) {}

  TenantAdmission(const TenantAdmission&) = delete;
  TenantAdmission& operator=(const TenantAdmission&) = delete;

  // Charge `parts` tokens against `tenant`'s bucket at time `now_s`
  // (seconds; any fixed origin — only deltas matter).  Returns false on
  // quota refusal.  New tenants start with a full burst allowance, so the
  // first arrival after a contract is installed is never refused.
  bool try_admit(TenantId tenant, std::size_t parts, double now_s);

  // Wall-clock overload for the serving path: `now_s` from the injected
  // clock's epoch.
  bool try_admit(TenantId tenant, std::size_t parts) {
    return try_admit(tenant, parts, seconds_now());
  }

  // Current token level (post-refill to `now_s`) — observability only.
  double level(TenantId tenant, double now_s);

  std::uint64_t refused_total() const;

 private:
  double seconds_now() const;

  const TenantRegistry& registry_;
  const serve::Clock& clock_;
  mutable std::mutex mu_;
  std::map<TenantId, TokenBucket> buckets_;
  std::uint64_t refused_ = 0;
};

}  // namespace ppgnn::tenancy
