#ifndef TOPKDUP_COMMON_FAULTPOINT_H_
#define TOPKDUP_COMMON_FAULTPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace topkdup::fault {

/// Named, deterministically-seeded fault-injection sites.
///
/// Production code plants sites with TOPKDUP_FAULT_RETURN_IF only where a
/// real failure can happen: the durability layer (`wal.append` fires
/// before a WAL frame is written, `wal.fsync` wherever a sync would be
/// issued), so tests and `load_serve --wal-fault-prob` exercise the ingest
/// rollback and breaker paths. The query pipeline is a deterministic
/// function of its input and has no sites. A fired site returns an
/// Internal Status naming the site, so tests can prove the error path
/// propagates instead of crashing or hanging.
///
/// Sites are armed only through ArmForTest; unarmed, the machinery costs
/// one relaxed atomic load per site visit. Draws are pure functions of
/// (seed, site, per-site visit counter) via splitmix64, so a given arming
/// fires at exactly the same visits on every run.

/// Fast-path gate: true when any site is armed.
bool Enabled();

/// True when the named site should fire at this visit. Advances the site's
/// visit counter; unknown sites never fire. Only call after Enabled().
bool Fires(std::string_view site);

/// How many times the site has fired so far (test assertion hook).
uint64_t FireCount(std::string_view site);

/// Arms a site (tests, load_serve). probability in [0,1].
void ArmForTest(std::string_view site, double probability, uint64_t seed);

/// Disarms every site and resets counters; Enabled() becomes false.
void DisarmAllForTest();

/// Names of the sites armed right now (diagnostics).
std::vector<std::string> ArmedSites();

}  // namespace topkdup::fault

/// Returns an Internal Status from the enclosing function when the named
/// fault site fires. Usable in functions returning Status or StatusOr<T>.
#define TOPKDUP_FAULT_RETURN_IF(site)                                  \
  do {                                                                 \
    if (::topkdup::fault::Enabled() && ::topkdup::fault::Fires(site)) {\
      return ::topkdup::Status::Internal(                              \
          std::string("fault injected at ") + (site));                 \
    }                                                                  \
  } while (0)

#endif  // TOPKDUP_COMMON_FAULTPOINT_H_
