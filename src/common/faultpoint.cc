#include "common/faultpoint.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "common/log.h"
#include "common/rng.h"
#include "common/strings.h"

namespace topkdup::fault {
namespace {

struct Site {
  double probability = 0.0;
  uint64_t seed = 0;
  std::atomic<uint64_t> visits{0};
  std::atomic<uint64_t> fires{0};
};

std::atomic<bool> g_enabled{false};

std::mutex& SiteMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::map<std::string, std::unique_ptr<Site>, std::less<>>& Sites() {
  static auto* sites =
      new std::map<std::string, std::unique_ptr<Site>, std::less<>>;
  return *sites;
}

void ArmLocked(std::string_view site, double probability, uint64_t seed) {
  auto& slot = Sites()[std::string(site)];
  if (slot == nullptr) slot = std::make_unique<Site>();
  slot->probability = probability;
  slot->seed = seed;
  slot->visits.store(0, std::memory_order_relaxed);
  slot->fires.store(0, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

/// Parses "site:prob:seed[,...]"; malformed entries are logged and skipped
/// (a bad fault spec must never take down the process it is testing).
void ParseSpec(const char* spec) {
  std::string_view rest(spec);
  while (!rest.empty()) {
    size_t comma = rest.find(',');
    std::string_view entry = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    if (entry.empty()) continue;
    size_t c1 = entry.find(':');
    size_t c2 = c1 == std::string_view::npos ? std::string_view::npos
                                             : entry.find(':', c1 + 1);
    if (c1 == std::string_view::npos || c2 == std::string_view::npos) {
      TOPKDUP_LOG(Warning) << "TOPKDUP_FAULTS: malformed entry '"
                           << std::string(entry)
                           << "' (want site:prob:seed), skipping";
      continue;
    }
    std::string site(entry.substr(0, c1));
    std::string prob_str(entry.substr(c1 + 1, c2 - c1 - 1));
    std::string seed_str(entry.substr(c2 + 1));
    char* end = nullptr;
    double prob = std::strtod(prob_str.c_str(), &end);
    if (end == prob_str.c_str() || prob < 0.0 || prob > 1.0) {
      TOPKDUP_LOG(Warning) << "TOPKDUP_FAULTS: bad probability in '"
                           << std::string(entry) << "', skipping";
      continue;
    }
    uint64_t seed = std::strtoull(seed_str.c_str(), &end, 10);
    if (end == seed_str.c_str()) {
      TOPKDUP_LOG(Warning) << "TOPKDUP_FAULTS: bad seed in '"
                           << std::string(entry) << "', skipping";
      continue;
    }
    ArmLocked(site, prob, seed);
    TOPKDUP_LOG(Info) << "fault site armed: " << site << " prob=" << prob
                      << " seed=" << seed;
  }
}

/// One-time env parse, forced before the first Enabled() answer.
bool InitFromEnv() {
  const char* spec = std::getenv("TOPKDUP_FAULTS");
  if (spec != nullptr && spec[0] != '\0') {
    std::lock_guard<std::mutex> lock(SiteMutex());
    ParseSpec(spec);
  }
  return true;
}

}  // namespace

bool Enabled() {
  static bool init = InitFromEnv();
  (void)init;
  return g_enabled.load(std::memory_order_relaxed);
}

bool Fires(std::string_view site) {
  Site* s = nullptr;
  {
    std::lock_guard<std::mutex> lock(SiteMutex());
    auto it = Sites().find(site);
    if (it == Sites().end()) return false;
    s = it->second.get();
  }
  if (s->probability <= 0.0) return false;
  uint64_t visit = s->visits.fetch_add(1, std::memory_order_relaxed);
  uint64_t draw = SplitMix64(s->seed ^ SplitMix64(Fnv1a64(site) + visit));
  // Map to [0,1); fire when below the configured probability.
  double unit = static_cast<double>(draw >> 11) * 0x1.0p-53;
  if (unit >= s->probability) return false;
  s->fires.fetch_add(1, std::memory_order_relaxed);
  TOPKDUP_LOG(Warning) << "fault injected at " << std::string(site)
                       << " (visit " << visit << ")";
  return true;
}

uint64_t FireCount(std::string_view site) {
  std::lock_guard<std::mutex> lock(SiteMutex());
  auto it = Sites().find(site);
  return it == Sites().end()
             ? 0
             : it->second->fires.load(std::memory_order_relaxed);
}

void ArmForTest(std::string_view site, double probability, uint64_t seed) {
  std::lock_guard<std::mutex> lock(SiteMutex());
  ArmLocked(site, probability, seed);
}

void DisarmAllForTest() {
  std::lock_guard<std::mutex> lock(SiteMutex());
  Sites().clear();
  g_enabled.store(false, std::memory_order_relaxed);
  // Env-armed sites re-arm on the next Enabled() only via a fresh process;
  // within a test process DisarmAllForTest wins, which is what tests need.
}

std::vector<std::string> ArmedSites() {
  std::lock_guard<std::mutex> lock(SiteMutex());
  std::vector<std::string> names;
  for (const auto& [name, site] : Sites()) {
    if (site->probability > 0.0) names.push_back(name);
  }
  return names;
}

}  // namespace topkdup::fault
