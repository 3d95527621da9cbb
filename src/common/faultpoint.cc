#include "common/faultpoint.h"

#include <atomic>
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

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

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
  auto& slot = Sites()[std::string(site)];
  if (slot == nullptr) slot = std::make_unique<Site>();
  slot->probability = probability;
  slot->seed = seed;
  slot->visits.store(0, std::memory_order_relaxed);
  slot->fires.store(0, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void DisarmAllForTest() {
  std::lock_guard<std::mutex> lock(SiteMutex());
  Sites().clear();
  g_enabled.store(false, std::memory_order_relaxed);
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
