#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/strings.h"

namespace topkdup::metrics {

size_t StripeIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id & (kStripes - 1);
}

namespace internal {

constinit thread_local CounterBlock* t_counter_block = nullptr;

void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t observed = bits->load(std::memory_order_relaxed);
  for (;;) {
    double current;
    std::memcpy(&current, &observed, sizeof current);
    const double next = current + delta;
    uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof next_bits);
    if (bits->compare_exchange_weak(observed, next_bits,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

double LoadDouble(const std::atomic<uint64_t>& bits) {
  const uint64_t raw = bits.load(std::memory_order_relaxed);
  double value;
  std::memcpy(&value, &raw, sizeof value);
  return value;
}

}  // namespace internal

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const internal::CounterCell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (internal::CounterCell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

void Gauge::Set(double value) {
  uint64_t raw;
  std::memcpy(&raw, &value, sizeof raw);
  bits_.store(raw, std::memory_order_relaxed);
}

void Gauge::Reset() { Set(0.0); }

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    TOPKDUP_CHECK(bounds_[i - 1] < bounds_[i]);
  }
  for (Stripe& stripe : stripes_) {
    stripe.counts = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::Observe(double value) {
  // First bucket whose bound is >= value: inclusive upper bounds, the
  // Prometheus "le" convention the header documents.
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  Stripe& stripe = stripes_[StripeIndex()];
  stripe.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  stripe.total.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAddDouble(&stripe.sum_bits, value);
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.total.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double sum = 0.0;
  for (const Stripe& stripe : stripes_) {
    sum += internal::LoadDouble(stripe.sum_bits);
  }
  return sum;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1, 0);
  for (const Stripe& stripe : stripes_) {
    for (size_t b = 0; b < counts.size(); ++b) {
      counts[b] += stripe.counts[b].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

void Histogram::Reset() {
  for (Stripe& stripe : stripes_) {
    for (std::atomic<uint64_t>& c : stripe.counts) {
      c.store(0, std::memory_order_relaxed);
    }
    stripe.total.store(0, std::memory_order_relaxed);
    stripe.sum_bits.store(0, std::memory_order_relaxed);
  }
}

const std::vector<double>& LatencySecondsBounds() {
  static const std::vector<double>* bounds = [] {
    auto* out = new std::vector<double>;
    // 1us .. 100s, four buckets per decade.
    for (double decade = 1e-6; decade < 1e3; decade *= 10.0) {
      for (double mult : {1.0, 1.778, 3.162, 5.623}) {
        out->push_back(decade * mult);
        if (out->back() > 100.0) return out;
      }
    }
    return out;
  }();
  return *bounds;
}

double ScopedTimer::Stop() {
  if (histogram_ == nullptr) return 0.0;
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start_).count();
  histogram_->Observe(seconds);
  histogram_ = nullptr;
  return seconds;
}

template <typename Fn>
void CounterBlock::ForEachTotal(Fn fn) const {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mu_);
  const size_t slots = std::min(registry.counters_by_id_.size(), kBlockSlots);
  for (size_t id = 0; id < slots; ++id) {
    const uint64_t total = SlotTotal(id);
    if (total != 0) fn(registry.counters_by_id_[id], total);
  }
}

uint64_t CounterBlock::SlotTotal(size_t id) const {
  uint64_t total = 0;
  for (size_t s = 0; s < kStripes; ++s) {
    total += stripes_[s].cells[id].load(std::memory_order_relaxed);
  }
  return total;
}

CounterBlock::CounterBlock()
    : stripes_(std::make_unique<Stripe[]>(kStripes)),
      parent_(internal::t_counter_block) {
  internal::t_counter_block = this;
}

CounterBlock::~CounterBlock() {
  internal::t_counter_block = parent_;
  // Counter::Add now routes to the parent block, or to the registry.
  ForEachTotal([](Counter* counter, uint64_t total) { counter->Add(total); });
}

uint64_t CounterBlock::Value(std::string_view name) const {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mu_);
  const auto it = registry.counters_.find(name);
  if (it == registry.counters_.end() || it->second->id_ >= kBlockSlots) {
    return 0;
  }
  return SlotTotal(it->second->id_);
}

std::vector<CounterSample> CounterBlock::Samples() const {
  std::vector<CounterSample> samples;
  ForEachTotal([&](const Counter* counter, uint64_t total) {
    samples.push_back({counter->name(), total});
  });
  std::sort(samples.begin(), samples.end(),
            [](const CounterSample& a, const CounterSample& b) {
              return a.name < b.name;
            });
  return samples;
}

uint64_t CounterValue(const std::vector<CounterSample>& samples,
                      std::string_view name) {
  for (const CounterSample& sample : samples) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  return metrics::CounterValue(counters, name);
}

double MetricsSnapshot::GaugeValue(std::string_view name) const {
  for (const GaugeSample& sample : gauges) {
    if (sample.name == name) return sample.value;
  }
  return 0.0;
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  delta.counters = after.counters;
  for (CounterSample& sample : delta.counters) {
    const uint64_t prior = before.CounterValue(sample.name);
    sample.value = sample.value >= prior ? sample.value - prior : 0;
  }
  delta.gauges = after.gauges;
  delta.histograms = after.histograms;
  for (HistogramSample& sample : delta.histograms) {
    for (const HistogramSample& prior : before.histograms) {
      if (prior.name != sample.name || prior.counts.size() != sample.counts.size()) {
        continue;
      }
      for (size_t b = 0; b < sample.counts.size(); ++b) {
        sample.counts[b] = sample.counts[b] >= prior.counts[b]
                               ? sample.counts[b] - prior.counts[b]
                               : 0;
      }
      sample.count = sample.count >= prior.count ? sample.count - prior.count
                                                 : 0;
      sample.sum -= prior.sum;
      break;
    }
  }
  return delta;
}

namespace {

/// JSON number from a double: integral values print without an exponent
/// or trailing zeros so counter-like gauges stay readable.
std::string JsonNumber(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 4.6e18) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.9g", v);
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, counters[i].name);
    out += StrFormat(":%llu",
                     static_cast<unsigned long long>(counters[i].value));
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, gauges[i].name);
    out += ":" + JsonNumber(gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    if (i > 0) out += ",";
    AppendJsonString(&out, h.name);
    out += ":{\"bounds\":[";
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ",";
      out += JsonNumber(h.bounds[b]);
    }
    out += "],\"counts\":[";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out += ",";
      out += StrFormat("%llu", static_cast<unsigned long long>(h.counts[b]));
    }
    out += StrFormat("],\"count\":%llu,\"sum\":%s}",
                     static_cast<unsigned long long>(h.count),
                     JsonNumber(h.sum).c_str());
  }
  out += "}}";
  return out;
}

Registry& Registry::Global() {
  // Leaked: metric handles must stay valid during static destruction.
  static Registry* registry = new Registry;
  return *registry;
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(
                          std::string(name), counters_by_id_.size())))
             .first;
    counters_by_id_.push_back(it->second.get());
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(
                          std::string(name), std::move(bounds))))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.bounds = histogram->bounds();
    sample.counts = histogram->BucketCounts();
    sample.count = histogram->TotalCount();
    sample.sum = histogram->Sum();
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace {

/// Registry names use dots ("dedup.prune.pair_evals"); Prometheus names
/// admit [a-zA-Z0-9_:] only.
std::string PromName(std::string_view name) {
  std::string out = "topkdup_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Full-precision exposition value: integral doubles print plainly,
/// everything else with 17 significant digits so a parse-back recovers
/// the exact bit pattern (the round-trip test relies on this).
std::string PromNumber(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 4.6e18) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.17g", v);
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline; anything else (UTF-8 included) passes through.
std::string PromLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// The rule folding `name` into a labeled family, or null. A match
/// requires a strict "<prefix>.<rest>" shape with a non-empty rest; the
/// exact name `prefix` itself stays an unlabeled series.
const PromLabelRule* MatchLabelRule(const std::vector<PromLabelRule>& rules,
                                    std::string_view name) {
  for (const PromLabelRule& rule : rules) {
    if (name.size() > rule.prefix.size() + 1 &&
        name.compare(0, rule.prefix.size(), rule.prefix) == 0 &&
        name[rule.prefix.size()] == '.') {
      return &rule;
    }
  }
  return nullptr;
}

/// Resolved naming for one sample: the exposition family name and the
/// `label="value",` fragment (empty when unlabeled). Snapshot samples are
/// sorted by registry name, so all members of one family are contiguous
/// and a single `last_family` string suffices to emit each TYPE line
/// exactly once.
struct PromSeries {
  std::string family;
  std::string labels;
};

PromSeries ResolveSeries(const std::vector<PromLabelRule>& rules,
                         std::string_view name) {
  PromSeries series;
  const PromLabelRule* rule = MatchLabelRule(rules, name);
  if (rule == nullptr) {
    series.family = PromName(name);
    return series;
  }
  series.family = PromName(rule->prefix);
  const std::string_view rest = name.substr(rule->prefix.size() + 1);
  series.labels = StrFormat("%s=\"%s\"", rule->label.c_str(),
                            PromLabelValue(rest).c_str());
  return series;
}

void EmitTypeLine(std::string& out, const std::string& family,
                  const char* type, std::string& last_family) {
  if (family == last_family) return;
  out += StrFormat("# TYPE %s %s\n", family.c_str(), type);
  last_family = family;
}

}  // namespace

const std::vector<PromLabelRule>& DefaultPromLabelRules() {
  static const std::vector<PromLabelRule>* rules =
      new std::vector<PromLabelRule>{
          {"serve.breaker_state", "dataset"},
          {"serve.shed", "reason"},
          {"serve.latency_seconds", "outcome"},
          {"obs.admin.endpoint", "endpoint"},
      };
  return *rules;
}

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  return PrometheusText(snapshot, DefaultPromLabelRules());
}

std::string PrometheusText(const MetricsSnapshot& snapshot,
                           const std::vector<PromLabelRule>& rules) {
  std::string out;
  std::string last_family;
  for (const CounterSample& c : snapshot.counters) {
    PromSeries series = ResolveSeries(rules, c.name);
    series.family += "_total";
    EmitTypeLine(out, series.family, "counter", last_family);
    const std::string braces =
        series.labels.empty() ? "" : "{" + series.labels + "}";
    out += StrFormat("%s%s %llu\n", series.family.c_str(), braces.c_str(),
                     static_cast<unsigned long long>(c.value));
  }
  for (const GaugeSample& g : snapshot.gauges) {
    const PromSeries series = ResolveSeries(rules, g.name);
    EmitTypeLine(out, series.family, "gauge", last_family);
    const std::string braces =
        series.labels.empty() ? "" : "{" + series.labels + "}";
    out += StrFormat("%s%s %s\n", series.family.c_str(), braces.c_str(),
                     PromNumber(g.value).c_str());
  }
  for (const HistogramSample& h : snapshot.histograms) {
    const PromSeries series = ResolveSeries(rules, h.name);
    EmitTypeLine(out, series.family, "histogram", last_family);
    const std::string name = series.family;
    // The family label (if any) precedes `le` on every bucket line.
    const std::string label_prefix =
        series.labels.empty() ? "" : series.labels + ",";
    // Registry buckets are inclusive upper bounds (metrics.h), which is
    // exactly Prometheus's `le` semantics; only cumulation is needed.
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      cumulative += b < h.counts.size() ? h.counts[b] : 0;
      out += StrFormat("%s_bucket{%sle=\"%s\"} %llu\n", name.c_str(),
                       label_prefix.c_str(),
                       PromNumber(h.bounds[b]).c_str(),
                       static_cast<unsigned long long>(cumulative));
    }
    out += StrFormat("%s_bucket{%sle=\"+Inf\"} %llu\n", name.c_str(),
                     label_prefix.c_str(),
                     static_cast<unsigned long long>(h.count));
    const std::string braces =
        series.labels.empty() ? "" : "{" + series.labels + "}";
    out += StrFormat("%s_sum%s %s\n", name.c_str(), braces.c_str(),
                     PromNumber(h.sum).c_str());
    out += StrFormat("%s_count%s %llu\n", name.c_str(), braces.c_str(),
                     static_cast<unsigned long long>(h.count));
  }
  return out;
}

bool WritePrometheusText(const MetricsSnapshot& snapshot,
                         const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    TOPKDUP_LOG(Error) << "metrics: cannot write " << path;
    return false;
  }
  const std::string text = PrometheusText(snapshot);
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  return true;
}

}  // namespace topkdup::metrics
