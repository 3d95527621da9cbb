#include "serve/admin_endpoints.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "obs/process_stats.h"
#include "obs/profiler.h"

namespace topkdup::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The /statusz payload. schema_version gates CI validation: bump it when
/// a field changes meaning, add freely without bumping.
std::string StatuszJson(const QueryService& service,
                        Clock::time_point started_at) {
  const HealthSnapshot health = service.Health();
  const metrics::MetricsSnapshot snapshot =
      metrics::Registry::Global().Snapshot();
  const double uptime =
      std::chrono::duration<double>(Clock::now() - started_at).count();
  const uint64_t cache_hits =
      snapshot.CounterValue("predicates.index_cache.hits");
  const uint64_t cache_misses =
      snapshot.CounterValue("predicates.index_cache.misses");
  const uint64_t cache_lookups = cache_hits + cache_misses;

  std::string out;
  out.reserve(1024);
  out += "{\"schema_version\":1,\"build\":{\"compiler\":";
#if defined(__VERSION__)
  AppendJsonString(&out, __VERSION__);
#else
  out += "\"unknown\"";
#endif
#if defined(NDEBUG)
  out += ",\"optimized\":true}";
#else
  out += ",\"optimized\":false}";
#endif
  out += StrFormat(",\"uptime_seconds\":%.3f", uptime);
  out += StrFormat(
      ",\"serve\":{\"ready\":%s,\"queue_depth\":%zu,\"inflight\":%zu,"
      "\"workers\":%d,\"admitted\":%llu,\"completed\":%llu,\"shed\":%llu}",
      health.ready ? "true" : "false", health.queue_depth, health.inflight,
      health.workers, static_cast<unsigned long long>(health.admitted),
      static_cast<unsigned long long>(health.completed),
      static_cast<unsigned long long>(health.shed));
  out += StrFormat(
      ",\"index_cache\":{\"hits\":%llu,\"misses\":%llu,\"hit_rate\":%.4f,"
      "\"evictions\":%llu}",
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      cache_lookups == 0
          ? 0.0
          : static_cast<double>(cache_hits) /
                static_cast<double>(cache_lookups),
      static_cast<unsigned long long>(
          snapshot.CounterValue("predicates.index_cache.evictions")));
  out += StrFormat(
      ",\"request_log\":{\"emitted\":%llu,\"sampled_out\":%llu,"
      "\"slow_captured\":%llu}",
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.requestlog.emitted")),
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.requestlog.sampled_out")),
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.requestlog.slow_captured")));
  out += StrFormat(
      ",\"wal\":{\"appends\":%llu,\"fsyncs\":%llu,\"bytes\":%llu,"
      "\"recovered_mentions\":%llu,\"truncated_tail_bytes\":%llu}",
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.wal.appends")),
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.wal.fsyncs")),
      static_cast<unsigned long long>(snapshot.CounterValue("serve.wal.bytes")),
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.wal.recovered_mentions")),
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.wal.truncated_tail_bytes")));
  out += StrFormat(
      ",\"epochs\":{\"published\":%llu,\"reader_blocked\":%llu}",
      static_cast<unsigned long long>(
          snapshot.CounterValue("online.epochs_published")),
      static_cast<unsigned long long>(
          snapshot.CounterValue("online.reader_blocked")));
  out += StrFormat(
      ",\"cache\":{\"hits\":%llu,\"stale_hits\":%llu,\"misses\":%llu}",
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.cache.hits")),
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.cache.stale_hits")),
      static_cast<unsigned long long>(
          snapshot.CounterValue("serve.cache.misses")));
  out += StrFormat(",\"trace\":{\"ring_capacity\":%zu,\"ring_total\":%llu}",
                   trace::RingCapacity(),
                   static_cast<unsigned long long>(trace::RingTotal()));
  const obs::ProcessSelfStats self = obs::ReadProcessSelfStats();
  out += StrFormat(",\"process\":{\"rss_bytes\":%llu,\"open_fds\":%llu}",
                   static_cast<unsigned long long>(self.rss_bytes),
                   static_cast<unsigned long long>(self.open_fds));
  const auto append_consumers =
      [&out](const std::vector<std::pair<std::string, double>>& top) {
        for (size_t i = 0; i < top.size(); ++i) {
          if (i > 0) out += ",";
          out += "{\"name\":";
          AppendJsonString(&out, top[i].first);
          out += StrFormat(",\"cpu_seconds\":%.6f}", top[i].second);
        }
      };
  out += StrFormat(",\"top_cpu\":{\"window_seconds\":%.0f,\"datasets\":[",
                   service.cpu_window_seconds());
  append_consumers(service.TopCpuByDataset(5));
  out += "],\"stages\":[";
  append_consumers(service.TopCpuByStage(5));
  out += "]}";
  out += ",\"datasets\":[";
  for (size_t i = 0; i < health.datasets.size(); ++i) {
    const DatasetHealth& ds = health.datasets[i];
    if (i > 0) out += ",";
    out += "{\"name\":";
    AppendJsonString(&out, ds.name);
    out += StrFormat(
        ",\"online\":%s,\"records\":%zu,\"breaker\":\"%s\","
        "\"served\":%llu,\"errors\":%llu,\"shed\":%llu,"
        "\"index_bytes\":%llu",
        ds.online ? "true" : "false", ds.records,
        BreakerStateName(ds.breaker),
        static_cast<unsigned long long>(ds.served),
        static_cast<unsigned long long>(ds.errors),
        static_cast<unsigned long long>(ds.shed),
        static_cast<unsigned long long>(ds.index_bytes));
    if (ds.online) {
      out += StrFormat(",\"epoch\":%llu",
                       static_cast<unsigned long long>(ds.epoch));
    }
    out += StrFormat(
        ",\"cost_model\":{\"samples\":%llu,\"predicted_wall_ms\":%.3f}",
        static_cast<unsigned long long>(ds.cost_samples),
        ds.predicted_wall_seconds * 1000.0);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace

void RegisterAdminEndpoints(obs::AdminServer& server,
                            const QueryService& service) {
  const Clock::time_point started_at = Clock::now();
  server.Handle("/metrics", [] {
    obs::AdminResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        metrics::PrometheusText(metrics::Registry::Global().Snapshot());
    return response;
  });
  server.Handle("/healthz", [] {
    return obs::AdminResponse{200, "text/plain; charset=utf-8", "ok\n", {}};
  });
  server.Handle("/readyz", [&service] {
    const bool ready = service.Health().ready;
    return obs::AdminResponse{ready ? 200 : 503,
                              "text/plain; charset=utf-8",
                              ready ? "ready\n" : "unready\n",
                              {}};
  });
  server.Handle("/statusz", [&service, started_at] {
    return obs::AdminResponse{200, "application/json",
                              StatuszJson(service, started_at), {}};
  });
  server.Handle("/tracez", [] {
    return obs::AdminResponse{200, "application/json",
                              trace::ChromeTraceJson(trace::RingSnapshot()),
                              {}};
  });
  server.Handle("/debug/queries", [&service] {
    return obs::AdminResponse{200, "application/json",
                              service.request_log().DebugQueriesJson(), {}};
  });
  server.Handle("/debug/profile", [](const obs::AdminRequest& request) {
    // Copy: Param returns a reference that may alias the fallback
    // temporary, which dies at the end of this full expression.
    const std::string seconds_text = request.Param("seconds", "1");
    char* end = nullptr;
    const double seconds = std::strtod(seconds_text.c_str(), &end);
    if (end == seconds_text.c_str() || seconds <= 0.0) {
      return obs::AdminResponse{400, "text/plain; charset=utf-8",
                                "bad seconds parameter\n", {}};
    }
    // Collect blocks the (serial) admin loop for the whole window —
    // concurrent admin requests queue in the listen backlog. Query
    // serving is unaffected: the profiler samples, it never blocks.
    StatusOr<std::string> collapsed =
        obs::Profiler::Global().Collect(seconds);
    if (!collapsed.ok()) {
      // FailedPrecondition == a concurrent session holds SIGPROF.
      const int http =
          collapsed.status().code() == StatusCode::kFailedPrecondition ? 409
                                                                       : 500;
      return obs::AdminResponse{http, "text/plain; charset=utf-8",
                                collapsed.status().ToString() + "\n", {}};
    }
    return obs::AdminResponse{200, "text/plain; charset=utf-8",
                              std::move(collapsed).value(), {}};
  });
}

}  // namespace topkdup::serve
