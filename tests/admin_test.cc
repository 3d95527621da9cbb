// Tests for the embedded admin HTTP server (src/obs/admin_server.h) and
// its service endpoint wiring (src/serve/admin_endpoints.h): endpoint
// payloads parse, unknown paths and non-GET methods get typed rejections,
// and four concurrent scrapers hammering /metrics + /statusz during a
// mixed query workload always see complete, monotonically consistent
// responses. The client side is a raw blocking socket on purpose — the
// server must interoperate with anything that speaks HTTP/1.1, not just a
// well-behaved library.
#include "obs/admin_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "datagen/citation_gen.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "serve/admin_endpoints.h"
#include "serve/service.h"
#include "sim/similarity.h"
#include "text/tokenize.h"

namespace topkdup {
namespace {

class Watchdog {
 public:
  explicit Watchdog(int seconds) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                        [this] { return done_; })) {
        std::fprintf(stderr, "admin_test watchdog fired after %d s\n",
                     seconds);
        std::abort();
      }
    });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

struct HttpReply {
  int status = 0;
  std::string headers;  // Raw header block (status line included).
  std::string body;
  bool complete = false;  // Body length matched Content-Length.

  /// The value of header `name`, or "" when absent.
  std::string Header(const std::string& name) const {
    const std::string needle = "\r\n" + name + ": ";
    const size_t pos = headers.find(needle);
    if (pos == std::string::npos) return "";
    const size_t start = pos + needle.size();
    return headers.substr(start, headers.find("\r\n", start) - start);
  }
};

/// Minimal blocking HTTP/1.1 client: one request, reads to EOF (the
/// server always closes), splits status and body, verifies the body
/// length against Content-Length so a torn concurrent response fails
/// loudly instead of half-parsing.
HttpReply HttpGet(int port, const std::string& path,
                  const std::string& method = "GET") {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request = method + " " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12) return reply;
  reply.status = std::atoi(raw.c_str() + 9);
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return reply;
  reply.headers = raw.substr(0, head_end);
  reply.body = raw.substr(head_end + 4);
  const size_t cl = raw.find("Content-Length: ");
  if (cl != std::string::npos && cl < head_end) {
    const size_t expected =
        std::strtoull(raw.c_str() + cl + 16, nullptr, 10);
    reply.complete = reply.body.size() == expected;
  }
  return reply;
}

/// The value of a plain (unlabeled) counter sample in a Prometheus
/// exposition, or -1 when absent.
long long PromValue(const std::string& text, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10);
}

serve::DatasetBundle MakeBundle(const record::Dataset& source) {
  serve::DatasetBundle bundle;
  bundle.data = std::make_unique<record::Dataset>(source);
  auto corpus_or = predicates::Corpus::Build(bundle.data.get(), {});
  TOPKDUP_CHECK(corpus_or.ok());
  bundle.corpus =
      std::make_unique<predicates::Corpus>(std::move(corpus_or).value());
  auto s1 = std::make_unique<predicates::CitationS1>(
      bundle.corpus.get(), predicates::CitationFields{},
      0.75 * bundle.corpus->MaxIdf(0));
  auto n1 = std::make_unique<predicates::QGramOverlapPredicate>(
      bundle.corpus.get(), 0, 0.6);
  bundle.levels = {{s1.get(), n1.get()}};
  bundle.predicates.push_back(std::move(s1));
  bundle.predicates.push_back(std::move(n1));
  const record::Dataset* data = bundle.data.get();
  bundle.scorer = [data](size_t a, size_t b) {
    return (sim::JaroWinkler(text::NormalizeText((*data)[a].field(0)),
                             text::NormalizeText((*data)[b].field(0))) -
            0.85) *
           10.0;
  };
  return bundle;
}

class AdminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::CitationGenOptions gen;
    gen.num_records = 300;
    gen.num_authors = 80;
    gen.seed = 20090324;
    auto data_or = datagen::GenerateCitations(gen);
    ASSERT_TRUE(data_or.ok());
    data_ = std::move(data_or).value();
  }

  serve::QueryRequest CountRequest(int k = 5) {
    serve::QueryRequest request;
    request.dataset = "cites";
    request.kind = serve::QueryKind::kTopKCount;
    request.k = k;
    return request;
  }

  record::Dataset data_;
};

TEST_F(AdminTest, EndpointsServeValidPayloadsAndTypedRejections) {
  Watchdog watchdog(120);
  serve::ServiceOptions options;
  options.workers = 2;
  options.request_log.ok_sample_every = 1;
  serve::QueryService service(options);
  ASSERT_TRUE(service.RegisterDataset("cites", MakeBundle(data_)).ok());

  obs::AdminServer admin;  // Port 0: ephemeral.
  serve::RegisterAdminEndpoints(admin, service);
  ASSERT_TRUE(admin.Start().ok());
  ASSERT_GT(admin.port(), 0);
  ASSERT_TRUE(admin.running());

  // Some traffic so every surface has content.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(service.Execute(CountRequest()).status.ok());
  }

  const HttpReply healthz = HttpGet(admin.port(), "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_TRUE(healthz.complete);
  EXPECT_EQ(healthz.body, "ok\n");

  const HttpReply readyz = HttpGet(admin.port(), "/readyz");
  EXPECT_EQ(readyz.status, 200);
  EXPECT_EQ(readyz.body, "ready\n");

  const HttpReply metrics = HttpGet(admin.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_TRUE(metrics.complete);
  EXPECT_NE(metrics.body.find("# TYPE topkdup_serve_admitted_total counter"),
            std::string::npos);
  // The per-dataset breaker gauge renders as a labeled series.
  EXPECT_NE(
      metrics.body.find("topkdup_serve_breaker_state{dataset=\"cites\"}"),
      std::string::npos);
  EXPECT_GE(PromValue(metrics.body, "topkdup_serve_admitted_total"), 3);

  const HttpReply statusz = HttpGet(admin.port(), "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_TRUE(statusz.complete);
  ASSERT_FALSE(statusz.body.empty());
  EXPECT_EQ(statusz.body.front(), '{');
  EXPECT_EQ(statusz.body.back(), '}');
  EXPECT_NE(statusz.body.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"name\":\"cites\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"breaker\":\"closed\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"index_bytes\":"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"hit_rate\":"), std::string::npos);
  // Process self-stats: a live process has nonzero RSS and at least the
  // listen socket plus stdio open.
  const size_t rss_at = statusz.body.find("\"rss_bytes\":");
  ASSERT_NE(rss_at, std::string::npos);
  EXPECT_GT(std::atoll(statusz.body.c_str() + rss_at + 12), 0);
  const size_t fds_at = statusz.body.find("\"open_fds\":");
  ASSERT_NE(fds_at, std::string::npos);
  EXPECT_GT(std::atoll(statusz.body.c_str() + fds_at + 11), 2);
  // Top-CPU tables and the per-dataset cost estimate: the queries above
  // charged CPU, so the window is non-empty, and calibration seeded the
  // estimate.
  EXPECT_NE(statusz.body.find("\"top_cpu\":{\"window_seconds\":"),
            std::string::npos);
  EXPECT_NE(statusz.body.find("\"cost_model\":{\"samples\":"),
            std::string::npos);
  EXPECT_NE(statusz.body.find("\"predicted_wall_ms\":"), std::string::npos);

  const HttpReply tracez = HttpGet(admin.port(), "/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_TRUE(tracez.complete);
  EXPECT_NE(tracez.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tracez.body.find("\"serve.query\""), std::string::npos);

  const HttpReply debug = HttpGet(admin.port(), "/debug/queries");
  EXPECT_EQ(debug.status, 200);
  EXPECT_NE(debug.body.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(debug.body.find("\"recent\":["), std::string::npos);

  EXPECT_EQ(HttpGet(admin.port(), "/no-such-endpoint").status, 404);
  EXPECT_EQ(HttpGet(admin.port(), "/metrics", "POST").status, 405);
  // Query strings are stripped before routing.
  EXPECT_EQ(HttpGet(admin.port(), "/healthz?verbose=1").status, 200);

  const metrics::MetricsSnapshot snapshot =
      metrics::Registry::Global().Snapshot();
  // 9 requests above: 6 endpoint hits + 404 + 405 + the query-string GET.
  EXPECT_GE(snapshot.CounterValue("obs.admin.requests"), 9u);
  EXPECT_GE(snapshot.CounterValue("obs.admin.endpoint.metrics"), 1u);
  EXPECT_GE(snapshot.CounterValue("obs.admin.endpoint.debug_queries"), 1u);
  EXPECT_GE(snapshot.CounterValue("obs.admin.errors"), 2u);

  admin.Stop();
  EXPECT_FALSE(admin.running());
  // Stop is idempotent and restart-after-stop works on a fresh port.
  admin.Stop();
}

TEST_F(AdminTest, HeadAnswersLikeGetWithoutABody) {
  Watchdog watchdog(60);
  obs::AdminServer admin;
  admin.Handle("/healthz", [] {
    return obs::AdminResponse{200, "text/plain; charset=utf-8", "ok\n", {}};
  });
  ASSERT_TRUE(admin.Start().ok());

  const HttpReply get = HttpGet(admin.port(), "/healthz");
  ASSERT_EQ(get.status, 200);
  ASSERT_EQ(get.body, "ok\n");

  // HEAD runs the same handler: identical status, Content-Type, and
  // Content-Length (measuring the body it would have sent), body elided.
  const HttpReply head = HttpGet(admin.port(), "/healthz", "HEAD");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  EXPECT_EQ(head.Header("Content-Length"),
            std::to_string(get.body.size()));
  EXPECT_EQ(head.Header("Content-Type"), get.Header("Content-Type"));

  // HEAD on an unknown path is still a 404 — routed, not special-cased.
  EXPECT_EQ(HttpGet(admin.port(), "/nope", "HEAD").status, 404);
  admin.Stop();
}

TEST_F(AdminTest, MethodNotAllowedCarriesAllowHeader) {
  Watchdog watchdog(60);
  obs::AdminServer admin;
  admin.Handle("/healthz", [] {
    return obs::AdminResponse{200, "text/plain; charset=utf-8", "ok\n", {}};
  });
  ASSERT_TRUE(admin.Start().ok());
  for (const char* method : {"POST", "PUT", "DELETE"}) {
    const HttpReply reply = HttpGet(admin.port(), "/healthz", method);
    EXPECT_EQ(reply.status, 405) << method;
    EXPECT_EQ(reply.Header("Allow"), "GET, HEAD") << method;
    EXPECT_TRUE(reply.complete) << method;
  }
  admin.Stop();
}

TEST_F(AdminTest, StalledClientIsDroppedWithoutStarvingOthers) {
  Watchdog watchdog(60);
  obs::AdminServerOptions options;
  options.io_timeout_ms = 300;
  obs::AdminServer admin(options);
  admin.Handle("/healthz", [] {
    return obs::AdminResponse{200, "text/plain; charset=utf-8", "ok\n", {}};
  });
  ASSERT_TRUE(admin.Start().ok());

  // A client that connects, sends half a request line, and stalls. The
  // serial accept loop picks it up first; io_timeout_ms bounds how long
  // it can hold the loop hostage.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(admin.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_GT(::send(stalled, "GET /heal", 9, 0), 0);
  // Let the loop accept the stalled connection before the good one.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto before = std::chrono::steady_clock::now();
  const HttpReply healthz = HttpGet(admin.port(), "/healthz");
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    before)
          .count();
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");
  // Bounded by the stalled client's receive timeout plus scheduling
  // slack — NOT by the watchdog. 2s of slack absorbs a loaded CI box.
  EXPECT_LT(waited, 0.3 + 2.0);

  // The server dropped the stalled connection when its read timed out:
  // our end sees EOF (or a reset) promptly instead of hanging forever.
  char buf[64];
  const ssize_t n = ::recv(stalled, buf, sizeof(buf), 0);
  EXPECT_LE(n, 0);
  ::close(stalled);
  admin.Stop();
}

TEST_F(AdminTest, ProfileEndpointReturnsCollapsedStacksUnderLoad) {
  Watchdog watchdog(120);
  serve::ServiceOptions options;
  options.workers = 2;
  serve::QueryService service(options);
  ASSERT_TRUE(service.RegisterDataset("cites", MakeBundle(data_)).ok());
  obs::AdminServer admin;
  serve::RegisterAdminEndpoints(admin, service);
  ASSERT_TRUE(admin.Start().ok());

  // Real queries running while the profile window is open, so SIGPROF
  // has CPU to sample.
  std::atomic<bool> done{false};
  std::thread load([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)service.Execute(CountRequest());
    }
  });
  const HttpReply profile =
      HttpGet(admin.port(), "/debug/profile?seconds=0.3");
  done.store(true, std::memory_order_release);
  load.join();

  ASSERT_EQ(profile.status, 200) << profile.body;
  ASSERT_FALSE(profile.body.empty());
  // Collapsed-stack shape: every line is "frame;frame count", and the
  // workload's library frames are symbolized (CMAKE_ENABLE_EXPORTS).
  std::istringstream lines(profile.body);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::atoll(line.c_str() + space + 1), 0) << line;
  }
  EXPECT_NE(profile.body.find("topkdup"), std::string::npos)
      << profile.body.substr(0, 1000);

  // Bad parameter: typed rejection, profiler left disarmed.
  EXPECT_EQ(HttpGet(admin.port(), "/debug/profile?seconds=bogus").status,
            400);
  admin.Stop();
}

TEST_F(AdminTest, ConcurrentScrapersDuringMixedWorkloadStayConsistent) {
  Watchdog watchdog(180);
  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 8;
  options.default_deadline_ms = 2000;
  serve::QueryService service(options);
  ASSERT_TRUE(service.RegisterDataset("cites", MakeBundle(data_)).ok());

  obs::AdminServer admin;
  serve::RegisterAdminEndpoints(admin, service);
  ASSERT_TRUE(admin.Start().ok());
  const int port = admin.port();

  std::atomic<bool> done{false};
  std::atomic<int> scrape_failures{0};
  std::atomic<int> scrapes{0};

  // 4 scraper threads alternating /metrics and /statusz. Every response
  // must arrive complete (Content-Length honored) and well-formed, and
  // the admitted counter each thread reads must never go backwards.
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      long long last_admitted = -1;
      int iteration = 0;
      while (!done.load(std::memory_order_acquire)) {
        const bool want_metrics = (iteration + t) % 2 == 0;
        const HttpReply reply =
            HttpGet(port, want_metrics ? "/metrics" : "/statusz");
        if (reply.status != 200 || !reply.complete) {
          scrape_failures.fetch_add(1, std::memory_order_relaxed);
        } else if (want_metrics) {
          const long long admitted =
              PromValue(reply.body, "topkdup_serve_admitted_total");
          if (admitted < last_admitted) {
            scrape_failures.fetch_add(1, std::memory_order_relaxed);
          }
          last_admitted = admitted;
        } else if (reply.body.empty() || reply.body.front() != '{' ||
                   reply.body.back() != '}' ||
                   reply.body.find("\"schema_version\":1") ==
                       std::string::npos) {
          scrape_failures.fetch_add(1, std::memory_order_relaxed);
        }
        scrapes.fetch_add(1, std::memory_order_relaxed);
        ++iteration;
      }
    });
  }

  // Mixed workload alongside the scrapers: exact, degraded, and invalid
  // queries from two client threads.
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 15; ++i) {
        serve::QueryRequest request = CountRequest(3 + (i % 3));
        if (i % 5 == 4) request.work_budget = 1;  // Force degradation.
        if (i % 7 == 6) request.dataset = "missing";
        (void)service.Execute(request);
        (void)c;
      }
    });
  }
  for (auto& client : clients) client.join();
  service.Drain();
  done.store(true, std::memory_order_release);
  for (auto& scraper : scrapers) scraper.join();

  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_GT(scrapes.load(), 8);  // The hammer actually hammered.
}

}  // namespace
}  // namespace topkdup
