// Self-test of the benchmark's own helpers: the order statistics, and the
// answer digest's independence from thread count and from the layer-by-
// layer recomposition the traced run uses. Exit code 0 when all pass.
//
//   ctest --test-dir .bench_build/querybench   (after a benchmark build)

#include <cstdio>
#include <numeric>
#include <vector>

#include "fixtures.h"
#include "layers.h"
#include "stats.h"

namespace topkdup::querybench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> Descending(int n) {
  std::vector<double> values(n);
  std::iota(values.rbegin(), values.rend(), 1.0);  // n, n-1, ..., 1.
  return values;
}

void TestMedianAndNearestRank() {
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(NearestRank(Descending(100), 0.99) == 99.0);
  EXPECT(NearestRank(Descending(100), 0.5) == 50.0);
  EXPECT(NearestRank(Descending(3), 0.99) == 3.0);
}

void TestTailPercentile() {
  // 100 samples: p90 is the highest rank with 10 samples above it.
  Tail tail = TailPercentile(Descending(100));
  EXPECT(tail.value == 90.0);
  EXPECT(tail.percentile == 90.0);
  EXPECT(tail.samples == 100);
  // 1000 samples reach p99.
  tail = TailPercentile(Descending(1000));
  EXPECT(tail.value == 990.0);
  EXPECT(tail.percentile == 99.0);
  // 11 samples: only the minimum has 10 above it.
  tail = TailPercentile(Descending(11));
  EXPECT(tail.value == 1.0);
  EXPECT(tail.samples == 11);
  // Too few samples for any such rank: the maximum, reported as p100.
  tail = TailPercentile(Descending(5));
  EXPECT(tail.value == 5.0);
  EXPECT(tail.percentile == 100.0);
  tail = TailPercentile({});
  EXPECT(tail.samples == 0);
}

void TestDigestAcrossThreadsAndRecomposition() {
  auto bundle_or = MakeCitationBundle(2000, 7);
  EXPECT(bundle_or.ok());
  if (!bundle_or.ok()) return;
  const serve::DatasetBundle& bundle = bundle_or.value();
  topk::TopKCountOptions options;
  options.k = 5;
  options.r = 3;
  options.threads = 1;
  auto serial = topk::TopKCountQuery(*bundle.data, bundle.levels,
                                     bundle.scorer, options);
  options.threads = 4;
  auto parallel = topk::TopKCountQuery(*bundle.data, bundle.levels,
                                       bundle.scorer, options);
  auto layered =
      RunLayeredQuery(*bundle.data, bundle.levels, bundle.scorer, options);
  EXPECT(serial.ok() && parallel.ok() && layered.ok());
  if (!serial.ok() || !parallel.ok() || !layered.ok()) return;
  EXPECT(!serial.value().answers.empty());
  const uint64_t digest = AnswerDigest(serial.value().answers);
  EXPECT(AnswerDigest(parallel.value().answers) == digest);
  EXPECT(AnswerDigest(layered.value().answers) == digest);
  EXPECT(layered.value().metrics.at("dedup.n_prime") ==
         static_cast<double>(serial.value().pruning.groups.size()));
  EXPECT(layered.value().metrics.at("sim.scorer_calls") > 0.0);
  EXPECT(layered.value().metrics.at("segment.cells_filled") > 0.0);
}

}  // namespace
}  // namespace topkdup::querybench

int main() {
  using namespace topkdup::querybench;
  TestMedianAndNearestRank();
  TestTailPercentile();
  TestDigestAcrossThreadsAndRecomposition();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
