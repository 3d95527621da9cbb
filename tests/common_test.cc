#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/log.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace topkdup {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UsesAssignOrReturn(int x, int* out) {
  TOPKDUP_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(UsesAssignOrReturn(-1, &out).ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformBoundRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All five values hit in 1000 draws.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfTest, PmfSumsToOneAndIsDecreasing) {
  ZipfSampler z(100, 1.1);
  double total = 0.0;
  double prev = 1.0;
  for (size_t i = 0; i < 100; ++i) {
    const double p = z.Pmf(i);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, HeadIsHeavy) {
  Rng rng(23);
  ZipfSampler z(1000, 1.2);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (z.Sample(&rng) < 10) ++head;
  }
  // With s=1.2 the top 10 of 1000 ranks carry a large share of the mass.
  EXPECT_GT(head, n / 4);
}

TEST(StringsTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("AbC-12"), "abc-12");
}

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// The mix and the hash feed pinned values (explain and request-log
// sampling, fault draws), so their outputs are pinned here, not just their
// properties.
TEST(EncodingTest, SplitMix64IsPinned) {
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(SplitMix64(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(SplitMix64(42), 0xbdd732262feb6e95ull);
  EXPECT_EQ(SplitMix64(~0ull), 0xe4d971771b652c20ull);
}

TEST(EncodingTest, Fnv1a64IsPinned) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a64("wal.append"), 0x80ab2a00ccd68fc7ull);
}

TEST(EncodingTest, LittleEndianRoundTrip) {
  std::string bytes;
  PutU32(&bytes, 0x01020304u);
  PutU64(&bytes, 0x1122334455667788ull);
  ASSERT_EQ(bytes.size(), 12u);
  EXPECT_EQ(bytes.substr(0, 4), std::string("\x04\x03\x02\x01", 4));
  const auto* p = reinterpret_cast<const uint8_t*>(bytes.data());
  EXPECT_EQ(GetU32(p), 0x01020304u);
  EXPECT_EQ(GetU64(p + 4), 0x1122334455667788ull);
}

TEST(EncodingTest, AppendJsonStringEscapes) {
  std::string out;
  AppendJsonString(&out, "plain");
  EXPECT_EQ(out, "\"plain\"");
  out.clear();
  AppendJsonString(&out, "q\"b\\n\nt\tc\x01");
  EXPECT_EQ(out, "\"q\\\"b\\\\n\\nt\\tc\\u0001\"");
}

TEST(EnvKnobTest, ParseThreadsAcceptsStrictIntegers) {
  int threads = 0;
  EXPECT_TRUE(internal::ParseThreadsEnvValue("1", &threads));
  EXPECT_EQ(threads, 1);
  EXPECT_TRUE(internal::ParseThreadsEnvValue("64", &threads));
  EXPECT_EQ(threads, 64);
  // Above the worker ceiling still parses; the caller clamps.
  EXPECT_TRUE(internal::ParseThreadsEnvValue("100000", &threads));
  EXPECT_EQ(threads, 100000);
}

TEST(EnvKnobTest, ParseThreadsRejectsGarbage) {
  int threads = -1;
  EXPECT_FALSE(internal::ParseThreadsEnvValue(nullptr, &threads));
  EXPECT_FALSE(internal::ParseThreadsEnvValue("", &threads));
  EXPECT_FALSE(internal::ParseThreadsEnvValue("abc", &threads));
  EXPECT_FALSE(internal::ParseThreadsEnvValue("8x", &threads));
  EXPECT_FALSE(internal::ParseThreadsEnvValue("4.5", &threads));
  EXPECT_FALSE(internal::ParseThreadsEnvValue("0", &threads));
  EXPECT_FALSE(internal::ParseThreadsEnvValue("-2", &threads));
  EXPECT_FALSE(
      internal::ParseThreadsEnvValue("99999999999999999999", &threads));
  EXPECT_EQ(threads, -1);  // Rejections never touch the output.
}

TEST(EnvKnobTest, ParseLogSeverityAcceptsNamesAndDigits) {
  LogSeverity severity = LogSeverity::kInfo;
  EXPECT_TRUE(ParseLogSeverity("debug", &severity));
  EXPECT_EQ(severity, LogSeverity::kDebug);
  EXPECT_TRUE(ParseLogSeverity("WARNING", &severity));
  EXPECT_EQ(severity, LogSeverity::kWarning);
  EXPECT_TRUE(ParseLogSeverity("warn", &severity));
  EXPECT_EQ(severity, LogSeverity::kWarning);
  EXPECT_TRUE(ParseLogSeverity("3", &severity));
  EXPECT_EQ(severity, LogSeverity::kError);
  EXPECT_TRUE(ParseLogSeverity("4", &severity));
  EXPECT_EQ(severity, LogSeverity::kFatal);
}

TEST(EnvKnobTest, ParseLogSeverityRejectsGarbage) {
  LogSeverity severity = LogSeverity::kError;
  EXPECT_FALSE(ParseLogSeverity("", &severity));
  EXPECT_FALSE(ParseLogSeverity("verbose", &severity));
  EXPECT_FALSE(ParseLogSeverity("5", &severity));
  EXPECT_FALSE(ParseLogSeverity("-1", &severity));
  EXPECT_FALSE(ParseLogSeverity("info ", &severity));
  EXPECT_EQ(severity, LogSeverity::kError);  // Untouched on failure.
}

}  // namespace
}  // namespace topkdup
