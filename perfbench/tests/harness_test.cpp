// Self-tests for the benchmark harness's arithmetic: percentile choice,
// span self time, the output checks (4-ULP rule, probability range), the
// open loop's over-capacity rule, and the result line read back through
// the repository's JSON reader. Run with
// `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "harness.hpp"
#include "obs/json_reader.hpp"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile(OneTo(7), 50.0), 4.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(MidMean, MeanOfTheMiddleHalf) {
  EXPECT_EQ(MidMean(OneTo(8)), 4.5);  // mean of 3, 4, 5, 6
  EXPECT_EQ(MidMean({1, 1, 1, 1, 100}), 1.0);  // the stall is dropped
  // Two clusters: the median sits in one, the mid-mean between them.
  EXPECT_DOUBLE_EQ(MidMean({1, 1, 1, 1, 1, 2, 2, 2, 2}), 1.4);
  EXPECT_EQ(MidMean({3}), 3.0);
  EXPECT_EQ(MidMean({}), 0.0);
}

TEST(Percentile, TailHasAtLeastTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(TailPercentileFor(10'000), 99.9);
  EXPECT_EQ(TailPercentileFor(9'999), 99.0);
  EXPECT_EQ(TailPercentileFor(1'000), 99.0);
  EXPECT_EQ(TailPercentileFor(999), 95.0);
  EXPECT_EQ(TailPercentileFor(200), 95.0);
  EXPECT_EQ(TailPercentileFor(100), 90.0);
  EXPECT_EQ(TailPercentileFor(40), 75.0);
  EXPECT_EQ(TailPercentileFor(39), 50.0);
  for (std::size_t n = 20; n < 3000; ++n) {
    const double p = TailPercentileFor(n);
    EXPECT_GE(SamplesBeyond(n, p), 10u) << n;
  }
  const Summary s = Summarize(OneTo(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.mean, 500.5);
}

TEST(SelfTime, DurationMinusUnionOfChildren) {
  // Parent [0, 100]; children overlap each other ([10, 30] and [20, 50]
  // cover 40) and one overhangs the parent ([90, 120] covers 10).
  const std::vector<Span> spans = {
      {"parent", 0, 100, -1, 7},  {"a", 10, 30, 0, 7},
      {"b", 20, 50, 0, 7},        {"c", 90, 120, 0, 7},
      {"grandchild", 12, 18, 1, 7},
  };
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 50);  // grandchildren do not count for the parent
  EXPECT_EQ(self[1], 14);  // 20 - 6
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, DisjointChildrenAddUpExactly) {
  const std::vector<Span> spans = {
      {"batch", 1000, 2000, -1, 0},
      {"gather", 1003, 1400, 0, 0},
      {"forward", 1410, 1990, 0, 0},
  };
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0] + (1400 - 1003) + (1990 - 1410), 1000);
  EXPECT_EQ(SelfTimesUs(spans, self, "batch"), std::vector<double>{0.023});
  EXPECT_EQ(DurationsUs(spans, "forward"), std::vector<double>{0.58});
}

TEST(SpanRecorder, BeginEndNestsUnderParent) {
  SpanRecorder rec(4);
  const std::int64_t root = rec.Begin("root", -1, 3);
  const std::int64_t child = rec.Begin("child", root, 3);
  rec.End(child);
  rec.End(root);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, root);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
  EXPECT_GE(SelfTimesNs(rec.spans())[0], 0);
}

TEST(Ulps, FourUlpRule) {
  const float x = 0.73f;
  float y = x;
  for (int i = 0; i < 4; ++i) y = std::nextafter(y, 1.0f);
  EXPECT_TRUE(MatchesWithinUlps(std::vector<float>{x}, std::vector<float>{y}));
  for (int i = 0; i < 2; ++i) y = std::nextafter(y, 1.0f);
  EXPECT_FALSE(MatchesWithinUlps(std::vector<float>{x}, std::vector<float>{y}));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(
      MatchesWithinUlps(std::vector<float>{nan}, std::vector<float>{0.5f}));
  EXPECT_FALSE(MatchesWithinUlps(std::vector<float>{x},
                                 std::vector<float>{x, x}));
}

TEST(OpenLoop, BacklogGrowingOnlyWhenOverCapacity) {
  std::vector<std::int64_t> waits(10'000, 200'000);  // steady 0.2 ms waits
  EXPECT_FALSE(BacklogGrowing(waits));
  // A 50 ms stall near the end that drains again is not over capacity.
  for (std::size_t i = 9'900; i < 9'950; ++i) waits[i] = 50'000'000;
  EXPECT_FALSE(BacklogGrowing(waits));
  // An arrival rate above capacity: waits grow linearly to 2 s.
  for (std::size_t i = 0; i < waits.size(); ++i) {
    waits[i] = static_cast<std::int64_t>(i) * 200'000;
  }
  EXPECT_TRUE(BacklogGrowing(waits));
  // Overload that starts halfway through.
  for (std::size_t i = 0; i < waits.size(); ++i) {
    waits[i] = i < 5'000 ? 0 : static_cast<std::int64_t>(i - 5'000) * 200'000;
  }
  EXPECT_TRUE(BacklogGrowing(waits));
  EXPECT_FALSE(BacklogGrowing({}));
}

TEST(Probability, FiniteAndInUnitInterval) {
  EXPECT_TRUE(ValidProbability(0.0f));
  EXPECT_TRUE(ValidProbability(1.0f));
  EXPECT_FALSE(ValidProbability(std::nextafter(1.0f, 2.0f)));
  EXPECT_FALSE(ValidProbability(-0.001f));
  EXPECT_FALSE(ValidProbability(std::numeric_limits<float>::quiet_NaN()));
}

TEST(ResultJson, ReadsBackThroughJsonReader) {
  Result r;
  r.correct = true;
  r.attempted = 123456;
  r.failed = 2;
  r.Add("latency_p50_us", 612.345678901, "us");
  r.Add("setup_s", 0.81270001, "s");
  r.Add("trace.overhead_frac", -0.0125, "ratio");
  const std::string line = ResultJson(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  auto parsed = microrec::obs::JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok());
  const auto& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.AsObject().size(), 4u);
  EXPECT_TRUE(doc.Find("correct")->AsBool());
  EXPECT_EQ(doc.Find("attempted")->AsNumber(), 123456.0);
  EXPECT_EQ(doc.Find("failed")->AsNumber(), 2.0);
  const auto* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->AsObject().size(), 3u);
  for (const Metric& m : r.metrics) {
    const auto* entry = metrics->Find(m.name);
    ASSERT_NE(entry, nullptr) << m.name;
    EXPECT_EQ(entry->Find("value")->AsNumber(), m.value) << m.name;
    EXPECT_EQ(entry->Find("unit")->AsString(), m.unit) << m.name;
  }
}

}  // namespace
}  // namespace perfbench
