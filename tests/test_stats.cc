/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/telemetry/registry.hh"

namespace
{

using namespace macrosim;

TEST(Counter, IncrementsAndAdds)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.min(), 0.0);
    EXPECT_EQ(a.max(), 0.0);
    EXPECT_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, BasicMoments)
{
    Accumulator a;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.sample(x);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_NEAR(a.stddev(), 2.0, 1e-12);
}

TEST(Accumulator, NegativeValues)
{
    Accumulator a;
    a.sample(-3.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
}

TEST(Accumulator, WelfordMeanIsStableForLargeOffsets)
{
    // Regression: mean() used to return sum()/count() while sample()
    // maintained the Welford mean for the variance — and the two
    // diverge on large offsets. 100k samples of the same 1e9+0.1
    // value drift sum()/count() by ~1e-3; the Welford mean (delta is
    // exactly zero after the first sample) must stay exact.
    Accumulator a;
    const double x0 = 1e9 + 0.1;
    for (int i = 0; i < 100000; ++i)
        a.sample(x0);
    EXPECT_DOUBLE_EQ(a.mean(), x0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);

    // Alternating +-0.25 around the offset: mean recovers the offset
    // and the deviation survives the offset's magnitude.
    Accumulator b;
    for (int i = 0; i < 10000; ++i)
        b.sample(1e9 + (i % 2 ? 0.25 : -0.25));
    EXPECT_NEAR(b.mean(), 1e9, 1e-5);
    EXPECT_NEAR(b.stddev(), 0.25, 1e-6);
}

TEST(Histogram, RejectsBadRange)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram(0.0, 10.0, 0), FatalError);
}

TEST(Histogram, BucketsSamplesCorrectly)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5);
    EXPECT_EQ(h.count(), 10u);
    for (auto b : h.buckets())
        EXPECT_EQ(b, 1u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(Histogram, OverUnderflow)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-1.0);
    h.sample(10.0); // hi bound counts as overflow (half-open range)
    h.sample(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, NonFiniteSamplesAreQuarantined)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(5.0);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.nonfinite(), 3u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    // The moments only see the finite sample.
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
    std::uint64_t binned = 0;
    for (auto b : h.buckets())
        binned += b;
    EXPECT_EQ(binned, 1u);
    h.reset();
    EXPECT_EQ(h.nonfinite(), 0u);
}

TEST(Histogram, QuantileMedianOfUniform)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
    EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
}

TEST(Histogram, QuantileEmpty)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(5.0);
    h.sample(50.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Accumulator, MergeMatchesDirectSampling)
{
    // The PDES drivers shard samples per site and fold shards with
    // merge(); the fold must agree with sampling everything into one
    // accumulator (Chan's parallel-Welford update).
    Accumulator whole, left, right;
    const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0,
                         -1.0, 12.5, 0.25, 3.75};
    int i = 0;
    for (double x : xs) {
        whole.sample(x);
        (i++ % 2 ? right : left).sample(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
    EXPECT_DOUBLE_EQ(left.mean(), whole.mean());
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
    EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-12);
}

TEST(Accumulator, MergeWithEmptyIsIdentity)
{
    Accumulator a, empty;
    a.sample(3.0);
    a.sample(7.0);

    Accumulator b = a;
    b.merge(empty);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 5.0);

    Accumulator c = empty;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), 5.0);
    EXPECT_DOUBLE_EQ(c.min(), 3.0);
    EXPECT_DOUBLE_EQ(c.max(), 7.0);
}

TEST(Histogram, MergeAddsBinsAndSpecialBuckets)
{
    Histogram a(0.0, 10.0, 5), b(0.0, 10.0, 5);
    a.sample(1.0);
    a.sample(-2.0);
    b.sample(1.5);
    b.sample(9.0);
    b.sample(42.0);
    b.sample(std::numeric_limits<double>::quiet_NaN());
    a.merge(b);
    EXPECT_EQ(a.count(), 6u);
    EXPECT_EQ(a.buckets()[0], 2u); // 1.0 and 1.5
    EXPECT_EQ(a.buckets()[4], 1u); // 9.0
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.nonfinite(), 1u);

    Histogram incompatible(0.0, 10.0, 4);
    EXPECT_THROW(a.merge(incompatible), FatalError);
}

TEST(Histogram, QuantileInOverflowReportsInf)
{
    // When the requested quantile lands among samples clipped past
    // the cap, a finite answer would under-report the tail; the
    // injector relies on +inf to keep saturated load points honest.
    Histogram h(0.0, 10.0, 5);
    for (int i = 0; i < 90; ++i)
        h.sample(5.0);
    for (int i = 0; i < 10; ++i)
        h.sample(1000.0);
    EXPECT_TRUE(std::isfinite(h.quantile(0.5)));
    EXPECT_TRUE(std::isinf(h.quantile(0.99)));
    EXPECT_GT(h.quantile(0.99), 0.0); // +inf, not -inf
}

TEST(StatRegistry, DumpsNamesAndValues)
{
    Counter c;
    c += 3;
    Accumulator a;
    a.sample(10.0);
    a.sample(20.0);

    StatRegistry g;
    g.addCounter("packets", c);
    g.addMean("latency", a);

    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "packets 3\nlatency 15\n");

    std::ostringstream csv;
    g.dumpCsv(csv);
    EXPECT_EQ(csv.str(), "packets,latency\n3,15\n");
}

TEST(StatRegistry, ValuesArePulledAtDumpTime)
{
    Counter c;
    StatRegistry g;
    g.addCounter("n", c);
    c += 7;
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "n 7\n");
}

} // namespace
