/**
 * @file
 * Unit and property tests for the deterministic RNG and samplers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/random.hpp"

using press::util::Rng;
using press::util::ZipfSampler;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 100000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(9);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i) {
        auto v = rng.uniformInt(10);
        ASSERT_LT(v, 10u);
        ++counts[v];
    }
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal(3.0, 2.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.03);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.03);
}

TEST(Rng, LognormalLinearMean)
{
    Rng rng(17);
    double sum = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormalByMean(14200.0, 1.3);
    EXPECT_NEAR(sum / n / 14200.0, 1.0, 0.03);
}

TEST(Zipf, ProbabilitiesSumToOne)
{
    ZipfSampler z(1000, 0.8);
    double sum = 0;
    for (std::size_t i = 0; i < z.size(); ++i)
        sum += z.probability(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, MonotonicallyDecreasing)
{
    ZipfSampler z(500, 0.8);
    for (std::size_t i = 1; i < z.size(); ++i)
        EXPECT_LE(z.probability(i), z.probability(i - 1));
}

TEST(Zipf, AccumulatedMatchesProbabilities)
{
    ZipfSampler z(100, 0.7);
    double run = 0;
    for (std::size_t i = 0; i < 100; ++i) {
        run += z.probability(i);
        EXPECT_NEAR(z.accumulated(i + 1), run, 1e-9);
    }
    EXPECT_DOUBLE_EQ(z.accumulated(0), 0.0);
    EXPECT_DOUBLE_EQ(z.accumulated(1000), 1.0);
}

TEST(Zipf, SamplingMatchesDistribution)
{
    ZipfSampler z(50, 0.8);
    Rng rng(33);
    std::vector<int> counts(50, 0);
    const int n = 500000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    for (std::size_t i = 0; i < 10; ++i) {
        double expect = z.probability(i) * n;
        EXPECT_NEAR(counts[i], expect, expect * 0.05 + 50);
    }
}

/** Property sweep: Zipf skew must hold across alpha values. */
class ZipfAlpha : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfAlpha, HeadHeavierThanTail)
{
    double alpha = GetParam();
    ZipfSampler z(10000, alpha);
    // The top 10% of files should carry more than 10% of requests for
    // any positive skew, and increasingly so for larger alpha.
    double head = z.accumulated(1000);
    EXPECT_GT(head, 0.1);
    if (alpha >= 0.8) {
        EXPECT_GT(head, 0.4);
    }
}

TEST_P(ZipfAlpha, AccumulatedIsMonotone)
{
    ZipfSampler z(2000, GetParam());
    double prev = 0;
    for (std::size_t n = 100; n <= 2000; n += 100) {
        double acc = z.accumulated(n);
        EXPECT_GE(acc, prev);
        prev = acc;
    }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlpha,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 0.95));
