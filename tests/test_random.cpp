/**
 * @file
 * Unit and property tests for the deterministic RNG and distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "sim/random.h"

using namespace dvs;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-5.0, 3.0);
        EXPECT_GE(u, -5.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniform_int(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        saw_lo |= v == 2;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(17);
    double sum = 0, sum2 = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(10.0, 2.0);
        sum += x;
        sum2 += x * x;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, LognormalMeanMatches)
{
    // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
    Rng rng(19);
    const double mu = 1.0, sigma = 0.4;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormal(mu, sigma);
    EXPECT_NEAR(sum / n, std::exp(mu + sigma * sigma / 2), 0.03);
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng rng(23);
    for (int i = 0; i < 20000; ++i) {
        const double x = rng.bounded_pareto(1.5, 8.0, 40.0);
        EXPECT_GE(x, 8.0);
        EXPECT_LE(x, 40.0);
    }
}

TEST(Rng, BoundedParetoIsHeavyTailedTowardLo)
{
    // Most mass sits near the lower bound for alpha > 1.
    Rng rng(29);
    int below_mid = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        below_mid += rng.bounded_pareto(1.5, 8.0, 40.0) < 24.0;
    EXPECT_GT(double(below_mid) / n, 0.75);
}

TEST(Rng, SmallerAlphaMeansHeavierTail)
{
    Rng a(31), b(31);
    double sum_light = 0, sum_heavy = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        sum_light += a.bounded_pareto(2.5, 8.0, 80.0);
        sum_heavy += b.bounded_pareto(0.8, 8.0, 80.0);
    }
    EXPECT_GT(sum_heavy / n, sum_light / n);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(37);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic)
{
    Rng a(41);
    Rng fork1 = a.fork();
    Rng b(41);
    Rng fork2 = b.fork();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(fork1.next_u64(), fork2.next_u64());
}

TEST(Rng, FirstOutputsArePinned)
{
    // Every cost table, jitter draw and population sample descends from
    // these words; any change to seeding or the xoshiro step moves them.
    struct Pin {
        std::uint64_t seed;
        std::uint64_t first[8];
    };
    const Pin pins[] = {
        {0,
         {0x53175d61490b23dfULL, 0x61da6f3dc380d507ULL,
          0x5c0fdf91ec9a7bfcULL, 0x02eebf8c3bbe5e1aULL,
          0x7eca04ebaf4a5eeaULL, 0x0543c37757f08d9aULL,
          0xdb7490c75ab5026eULL, 0xd87343e6464bc959ULL}},
        {1,
         {0xcfc5d07f6f03c29bULL, 0xbf424132963fe08dULL,
          0x19a37d5757aaf520ULL, 0xbf08119f05cd56d6ULL,
          0x2f47184b86186fa4ULL, 0x97299fcae7202345ULL,
          0xfca3c79508f41507ULL, 0x85fea5c90363f221ULL}},
        {42,
         {0xd0764d4f4476689fULL, 0x519e4174576f3791ULL,
          0xfbe07cfb0c24ed8cULL, 0xb37d9f600cd835b8ULL,
          0xcb231c3874846a73ULL, 0x968d9f004e50de7dULL,
          0x201718ff221a3556ULL, 0x9ae94e070ed8cb46ULL}},
        {0x9e3779b97f4a7c15ULL,
         {0x58f24f57e97e3f07ULL, 0x5f9a9d6f9a653406ULL,
          0x6534ee33d1fd29d7ULL, 0x2e89656c364e9184ULL,
          0xf3f9cb7e6c53ebbbULL, 0x69e9c62bd0cff7bcULL,
          0xc1fb792c96d6d61cULL, 0x9a03ca445c7289c7ULL}},
        {0xffffffffffffffffULL,
         {0x56ccf8ce948e27b2ULL, 0xe68588432e5a5b90ULL,
          0xe3e9b5a48119ca8bULL, 0x460f19495532ae73ULL,
          0xa7d62040ea9263e1ULL, 0x66f1fb2ac9402c14ULL,
          0xe243b47de8a73f68ULL, 0x7c93fdab4c7b3dffULL}},
    };
    for (const Pin &pin : pins) {
        Rng rng(pin.seed);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(rng.next_u64(), pin.first[i])
                << "seed " << pin.seed << " output " << i;
    }
}

TEST(Rng, BoundedParetoSamplerMatchesPerCallFormula)
{
    // The precomputed sampler must give the very doubles of the
    // inverse CDF evaluated from scratch on every draw.
    const double params[][3] = {
        {1.5, 8.0, 40.0}, {0.9, 2.5, 90.0}, {2.5, 0.1, 0.7}};
    for (const auto &p : params) {
        const BoundedPareto sampler(p[0], p[1], p[2]);
        Rng a(99), b(99);
        for (int i = 0; i < 2000; ++i) {
            const double u = b.uniform();
            const double la = std::pow(p[1], p[0]);
            const double ha = std::pow(p[2], p[0]);
            const double want =
                std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / p[0]);
            EXPECT_EQ(sampler(a), want) << "alpha " << p[0] << " draw " << i;
        }
    }
}
