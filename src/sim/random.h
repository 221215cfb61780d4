/**
 * @file
 * Deterministic random number generation for simulations.
 *
 * A thin xoshiro256++ generator plus the distribution helpers the workload
 * models need. std::mt19937 and the std <random> distributions are avoided
 * deliberately: their outputs differ across standard library versions,
 * which would break cross-platform reproducibility of the benches.
 *
 * The generator core (seeding, next_u64, uniform, chance) is defined
 * here so that a short-lived stream, such as a cost model's per-slot
 * stream that reads one or two words, compiles down to the splitmix64
 * and xoshiro steps it actually uses.
 */

#ifndef DVS_SIM_RANDOM_H
#define DVS_SIM_RANDOM_H

#include <cmath>
#include <cstdint>

namespace dvs {

/**
 * Deterministic PRNG (xoshiro256++) with distribution helpers.
 *
 * All simulations take a seed; the same seed always produces the same
 * sequence of frames and therefore the same statistics.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 1)
    {
        std::uint64_t x = seed;
        for (auto &s : s_)
            s = splitmix64(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next_u64()
    {
        const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1)
        return double(next_u64() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /** Standard normal via Box-Muller (deterministic; no cached spare). */
    double normal(double mean = 0.0, double stddev = 1.0);

    /**
     * Lognormal: exp(N(mu, sigma)). Models the bulk of short frames whose
     * cost clusters around a mode with a mild right tail.
     */
    double lognormal(double mu, double sigma);

    /**
     * Bounded Pareto on [lo, hi] with tail index @p alpha. Models the
     * heavy-tailed key frames of the paper's power-law observation:
     * smaller alpha means heavier tail.
     */
    double bounded_pareto(double alpha, double lo, double hi);

    /** Exponential with the given mean. */
    double exponential(double mean);

    /** Fork an independent stream (for per-entity sub-generators). */
    Rng fork();

  private:
    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Inverse-CDF sampler of the bounded Pareto distribution on [lo, hi] with
 * tail index alpha. The parameter-only terms (lo^alpha, hi^alpha, their
 * product and -1/alpha) are computed once at construction, so a model
 * that samples one fixed distribution pays a single pow() per draw.
 */
class BoundedPareto
{
  public:
    BoundedPareto(double alpha, double lo, double hi)
        : la_(std::pow(lo, alpha)), ha_(std::pow(hi, alpha)),
          ha_la_(ha_ * la_), neg_inv_alpha_(-1.0 / alpha)
    {}

    /** One draw, consuming one uniform from @p rng. */
    double
    operator()(Rng &rng) const
    {
        const double u = rng.uniform();
        return std::pow(-(u * ha_ - u * la_ - ha_) / ha_la_, neg_inv_alpha_);
    }

  private:
    double la_;
    double ha_;
    double ha_la_;
    double neg_inv_alpha_;
};

} // namespace dvs

#endif // DVS_SIM_RANDOM_H
