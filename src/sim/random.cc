#include "sim/random.h"

#include <cassert>
#include <cmath>

namespace dvs {

std::int64_t
Rng::uniform_int(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span = std::uint64_t(hi - lo) + 1;
    return lo + std::int64_t(next_u64() % span);
}

double
Rng::normal(double mean, double stddev)
{
    // Box-Muller without the cached spare so the consumed stream length is
    // a deterministic function of the call count.
    double u1 = uniform();
    double u2 = uniform();
    while (u1 <= 1e-300) // avoid log(0)
        u1 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::bounded_pareto(double alpha, double lo, double hi)
{
    assert(alpha > 0 && lo > 0 && hi > lo);
    return BoundedPareto(alpha, lo, hi)(*this);
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    while (u <= 1e-300)
        u = uniform();
    return -mean * std::log(u);
}

Rng
Rng::fork()
{
    return Rng(next_u64());
}

} // namespace dvs
