#include "workload/distributions.h"

#include <cmath>

#include "sim/logging.h"

namespace dvs {

std::uint64_t
hash_index(std::uint64_t seed, std::int64_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (std::uint64_t(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

PowerLawCostModel::PowerLawCostModel(const PowerLawParams &params,
                                     std::uint64_t seed)
    : params_(params), seed_(seed), heavy_seed_(seed ^ 0xabcdefULL),
      // Lognormal with mean short_mean_ms: mu = ln(mean) - sigma^2/2.
      mu_(std::log(params.short_mean_ms) -
          params.short_sigma * params.short_sigma / 2.0),
      heavy_extra_(params.heavy_alpha, params.heavy_min_ms,
                   params.heavy_max_ms)
{
    if (params.heavy_prob < 0 || params.heavy_prob > 1)
        fatal("heavy_prob must be in [0,1]");
    if (params.heavy_min_ms >= params.heavy_max_ms)
        fatal("heavy_min_ms must be < heavy_max_ms");
    if (params.ui_fraction < 0 || params.ui_fraction > 1)
        fatal("ui_fraction must be in [0,1]");
}

bool
PowerLawCostModel::is_heavy(std::int64_t nominal_index) const
{
    // The heavy decision for a slot must be stable, so it uses its own
    // sub-stream independent of the magnitude sampling.
    Rng rng(hash_index(heavy_seed_, nominal_index));
    if (rng.chance(params_.heavy_prob))
        return true;
    if (params_.heavy_burst_prob > 0 && nominal_index > 0) {
        Rng prev(hash_index(heavy_seed_, nominal_index - 1));
        if (prev.chance(params_.heavy_prob)) {
            // Burst continuation rides on this slot's stream.
            return rng.chance(params_.heavy_burst_prob);
        }
    }
    return false;
}

double
PowerLawCostModel::sample_ms(std::int64_t nominal_index) const
{
    Rng rng(hash_index(seed_, nominal_index));
    double ms = rng.lognormal(mu_, params_.short_sigma);
    if (is_heavy(nominal_index))
        ms += heavy_extra_(rng);
    return ms;
}

FrameCost
PowerLawCostModel::cost_for(std::int64_t nominal_index) const
{
    const double total_ms = sample_ms(nominal_index);
    FrameCost c;
    c.ui_time = from_ms(total_ms * params_.ui_fraction);
    c.render_time = from_ms(total_ms * (1.0 - params_.ui_fraction));
    return c;
}

} // namespace dvs
