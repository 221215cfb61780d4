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
    // Written so that a NaN parameter fails its check. A cost that is
    // not finite would reach from_ms(), where converting it to Time is
    // undefined.
    if (!(params.short_mean_ms > 0 && std::isfinite(params.short_mean_ms)))
        fatal("short_mean_ms must be finite and > 0");
    if (!(params.short_sigma >= 0 && std::isfinite(params.short_sigma)))
        fatal("short_sigma must be finite and >= 0");
    if (!(params.heavy_prob >= 0 && params.heavy_prob <= 1))
        fatal("heavy_prob must be in [0,1]");
    if (!(params.heavy_alpha > 0 && std::isfinite(params.heavy_alpha)))
        fatal("heavy_alpha must be finite and > 0");
    if (!(params.heavy_min_ms > 0))
        fatal("heavy_min_ms must be > 0");
    if (!(params.heavy_min_ms < params.heavy_max_ms &&
          std::isfinite(params.heavy_max_ms)))
        fatal("heavy_min_ms must be < heavy_max_ms, and both finite");
    if (!(params.ui_fraction >= 0 && params.ui_fraction <= 1))
        fatal("ui_fraction must be in [0,1]");
    if (!(params.heavy_burst_prob >= 0 && params.heavy_burst_prob <= 1))
        fatal("heavy_burst_prob must be in [0,1]");
}

// The key-frame draw of the slot before @p nominal_index, which the burst
// check reads; false when bursts are off or the slot is the first.
bool
PowerLawCostModel::key_before(std::int64_t nominal_index) const
{
    return params_.heavy_burst_prob > 0 && nominal_index > 0 &&
           Rng(hash_index(heavy_seed_, nominal_index - 1))
               .chance(params_.heavy_prob);
}

// Whether a slot is heavy, given the previous slot's key-frame draw in
// @p prev_key; leaves this slot's draw there for the next slot.
inline bool
PowerLawCostModel::heavy_at(std::int64_t nominal_index, bool &prev_key) const
{
    // The heavy decision for a slot must be stable, so it uses its own
    // sub-stream independent of the magnitude sampling.
    Rng rng(hash_index(heavy_seed_, nominal_index));
    const bool key = rng.chance(params_.heavy_prob);
    // Burst continuation rides on this slot's stream.
    const bool heavy =
        key || (prev_key && rng.chance(params_.heavy_burst_prob));
    prev_key = key && params_.heavy_burst_prob > 0 && nominal_index >= 0;
    return heavy;
}

inline FrameCost
PowerLawCostModel::sample(std::int64_t nominal_index, bool &prev_key) const
{
    Rng rng(hash_index(seed_, nominal_index));
    double ms = rng.lognormal(mu_, params_.short_sigma);
    if (heavy_at(nominal_index, prev_key))
        ms += heavy_extra_(rng);
    FrameCost c;
    c.ui_time = from_ms(ms * params_.ui_fraction);
    c.render_time = from_ms(ms * (1.0 - params_.ui_fraction));
    return c;
}

bool
PowerLawCostModel::is_heavy(std::int64_t nominal_index) const
{
    bool prev_key = key_before(nominal_index);
    return heavy_at(nominal_index, prev_key);
}

FrameCost
PowerLawCostModel::cost_for(std::int64_t nominal_index) const
{
    bool prev_key = key_before(nominal_index);
    return sample(nominal_index, prev_key);
}

void
PowerLawCostModel::fill(std::int64_t first, std::span<FrameCost> out) const
{
    bool prev_key = key_before(first);
    for (std::size_t k = 0; k < out.size(); ++k)
        out[k] = sample(first + std::int64_t(k), prev_key);
}

} // namespace dvs
