/**
 * @file
 * Power-law frame-cost distribution (§3.2, Figure 1).
 *
 * The bulk of frames draw from a lognormal around a short mean; with a
 * small probability a frame becomes a heavily-loaded key frame whose extra
 * cost draws from a bounded Pareto tail. Sampling is stateless per nominal
 * index (hash-seeded), so the same index always yields the same cost.
 */

#ifndef DVS_WORKLOAD_DISTRIBUTIONS_H
#define DVS_WORKLOAD_DISTRIBUTIONS_H

#include <cstdint>

#include "sim/random.h"
#include "workload/frame_cost.h"

namespace dvs {

/** Parameters of the power-law frame-cost mixture. */
struct PowerLawParams {
    double short_mean_ms = 5.0; ///< mean cost of ordinary short frames
    double short_sigma = 0.25;  ///< lognormal shape of the short bulk
    double heavy_prob = 0.03;   ///< per-frame probability of a key frame
    double heavy_alpha = 1.5;   ///< Pareto tail index (smaller = heavier)
    double heavy_min_ms = 8.0;  ///< minimum extra cost of a key frame
    double heavy_max_ms = 40.0; ///< maximum extra cost of a key frame
    double ui_fraction = 0.35;  ///< share of the cost on the UI stage

    /**
     * Burstiness: probability that the frame right after a key frame is
     * also heavy (key frames come in clusters for effects that cannot
     * reuse the rendered cache, Fig. 4).
     */
    double heavy_burst_prob = 0.0;
};

/**
 * The power-law cost model: lognormal bulk + bounded-Pareto key frames.
 *
 * Each slot draws from short-lived streams seeded by hash_index(): one
 * for its magnitude and one for its heavy decision (plus the previous
 * slot's heavy stream when bursts are on). Every term that depends only
 * on the parameters is computed once, at construction.
 */
class PowerLawCostModel : public FrameCostModel
{
  public:
    PowerLawCostModel(const PowerLawParams &params, std::uint64_t seed);

    FrameCost cost_for(std::int64_t nominal_index) const override;

    const PowerLawParams &params() const { return params_; }

    /** Whether slot @p nominal_index is a heavy key frame. */
    bool is_heavy(std::int64_t nominal_index) const;

  private:
    double sample_ms(std::int64_t nominal_index) const;

    PowerLawParams params_;
    std::uint64_t seed_;
    std::uint64_t heavy_seed_; ///< keys the heavy-decision streams
    double mu_;                ///< lognormal location of the short bulk
    BoundedPareto heavy_extra_;
};

/** Mix 64 bits (splitmix64 finalizer); used to key per-index streams. */
std::uint64_t hash_index(std::uint64_t seed, std::int64_t index);

} // namespace dvs

#endif // DVS_WORKLOAD_DISTRIBUTIONS_H
