/**
 * @file
 * DevicePopulation: a weighted fleet model for million-session sweeps.
 *
 * The paper evaluates three devices (Table 1: 60/90/120 Hz tiers); a
 * real deployment is a *mix* of such devices running a mix of app
 * workloads. This model crosses weighted device tiers with weighted
 * app-usage classes and materializes the (SystemConfig, Scenario, seed)
 * of any session *lazily*: session(i) is a pure function of the index
 * and the population seed, so
 *
 *  - a 1M-session campaign never holds a point list in memory,
 *  - --shard K/N slices (indices congruent to K mod N) partition the
 *    exact same session stream, and
 *  - any session can be re-materialized afterwards for bisection by
 *    index alone.
 *
 * Every session carries a cohort label ("<tier>/<mode>") used by
 * CampaignAggregator to key its percentile surfaces, which is how one
 * command answers "what does D-VSync do across a fleet of 1M users?".
 *
 * (The sources live in src/workload/ but compile into the harness
 * library: a population emits SystemConfigs, which sit above the
 * workload layer.)
 */

#ifndef DVS_WORKLOAD_DEVICE_POPULATION_H
#define DVS_WORKLOAD_DEVICE_POPULATION_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/render_system.h"
#include "harness/experiment_runner.h"
#include "workload/app_profiles.h"
#include "workload/scenario.h"

namespace dvs {

/** One device class of the fleet, with its population share. */
struct DeviceTier {
    std::string name; ///< cohort tag, e.g. "entry-60"
    DeviceConfig device;
    double weight = 1.0;
};

/** One app-usage class of the fleet (device-independent costs). */
struct AppUsageClass {
    std::string name; ///< e.g. "feed-scroll"
    ProfileSpec profile;
    double weight = 1.0;
    int swipes = 2;              ///< session length, §6.1 swipe units
    Time swipe_period = 500'000'000;
    double active_fraction = 0.7;
};

/** Fully materialized session: ready to hand to the harness. */
struct SessionSpec {
    SystemConfig config;
    Scenario scenario;
    std::string cohort; ///< aggregation key: "<tier>/<mode>"
    std::string label;  ///< cohort (kept equal so sinks can key on it)
};

/**
 * Weighted device-tier x app-class population. Draws are made with a
 * splitmix64 hash of (population seed, session index) — deterministic,
 * order-free, and identical across shards by construction.
 */
class DevicePopulation
{
  public:
    /**
     * @param tiers   weighted device tiers (weights need not sum to 1)
     * @param apps    weighted app-usage classes
     * @param seed    population seed; also drives per-session RNG seeds
     */
    DevicePopulation(std::vector<DeviceTier> tiers,
                     std::vector<AppUsageClass> apps,
                     std::uint64_t seed = 1);

    /**
     * The default fleet: Table-1 tiers (60 Hz entry / 90 Hz mid /
     * 120 Hz flagship) in a 50/30/20 mix, running a light/feed/browse/
     * game app mix, each session under VSync or D-VSync (50/50) so
     * every cohort has its baseline twin.
     */
    static DevicePopulation paper_fleet(std::uint64_t seed = 1);

    /** Materialize session @p index (pure; thread-safe). */
    SessionSpec session(std::uint64_t index) const;

    /**
     * Materialize session @p index as a ready-to-run harness point —
     * the one way every consumer (campaign stream, observatory
     * specimen re-simulation, tests) builds a fleet session, so they
     * cannot drift apart. Pure and thread-safe like session().
     */
    Experiment experiment(std::uint64_t index) const;

    /** Cohort label of session @p index without building the scenario. */
    std::string cohort_of(std::uint64_t index) const;

    const std::vector<DeviceTier> &tiers() const { return tiers_; }
    const std::vector<AppUsageClass> &apps() const { return apps_; }

  private:
    struct Draw {
        const DeviceTier *tier;
        const AppUsageClass *app;
        RenderMode mode;
        std::uint64_t run_seed;
    };
    Draw draw(std::uint64_t index) const;

    std::vector<DeviceTier> tiers_;
    std::vector<AppUsageClass> apps_;
    std::uint64_t seed_;
    double tier_weight_total_ = 0.0;
    double app_weight_total_ = 0.0;
};

} // namespace dvs

#endif // DVS_WORKLOAD_DEVICE_POPULATION_H
