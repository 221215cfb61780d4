#include "workload/device_population.h"

#include "display/device_config.h"
#include "sim/logging.h"

namespace dvs {
namespace {

/**
 * splitmix64 finalizer (Steele et al.). Each session index is hashed
 * independently — no sequential RNG state — so session(i) is a pure
 * function and workers can materialize sessions in any order without
 * ever touching each other's draws.
 */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from a 64-bit hash. */
double
unit(std::uint64_t h)
{
    return double(h >> 11) * 0x1.0p-53;
}

/** Weighted pick: index of the class covering @p u * total. */
template <typename T>
std::size_t
pick(const std::vector<T> &classes, double total, double u)
{
    double target = u * total;
    for (std::size_t i = 0; i + 1 < classes.size(); ++i) {
        target -= classes[i].weight;
        if (target < 0.0)
            return i;
    }
    return classes.size() - 1;
}

} // namespace

DevicePopulation::DevicePopulation(std::vector<DeviceTier> tiers,
                                   std::vector<AppUsageClass> apps,
                                   std::uint64_t seed)
    : tiers_(std::move(tiers)), apps_(std::move(apps)), seed_(seed)
{
    if (tiers_.empty() || apps_.empty())
        fatal("DevicePopulation needs at least one tier and one app class");
    for (const DeviceTier &t : tiers_) {
        if (t.weight <= 0.0)
            fatal("device tier '%s' has non-positive weight", t.name.c_str());
        tier_weight_total_ += t.weight;
    }
    for (const AppUsageClass &a : apps_) {
        if (a.weight <= 0.0)
            fatal("app class '%s' has non-positive weight", a.name.c_str());
        app_weight_total_ += a.weight;
    }
}

DevicePopulation
DevicePopulation::paper_fleet(std::uint64_t seed)
{
    // Table-1 devices as the fleet's hardware mix: entry phones dominate,
    // flagships trail (50/30/20).
    std::vector<DeviceTier> tiers = {
        {"entry-60", pixel5(), 0.50},
        {"mid-90", mate40_pro(), 0.30},
        {"flagship-120", mate60_pro(), 0.20},
    };

    // App-usage mix drawn from the Fig. 11 profile set, spanning the
    // skew spectrum: mostly light sessions, a heavy tail of QQMusic-like
    // workloads whose clustered key frames stress the buffer budget.
    auto profile = [](const char *name) {
        const ProfileSpec *p = find_app_profile(name);
        if (!p)
            fatal("paper_fleet: unknown app profile '%s'", name);
        return *p;
    };
    std::vector<AppUsageClass> apps = {
        {"light", profile("Pinterest"), 0.35},
        {"feed", profile("Instagram"), 0.30},
        {"browse", profile("FoxNews"), 0.20},
        {"heavy", profile("QQMusic"), 0.15},
    };

    return DevicePopulation(std::move(tiers), std::move(apps), seed);
}

DevicePopulation::Draw
DevicePopulation::draw(std::uint64_t index) const
{
    // One base hash per session, decorrelated sub-streams per decision.
    const std::uint64_t base =
        mix64(seed_ ^ (index * 0x9e3779b97f4a7c15ULL));
    const std::uint64_t h_tier = mix64(base ^ 0x7469657273ULL); // "tiers"
    const std::uint64_t h_app = mix64(base ^ 0x61707073ULL);    // "apps"
    const std::uint64_t h_mode = mix64(base ^ 0x6d6f6465ULL);   // "mode"
    const std::uint64_t h_seed = mix64(base ^ 0x73656564ULL);   // "seed"

    Draw d;
    d.tier = &tiers_[pick(tiers_, tier_weight_total_, unit(h_tier))];
    d.app = &apps_[pick(apps_, app_weight_total_, unit(h_app))];
    // 50/50 VSync vs D-VSync: every cohort ships with its baseline twin.
    d.mode = (h_mode & 1) ? RenderMode::kDvsync : RenderMode::kVsync;
    d.run_seed = h_seed ? h_seed : 1;
    return d;
}

SessionSpec
DevicePopulation::session(std::uint64_t index) const
{
    const Draw d = draw(index);
    SessionSpec s;
    s.config = SystemConfig()
                   .with_device(d.tier->device)
                   .with_mode(d.mode)
                   .with_seed(d.run_seed);
    s.scenario = make_swipe_scenario(
        d.app->name, d.app->swipes, d.app->swipe_period,
        make_cost_model(d.app->profile, d.tier->device.refresh_hz,
                        d.run_seed),
        d.app->active_fraction);
    s.cohort = d.tier->name + "/" + to_string(d.mode);
    s.label = s.cohort;
    return s;
}

Experiment
DevicePopulation::experiment(std::uint64_t index) const
{
    SessionSpec spec = session(index);
    Experiment point;
    point.config = std::move(spec.config);
    point.scenario = std::move(spec.scenario);
    point.label = std::move(spec.label);
    return point;
}

std::string
DevicePopulation::cohort_of(std::uint64_t index) const
{
    const Draw d = draw(index);
    return d.tier->name + "/" + to_string(d.mode);
}

} // namespace dvs
