#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.h"

namespace dvs::bench {

const ExperimentRunner &
bench_runner()
{
    static const ExperimentRunner runner(default_jobs());
    return runner;
}

ArgParser::ArgParser(int argc, char **argv)
    : prog_(argc > 0 ? argv[0] : "bench")
{
    for (int i = 1; i < argc; ++i) {
        Arg a;
        const char *s = argv[i];
        if (s[0] == '-' && s[1] == '-' && s[2] != '\0') {
            const char *eq = std::strchr(s + 2, '=');
            if (eq) {
                a.name.assign(s + 2, eq);
                a.value = eq + 1;
                a.has_value = true;
            } else {
                a.name = s + 2;
            }
        } else {
            a.value = s; // positional
        }
        args_.push_back(std::move(a));
    }
}

ArgParser::Arg *
ArgParser::find(const char *name)
{
    // Last occurrence wins (conventional override order); earlier
    // occurrences are consumed too so finish() does not flag them.
    Arg *hit = nullptr;
    for (Arg &a : args_) {
        if (!a.name.empty() && a.name == name) {
            a.consumed = true;
            hit = &a;
        }
    }
    return hit;
}

int
ArgParser::int_flag(const char *name, int def)
{
    const Arg *a = find(name);
    if (!a)
        return def;
    if (!a->has_value)
        fatal("--%s needs a value (--%s=N)", name, name);
    char *end = nullptr;
    const long v = std::strtol(a->value.c_str(), &end, 10);
    if (a->value.empty() || *end != '\0')
        fatal("--%s=%s is not an integer", name, a->value.c_str());
    return int(v);
}

std::uint64_t
ArgParser::u64_flag(const char *name, std::uint64_t def)
{
    const Arg *a = find(name);
    if (!a)
        return def;
    if (!a->has_value)
        fatal("--%s needs a value (--%s=N)", name, name);
    char *end = nullptr;
    const unsigned long long v = std::strtoull(a->value.c_str(), &end, 10);
    if (a->value.empty() || *end != '\0' || a->value[0] == '-')
        fatal("--%s=%s is not a non-negative integer", name,
              a->value.c_str());
    return std::uint64_t(v);
}

double
ArgParser::double_flag(const char *name, double def)
{
    const Arg *a = find(name);
    if (!a)
        return def;
    if (!a->has_value)
        fatal("--%s needs a value (--%s=X)", name, name);
    char *end = nullptr;
    const double v = std::strtod(a->value.c_str(), &end);
    if (a->value.empty() || *end != '\0')
        fatal("--%s=%s is not a number", name, a->value.c_str());
    return v;
}

std::string
ArgParser::string_flag(const char *name, std::string def)
{
    const Arg *a = find(name);
    if (!a)
        return def;
    if (!a->has_value)
        fatal("--%s needs a value (--%s=...)", name, name);
    return a->value;
}

bool
ArgParser::bool_flag(const char *name)
{
    const Arg *a = find(name);
    if (!a)
        return false;
    if (a->has_value)
        fatal("--%s takes no value", name);
    return true;
}

int
ArgParser::jobs()
{
    return default_jobs(int_flag("jobs", 0));
}

std::vector<std::string>
ArgParser::positional(std::size_t max)
{
    std::vector<std::string> out;
    for (Arg &a : args_) {
        if (a.name.empty() && !a.consumed && out.size() < max) {
            a.consumed = true;
            out.push_back(a.value);
        }
    }
    return out;
}

void
ArgParser::finish()
{
    for (const Arg &a : args_) {
        if (a.consumed)
            continue;
        if (!a.name.empty())
            fatal("%s: unknown flag --%s", prog_.c_str(), a.name.c_str());
        fatal("%s: unexpected argument '%s'", prog_.c_str(),
              a.value.c_str());
    }
}

const std::string &
git_describe()
{
    static const std::string desc = [] {
        std::string out = "unknown";
        FILE *p = ::popen("git describe --always --dirty 2>/dev/null", "r");
        if (!p)
            return out;
        char buf[128];
        std::string raw;
        while (std::fgets(buf, sizeof(buf), p))
            raw += buf;
        if (::pclose(p) == 0) {
            while (!raw.empty() &&
                   (raw.back() == '\n' || raw.back() == '\r'))
                raw.pop_back();
            if (!raw.empty())
                out = raw;
        }
        return out;
    }();
    return desc;
}

BenchJson::BenchJson(const std::string &bench_name)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"schema_version\": %d,\n  \"bench\": \"%s\",\n"
                  "  \"git\": \"%s\"",
                  kSchemaVersion, bench_name.c_str(),
                  git_describe().c_str());
    body_ = buf;
}

void
BenchJson::key(const char *name)
{
    body_ += ",\n  \"";
    body_ += name;
    body_ += "\": ";
}

void
BenchJson::u64(const char *name, std::uint64_t value)
{
    key(name);
    body_ += std::to_string((unsigned long long)value);
}

void
BenchJson::i64(const char *name, std::int64_t value)
{
    key(name);
    body_ += std::to_string((long long)value);
}

void
BenchJson::num(const char *name, double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    key(name);
    body_ += buf;
}

void
BenchJson::str(const char *name, const std::string &value)
{
    key(name);
    body_ += "\"" + value + "\"";
}

void
BenchJson::boolean(const char *name, bool value)
{
    key(name);
    body_ += value ? "true" : "false";
}

void
BenchJson::raw(const char *name, const std::string &json)
{
    key(name);
    body_ += json;
}

std::string
BenchJson::to_string() const
{
    return "{\n" + body_ + "\n}\n";
}

void
BenchJson::write(const std::string &path) const
{
    if (path.empty() || path == "-")
        return;
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    const std::string text = to_string();
    std::fwrite(text.data(), 1, text.size(), f);
    if (std::fclose(f) != 0)
        fatal("cannot write %s", path.c_str());
}

RunReport
run_system(const SystemConfig &config, const Scenario &scenario)
{
    return run_experiment(config, scenario);
}

std::vector<Experiment>
profile_experiments(const ProfileSpec &spec, const DeviceConfig &device,
                    RenderMode mode, int buffers, const SwipeSetup &setup,
                    std::uint64_t seed_base)
{
    std::vector<Experiment> points;
    points.reserve(std::size_t(setup.repeats));
    for (int rep = 0; rep < setup.repeats; ++rep) {
        const std::uint64_t seed = seed_base + std::uint64_t(rep) * 7919;
        auto cost = make_cost_model(spec, device.refresh_hz, seed);
        const double fraction = spec.window_fraction > 0
                                    ? spec.window_fraction
                                    : setup.active_fraction;
        Experiment point;
        point.scenario = make_swipe_scenario(
            spec.name, setup.swipes, setup.swipe_period, cost, fraction);
        point.config = SystemConfig()
                           .with_device(device)
                           .with_mode(mode)
                           .with_buffers(buffers)
                           .with_prerender_limit(setup.prerender_limit)
                           .with_seed(seed);
        point.label = spec.name;
        points.push_back(std::move(point));
    }
    return points;
}

RunReport
run_profile(const ProfileSpec &spec, const DeviceConfig &device,
            RenderMode mode, int buffers, const SwipeSetup &setup,
            std::uint64_t seed_base)
{
    return RunReport::averaged(bench_runner().run(
        profile_experiments(spec, device, mode, buffers, setup,
                            seed_base)));
}

GroupAverageSink::GroupAverageSink(int group_size)
    : group_size_(group_size > 0 ? std::size_t(group_size) : 1)
{
}

void
GroupAverageSink::consume(std::size_t, RunReport &&report)
{
    pending_.push_back(std::move(report));
    if (pending_.size() == group_size_) {
        cells_.push_back(RunReport::averaged(pending_));
        pending_.clear();
    }
}

std::vector<RunReport>
GroupAverageSink::take()
{
    if (!pending_.empty()) {
        cells_.push_back(RunReport::averaged(pending_));
        pending_.clear();
    }
    return std::move(cells_);
}

void
print_drop_causes(const CohortStats &all, const char *heading)
{
    std::printf("%s:", heading);
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (all.drop_causes[std::size_t(c)] > 0)
            std::printf(" %s=%llu", to_string(DropCause(c)),
                        (unsigned long long)all.drop_causes[std::size_t(c)]);
    }
    std::printf(" | injected %llu of %llu drops\n",
                (unsigned long long)all.drops_injected,
                (unsigned long long)all.drops);
}

bool
flag_unattributed(const CohortStats &all)
{
    const std::uint64_t unknown =
        all.drop_causes[std::size_t(DropCause::kUnknown)];
    if (unknown == 0)
        return false;
    std::printf("UNATTRIBUTED DROPS: %llu frames carry no cause\n",
                (unsigned long long)unknown);
    return true;
}

ProfileSpec
calibrate_baseline(const ProfileSpec &spec, const DeviceConfig &device,
                   int vsync_buffers, const SwipeSetup &setup,
                   std::uint64_t seed)
{
    ProfileSpec out = spec;
    if (spec.paper_fdps <= 0)
        return out;

    SwipeSetup quick = setup;
    quick.repeats = std::max(1, setup.repeats - 1);
    for (int iter = 0; iter < 4; ++iter) {
        const RunReport r = run_profile(out, device, RenderMode::kVsync,
                                        vsync_buffers, quick, seed);
        if (r.fdps <= 0) {
            out.heavy_per_sec *= 2.0;
            continue;
        }
        const double ratio = spec.paper_fdps / r.fdps;
        if (ratio > 0.93 && ratio < 1.07)
            break;
        // Damped multiplicative update keeps the iteration stable for
        // bursty tails where drops respond super-linearly to the rate.
        out.heavy_per_sec *=
            std::clamp(1.0 + 0.8 * (ratio - 1.0), 0.35, 2.5);
        out.heavy_per_sec =
            std::min(out.heavy_per_sec, 0.4 * device.refresh_hz);
    }
    return out;
}

double
reduction_percent(double a, double b)
{
    if (a <= 0)
        return 0.0;
    return 100.0 * (1.0 - b / a);
}

} // namespace dvs::bench
