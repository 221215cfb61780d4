/**
 * @file
 * Shared helpers for the bench binaries.
 *
 * Every bench regenerates one table or figure of the paper: it builds the
 * workload the paper describes, runs it under the baseline VSync and/or
 * D-VSync configurations, and prints the same rows/series the paper
 * reports (with the paper's numbers alongside for comparison).
 *
 * Sweeps execute through the parallel experiment harness: a bench
 * assembles its (config, scenario, seed) points, hands the batch to an
 * ExperimentRunner, and formats the returned RunReports. Results are
 * index-aligned with the submitted points, so output is identical at any
 * --jobs / $DVS_JOBS setting.
 */

#ifndef DVS_BENCH_BENCH_COMMON_H
#define DVS_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/render_system.h"
#include "harness/aggregator.h"
#include "harness/experiment_runner.h"
#include "metrics/latency.h"
#include "metrics/run_report.h"
#include "metrics/stutter_model.h"
#include "workload/app_profiles.h"

namespace dvs::bench {

/** Parameters of the §6.1 swipe methodology. */
struct SwipeSetup {
    int swipes = 40;          ///< two per second for 20 s
    Time swipe_period = 500'000'000;
    double active_fraction = 0.7;
    int repeats = 3;          ///< paper: averages over several runs
    /** D-VSync pre-render limit (-1 = derive from the buffer count). */
    int prerender_limit = -1;

    /** The OS-use-case methodology: short one-shot operations (§A.2)
     *  with the OpenHarmony render service's 3-back-buffer pre-render
     *  limit (§5.1). */
    static SwipeSetup os_cases()
    {
        SwipeSetup s;
        s.swipes = 40;
        s.swipe_period = 560'000'000;
        s.active_fraction = 0.5;
        s.prerender_limit = 3;
        return s;
    }
};

/** The shared bench runner; jobs from $DVS_JOBS (see default_jobs). */
const ExperimentRunner &bench_runner();

/**
 * Uniform flag parsing for the bench binaries. Flags use the repo-wide
 * `--name=value` convention (presence flags take no value); each typed
 * accessor *consumes* its flag, and finish() rejects anything left over,
 * so a typo'd flag is a hard error in every bench instead of a silent
 * no-op in some of them.
 *
 *   bench::ArgParser args(argc, argv);
 *   const int seeds = args.int_flag("seeds", 50);
 *   const bool golden = args.bool_flag("golden");
 *   const int jobs = args.jobs();
 *   args.finish(); // fatal() on unknown flags / stray positionals
 *
 * Accessors fatal() on malformed values (non-numeric, missing `=`),
 * which exits 1 — or throws ConfigError under a FatalThrowsScope, which
 * is how the tests pin the behavior.
 */
class ArgParser
{
  public:
    ArgParser(int argc, char **argv);

    /** `--name=N` as int; @p def when absent. */
    int int_flag(const char *name, int def);

    /** `--name=N` as a non-negative 64-bit count; @p def when absent. */
    std::uint64_t u64_flag(const char *name, std::uint64_t def);

    /** `--name=X` as double; @p def when absent. */
    double double_flag(const char *name, double def);

    /** `--name=S` as string; @p def when absent. */
    std::string string_flag(const char *name, std::string def = "");

    /** Presence flag `--name` (no value). */
    bool bool_flag(const char *name);

    /** Worker count: `--jobs=N`, then $DVS_JOBS, then all cores. */
    int jobs();

    /** Claim up to @p max positional (non-flag) arguments, in order. */
    std::vector<std::string> positional(std::size_t max);

    /** Reject unconsumed flags and positionals. Call after all accessors. */
    void finish();

  private:
    struct Arg {
        std::string name;  ///< flag name (empty for positionals)
        std::string value; ///< value text (or the positional itself)
        bool has_value = false;
        bool consumed = false;
    };
    Arg *find(const char *name);

    std::string prog_;
    std::vector<Arg> args_;
};

/**
 * Uniform BENCH_*.json emitter. Every bench record opens with the same
 * provenance stamp — `schema_version`, the bench name, and the
 * `git describe` string of the working tree — then appends fields in
 * call order, so downstream tooling can parse any record the same way
 * instead of each campaign hand-rolling its JSON.
 *
 *   BenchJson record("megafleet_campaign");
 *   record.u64("sessions", agg.sessions());
 *   record.num("wall_s", wall_s, 3);
 *   record.write(out_path); // "-" suppresses the file
 */
class BenchJson
{
  public:
    /** Schema stamped into every record. */
    static constexpr int kSchemaVersion = 2;

    explicit BenchJson(const std::string &bench_name);

    void u64(const char *name, std::uint64_t value);
    void i64(const char *name, std::int64_t value);
    /** Fixed-point double with @p decimals digits. */
    void num(const char *name, double value, int decimals);
    void str(const char *name, const std::string &value);
    void boolean(const char *name, bool value);
    /** Pre-formatted JSON value (nested arrays/objects). */
    void raw(const char *name, const std::string &json);

    std::string to_string() const;

    /** Write the record to @p path; "-" (or empty) is a silent no-op.
     *  fatal() on I/O failure. Callers print their own "written to"
     *  note, keeping every bench's existing output byte-stable. */
    void write(const std::string &path) const;

  private:
    void key(const char *name);

    std::string body_;
};

/**
 * `git describe --always --dirty` of the working tree, cached after the
 * first call; "unknown" when git or the repo is unavailable.
 */
const std::string &git_describe();

/** Run one configuration once and summarize. */
RunReport run_system(const SystemConfig &config, const Scenario &scenario);

/**
 * The experiment points of one profile cell: the swipe scenario repeated
 * over `setup.repeats` seeds under one (device, mode, buffers) tuple.
 */
std::vector<Experiment>
profile_experiments(const ProfileSpec &spec, const DeviceConfig &device,
                    RenderMode mode, int buffers, const SwipeSetup &setup,
                    std::uint64_t seed_base = 1);

/**
 * Run an app/os-case profile through the swipe methodology, averaging
 * over `setup.repeats` seeds.
 */
RunReport run_profile(const ProfileSpec &spec, const DeviceConfig &device,
                      RenderMode mode, int buffers, const SwipeSetup &setup,
                      std::uint64_t seed_base = 1);

/**
 * A sink that folds every @p group_size consecutive reports (one cell's
 * repeats) into one averaged cell on delivery. Peak retention is the
 * finished cells plus at most one partial group — not the raw report
 * list.
 */
class GroupAverageSink final : public ReportSink
{
  public:
    explicit GroupAverageSink(int group_size);

    void consume(std::size_t index, RunReport &&report) override;

    /** Finished cells (averaging any trailing partial group). */
    std::vector<RunReport> take();

  private:
    std::size_t group_size_;
    std::vector<RunReport> pending_; ///< current group, < group_size_
    std::vector<RunReport> cells_;
};

/**
 * A campaign's drop-cause roll-up over @p all, every run folded in:
 * prints "<heading>: cause=N ... | injected X of Y drops", causes with a
 * zero count omitted. @p heading carries the campaign's label and any
 * leading newline, e.g. "\ndrop causes (all runs)".
 */
void print_drop_causes(const CohortStats &all, const char *heading);

/** Print the UNATTRIBUTED DROPS verdict if any drop in @p all has no
 *  cause; return whether one did. */
bool flag_unattributed(const CohortStats &all);

/** Percentage reduction from a to b (positive = improvement). */
double reduction_percent(double a, double b);

/**
 * Calibrate a profile's key-frame rate so its *baseline VSync* FDPS
 * matches the paper's reported value on the given device (secant
 * iteration on heavy_per_sec). The D-VSync results are then measured,
 * not encoded: only the baseline is anchored, exactly as described in
 * DESIGN.md. Returns the spec unchanged when paper_fdps == 0.
 */
ProfileSpec calibrate_baseline(const ProfileSpec &spec,
                               const DeviceConfig &device,
                               int vsync_buffers, const SwipeSetup &setup,
                               std::uint64_t seed);

} // namespace dvs::bench

#endif // DVS_BENCH_BENCH_COMMON_H
