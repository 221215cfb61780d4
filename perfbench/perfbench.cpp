/**
 * @file
 * perfbench: the measuring half of the repository benchmark.
 *
 * Runs one workload through the library's public API and reports host
 * time (never simulated results, which are an unvalidated model):
 *
 *   --trace 0  end-to-end metrics, tracing off: closed-loop sessions/s
 *              at jobs=1 and through ExperimentRunner at jobs=N,
 *              simulated seconds per host second, per-session host-time
 *              percentiles, set-up time and peak RSS;
 *   --trace 1  per-layer metrics: a jobs=1 pass that records a span
 *              around every public call, reduced to per-call self time,
 *              plus the tracing overhead and a coverage check.
 *
 * Every run also gates correctness: every pass folds into a fresh
 * CampaignAggregator + Observatory whose JSON must be byte-identical to
 * the first jobs=1 pass (at jobs=1, at jobs=N and under tracing), every
 * capture must replay bit-exactly, and any session error, invariant
 * violation or unattributed drop is a failed operation.
 *
 * Sessions are a fixed set per seed: each pass runs sessions [0, pass)
 * of the workload's population, and the phases (jobs=1, jobs=N, set-up,
 * traced) repeat whole passes, interleaved, until --seconds are used.
 * Counts and fingerprints therefore repeat exactly at a fixed seed. Host
 * times are min-of-N: each session (jobs=1) or delivery chunk (jobs=N)
 * is timed in every pass, and its least time counts, because a shared
 * host only ever slows identical work down. The last stdout line is one
 * JSON object; perfbench/run.py builds this program, stamps the result
 * and trims that line to the benchmark contract.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/aggregator.h"
#include "harness/experiment_runner.h"
#include "obs/observatory.h"
#include "sim/logging.h"
#include "trace/dvst_io.h"
#include "trace/session_recorder.h"
#include "trace/trace_replay.h"
#include "workload/device_population.h"

using namespace dvs;

namespace {

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ----- workloads ---------------------------------------------------------

/**
 * Why these three: `fleet` sessions are short (~264 events), so fixed
 * per-session costs (draw, construction, report, fold, scoring,
 * teardown) show; `soak` sessions are 20x longer, so only the dispatch
 * path shows; `replay` is the only one reaching the trace layer,
 * MultiSurfaceSystem, the thermal governor and fault injection.
 */
struct WorkloadSpec {
    const char *name;
    std::uint64_t pass;    ///< sessions per pass (the fixed session set)
    std::uint64_t warmup;  ///< sessions run during set-up, untimed
    std::uint64_t probe;   ///< traced trace-layer probe sessions per pass
    int swipes;            ///< session length override; 0 keeps the fleet's
    bool record_replay;    ///< every session is captured and replayed
};

// Warm-up only pages the code in and primes the allocator (host times are
// min-of-N anyway), so it is kept short: the population build and corpus
// load, not session throughput, must dominate setup_s.
constexpr WorkloadSpec kWorkloads[] = {
    {"fleet", 4096, 4, 128, 0, false},
    {"soak", 1024, 1, 16, 40, false},
    {"replay", 1024, 1, 0, 0, true},
};

/** A `traces/` corpus entry, held encoded so each pass decodes it. */
struct CorpusEntry {
    std::string name;
    std::string bytes;
    /** Reference report fingerprint of a derived (non-verbatim) entry. */
    std::uint64_t derived_fnv = 0;
};

struct Bench {
    const WorkloadSpec *spec;
    DevicePopulation pop;
    std::vector<CorpusEntry> corpus;
};

// ----- spans ---------------------------------------------------------------

enum Layer : std::uint8_t {
    kSession,       ///< root: one population session (the bench loop)
    kCorpus,        ///< root: one corpus entry
    kProbe,         ///< root: one trace-layer probe session
    kDraw,          ///< DevicePopulation::experiment
    kSetup,         ///< RenderSystem constructor
    kRun,           ///< RenderSystem::run
    kReport,        ///< second RenderSystem::report
    kTeardown,      ///< RenderSystem destructor
    kFold,          ///< CampaignAggregator::add
    kObserve,       ///< Observatory::observe
    kCapture,       ///< SessionRecorder::capture
    kEncode,        ///< SessionCapture::encode
    kDecode,        ///< SessionCapture::decode
    kReplay,        ///< replay_session, single-surface
    kSurfaceReplay, ///< replay_session, multi-surface
    kVerify,        ///< ReplayResult::verify_against
    kLayerCount
};

constexpr const char *kLayerName[kLayerCount] = {
    "bench.session", "bench.corpus",  "bench.probe",    "workload.draw",
    "core.setup",    "core.run",      "metrics.report", "core.teardown",
    "harness.fold",  "obs.observe",   "trace.capture",  "trace.encode",
    "trace.decode",  "trace.replay",  "surface.replay", "trace.verify",
};

/** Tracing off: spans compile away. */
struct NullTracer {
    template <class F> decltype(auto) span(Layer, F &&f) { return f(); }
};

/**
 * Records a span (layer, start, end, parent) around each call. A span
 * opened with nothing open is a root and starts a new session id, which
 * its descendants share. Spans stay in memory until write().
 */
class SpanTracer
{
  public:
    struct Span {
        std::int64_t start;
        std::int64_t end;
        std::int32_t parent; ///< index into spans(), -1 for a root
        std::uint32_t session;
        Layer layer;
    };

    template <class F> decltype(auto) span(Layer layer, F &&f)
    {
        Scope scope(*this, layer);
        return f();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Span index range [first, last) recorded by one pass. */
    using Range = std::pair<std::size_t, std::size_t>;

    /**
     * Per-layer self time (duration minus what child spans cover) as
     * min-of-N: the passes in @p ranges recorded the same call sequence,
     * and each call's least self time over them counts once. @return
     * false, adding nothing, when the sequences differ.
     */
    bool add_best_self_times(const std::vector<Range> &ranges,
                             std::int64_t (&self_ns)[kLayerCount],
                             std::uint64_t (&calls)[kLayerCount]) const
    {
        if (ranges.empty())
            return true;
        const std::size_t len = ranges.front().second - ranges.front().first;
        for (const Range &r : ranges)
            if (r.second - r.first != len)
                return false;
        std::vector<std::int64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            self[i] += s.end - s.start;
            if (s.parent >= 0)
                self[std::size_t(s.parent)] -= s.end - s.start;
        }
        for (std::size_t k = 0; k < len; ++k) {
            const Layer layer = spans_[ranges.front().first + k].layer;
            std::int64_t best = self[ranges.front().first + k];
            for (const Range &r : ranges) {
                if (spans_[r.first + k].layer != layer)
                    return false;
                best = std::min(best, self[r.first + k]);
            }
            self_ns[layer] += best;
            ++calls[layer];
        }
        return true;
    }

    /** Sum of root span durations (what the coverage check counts). */
    std::int64_t root_ns() const
    {
        std::int64_t total = 0;
        for (const Span &s : spans_)
            if (s.parent < 0)
                total += s.end - s.start;
        return total;
    }

    /** Self time of the root spans: the benchmark's own loop. */
    std::int64_t root_self_ns() const
    {
        std::int64_t total = 0;
        for (const Span &s : spans_) {
            if (s.parent < 0)
                total += s.end - s.start;
            else if (spans_[std::size_t(s.parent)].parent < 0)
                total -= s.end - s.start;
        }
        return total;
    }

    /**
     * Write every span as TSV, one line per span in recording order (the
     * line number, from 0, is the span id its children name as parent).
     */
    bool write(const std::string &path, const std::string &header) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "# %s\n# session\tparent\tlayer\tstart_ns\tend_ns\n",
                     header.c_str());
        const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
        for (const Span &s : spans_)
            std::fprintf(f, "%u\t%d\t%s\t%lld\t%lld\n", s.session, s.parent,
                         kLayerName[s.layer], (long long)(s.start - t0),
                         (long long)(s.end - t0));
        return std::fclose(f) == 0;
    }

  private:
    class Scope
    {
      public:
        Scope(SpanTracer &t, Layer layer)
            : t_(t), index_(t.spans_.size()), parent_(t.open_)
        {
            if (parent_ < 0)
                ++t.session_;
            t.spans_.push_back({0, 0, parent_, t.session_, layer});
            t.open_ = std::int32_t(index_);
            t.spans_.back().start = now_ns();
        }
        ~Scope()
        {
            t_.spans_[index_].end = now_ns();
            t_.open_ = parent_;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanTracer &t_;
        std::size_t index_;
        std::int32_t parent_;
    };

    std::vector<Span> spans_;
    std::int32_t open_ = -1;
    std::uint32_t session_ = 0;
};

// ----- one operation -----------------------------------------------------

/** Counters of the benchmark's own operations. */
struct Tally {
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::uint64_t sessions = 0;   ///< population sessions simulated
    std::uint64_t events = 0;     ///< their dispatched events
    std::int64_t sim_ns = 0;      ///< simulated time of every run
    std::uint64_t captures = 0;   ///< encoded captures
    std::uint64_t capture_bytes = 0;

    /** Count one operation; any error, violation or unknown drop fails it. */
    void check(const RunReport &r)
    {
        ++ops;
        const std::uint64_t unknown =
            r.drop_causes[std::size_t(DropCause::kUnknown)];
        if (r.error.empty() && r.invariant_violations == 0 && unknown == 0)
            return;
        if (failed++ < 5)
            std::fprintf(stderr,
                         "perfbench: failed operation (%s): error='%s' "
                         "violations=%llu unattributed=%llu\n",
                         r.label.c_str(), r.error.c_str(),
                         (unsigned long long)r.invariant_violations,
                         (unsigned long long)unknown);
    }

    void fail(const char *what)
    {
        ++ops;
        ++failed;
        std::fprintf(stderr, "perfbench: FAIL: %s\n", what);
    }
};

/**
 * Decode, replay and verify one encoded capture. A verbatim capture
 * must pass verify_against (dispatch hash + field-by-field report); a
 * derived one has no recorded hashes, so its replay must reproduce the
 * report fingerprint it had at set-up. Failures land in the report's
 * error field.
 */
template <class Tracer>
RunReport
replay_capture(const std::string &bytes, std::uint64_t derived_fnv,
               Tally &t, Tracer &tr)
{
    SessionCapture cap;
    std::string error;
    if (!tr.span(kDecode,
                 [&] { return SessionCapture::decode(bytes, cap, error); })) {
        RunReport failed;
        failed.error = "decode: " + error;
        return failed;
    }
    const Layer layer = cap.kind == SessionCapture::Kind::kMulti
                            ? kSurfaceReplay
                            : kReplay;
    ReplayResult rr = tr.span(layer, [&] { return replay_session(cap); });
    t.sim_ns += rr.report.activity.wall_time;
    const std::string verdict = tr.span(kVerify, [&]() -> std::string {
        if (cap.verbatim)
            return rr.verify_against(cap);
        return rr.report_fnv() == derived_fnv
                   ? std::string()
                   : std::string("derived replay changed its report");
    });
    if (!verdict.empty() && rr.report.error.empty())
        rr.report.error = "verify: " + verdict;
    rr.report.label = cap.label;
    return std::move(rr.report);
}

struct SessionOptions {
    bool second_report = false; ///< time RenderSystem::report() again
    bool record_replay = false; ///< capture, encode, decode, replay, verify
};

/**
 * Simulate population session @p i the way ExperimentRunner::run_one
 * does (draw, construct, run, label, destroy), with optional extra
 * calls. Errors become an error report, as in the runner.
 */
template <class Tracer>
RunReport
simulate(const DevicePopulation &pop, std::uint64_t i, SessionOptions opt,
         Tally &t, Tracer &tr)
{
    const Experiment exp = tr.span(kDraw, [&] { return pop.experiment(i); });
    FatalThrowsScope recoverable(true);
    RunReport rep;
    try {
        std::optional<RenderSystem> sys;
        tr.span(kSetup, [&] { sys.emplace(exp.config, exp.scenario); });
        rep = tr.span(kRun, [&] { return sys->run(); });
        rep.label = exp.label;
        ++t.sessions;
        t.events += sys->sim().events().dispatched();
        t.sim_ns += rep.activity.wall_time;
        if (opt.second_report) {
            const RunReport again =
                tr.span(kReport, [&] { return sys->report(); });
            if (again.drops != rep.drops || again.presents != rep.presents)
                rep.error = "report() changed between calls";
        }
        std::string bytes;
        if (opt.record_replay) {
            const SessionCapture cap = tr.span(kCapture, [&] {
                return SessionRecorder::capture(*sys, exp.label);
            });
            bytes = tr.span(kEncode, [&] { return cap.encode(); });
            ++t.captures;
            t.capture_bytes += bytes.size();
        }
        tr.span(kTeardown, [&] { sys.reset(); });
        if (opt.record_replay) {
            const RunReport back = replay_capture(bytes, 0, t, tr);
            if (!back.error.empty() && rep.error.empty())
                rep.error = back.error;
        }
    } catch (const ConfigError &e) {
        rep = RunReport();
        rep.label = exp.label;
        rep.scenario = exp.scenario.name();
        rep.error = e.what();
    }
    return rep;
}

// ----- passes ------------------------------------------------------------

/** The simulated-output roll-up each pass folds into. */
struct Rollup {
    CampaignAggregator agg;
    Observatory obs;

    /** FNV-1a of the aggregator and observatory JSON (no dispatch hash). */
    std::uint64_t fingerprint() const
    {
        return fnv1a(agg.to_json() + obs.to_json());
    }
};

struct Pass {
    double wall_s = 0.0;
    std::uint64_t ops = 0;
    std::int64_t sim_ns = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t sessions = 0; ///< population sessions simulated
    std::uint64_t events = 0;   ///< their dispatched events
    /**
     * Host time of each fixed slice of the pass: one operation at
     * jobs=1, one delivery chunk at jobs=N. Slices are the same work in
     * every pass, so their minimum over passes is a min-of-N timing.
     */
    std::vector<std::int64_t> slice_ns;
};

/** One jobs=1 closed-loop pass over sessions [0, n) (+ corpus). */
template <class Tracer>
Pass
serial_pass(const Bench &b, std::uint64_t n, SessionOptions opt, Tally &t,
            Tracer &tr)
{
    Rollup roll;
    Pass p;
    p.slice_ns.reserve(n + b.corpus.size());
    const Tally before = t;
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::int64_t s0 = now_ns();
        tr.span(kSession, [&] {
            const RunReport rep = simulate(b.pop, i, opt, t, tr);
            t.check(rep);
            tr.span(kFold, [&] { roll.agg.add(rep); });
            tr.span(kObserve, [&] { roll.obs.observe(i, rep); });
        });
        p.slice_ns.push_back(now_ns() - s0);
    }
    if (b.spec->record_replay) {
        for (const CorpusEntry &e : b.corpus) {
            const std::int64_t s0 = now_ns();
            tr.span(kCorpus, [&] {
                t.check(replay_capture(e.bytes, e.derived_fnv, t, tr));
            });
            p.slice_ns.push_back(now_ns() - s0);
        }
    }
    p.wall_s = double(now_ns() - t0) * 1e-9;
    p.ops = t.ops - before.ops;
    p.sim_ns = t.sim_ns - before.sim_ns;
    p.fingerprint = roll.fingerprint();
    p.sessions = t.sessions - before.sessions;
    p.events = t.events - before.events;
    return p;
}

/**
 * The jobs=N sink chain: folds population sessions into the roll-up,
 * timing only the aggregator and observatory calls. Corpus reports
 * (indices past the session set) are checked, not folded.
 */
class TimedSink final : public ReportSink
{
  public:
    /**
     * @param folded  reports [0, folded) are folded
     * @param total   reports delivered in the pass
     * @param chunk   reports per timed delivery chunk
     */
    TimedSink(Rollup &roll, Tally &t, std::size_t folded, std::size_t total,
              std::size_t chunk)
        : roll_(roll), t_(t), folded_(folded), total_(total), chunk_(chunk),
          mark_(now_ns())
    {}

    void consume(std::size_t index, RunReport &&report) override
    {
        t_.check(report);
        if (index < folded_) {
            const std::int64_t t0 = now_ns();
            roll_.agg.add(report);
            roll_.obs.observe(index, report);
            ns_ += now_ns() - t0;
            ++delivered_;
        }
        if ((index + 1) % chunk_ == 0 || index + 1 == total_) {
            const std::int64_t now = now_ns();
            chunk_ns_.push_back(now - mark_);
            mark_ = now;
        }
    }

    std::int64_t ns() const { return ns_; }
    std::uint64_t delivered() const { return delivered_; }
    std::vector<std::int64_t> take_chunks() { return std::move(chunk_ns_); }

  private:
    Rollup &roll_;
    Tally &t_;
    std::size_t folded_;
    std::size_t total_;
    std::size_t chunk_;
    std::int64_t mark_;
    std::int64_t ns_ = 0;
    std::uint64_t delivered_ = 0;
    std::vector<std::int64_t> chunk_ns_;
};

/** Timed delivery chunks per jobs=N pass. */
constexpr std::size_t kParallelChunks = 8;

struct SinkTime {
    std::int64_t ns = 0;
    std::uint64_t delivered = 0;
};

/** One jobs=N pass through ExperimentRunner's streaming path. */
Pass
parallel_pass(const Bench &b, const ExperimentRunner &runner, Tally &t,
              SinkTime &sink_time)
{
    Rollup roll;
    const std::size_t n = b.spec->pass;
    const std::uint64_t ops0 = t.ops;
    const std::int64_t t0 = now_ns();
    TimedSink sink(roll, t, n, n + (b.spec->record_replay ? b.corpus.size()
                                                          : 0),
                   n / kParallelChunks);
    if (!b.spec->record_replay) {
        runner.run_stream(
            n, [&](std::size_t i) { return b.pop.experiment(i); }, sink);
    } else {
        runner.run_tasks_stream(
            n + b.corpus.size(),
            [&](std::size_t i) {
                ExperimentRunner::TaskSpec task;
                task.run = [&b, i, n]() {
                    Tally local;
                    NullTracer none;
                    if (i < n)
                        return simulate(b.pop, i, {false, true}, local, none);
                    const CorpusEntry &e = b.corpus[i - n];
                    return replay_capture(e.bytes, e.derived_fnv, local, none);
                };
                return task;
            },
            sink);
    }
    Pass p;
    p.wall_s = double(now_ns() - t0) * 1e-9;
    p.ops = t.ops - ops0;
    p.fingerprint = roll.fingerprint();
    p.slice_ns = sink.take_chunks();
    sink_time.ns += sink.ns();
    sink_time.delivered += sink.delivered();
    return p;
}

/** Trace-layer probe for workloads whose sessions are not recorded. */
Pass
probe_pass(const Bench &b, Tally &t, SpanTracer &tr)
{
    const std::uint64_t ops0 = t.ops;
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < b.spec->probe; ++i) {
        tr.span(kProbe, [&] {
            t.check(simulate(b.pop, i, {false, true}, t, tr));
        });
    }
    for (const CorpusEntry &e : b.corpus)
        tr.span(kCorpus, [&] {
            t.check(replay_capture(e.bytes, e.derived_fnv, t, tr));
        });
    Pass p;
    p.wall_s = double(now_ns() - t0) * 1e-9;
    p.ops = t.ops - ops0;
    return p;
}

/** A kind of pass and the share of the run it gets. */
struct Phase {
    Phase(double share, std::function<Pass()> run)
        : share(share), run(std::move(run))
    {}

    double share;
    std::function<Pass()> run;
    std::vector<Pass> passes;
    double spent_s = 0.0;
};

/**
 * Run whole passes of every phase, interleaved, until @p seconds are
 * used and each phase has @p min_passes: the phase furthest below its
 * share goes next. The host is shared and its speed drifts over seconds,
 * so interleaving lets every phase sample the same conditions.
 */
void
interleave(double seconds, std::size_t min_passes,
           std::vector<Phase *> phases)
{
    for (;;) {
        double total = 0.0;
        bool short_of_passes = false;
        for (const Phase *p : phases) {
            total += p->spent_s;
            short_of_passes |= p->passes.size() < min_passes;
        }
        if (total >= seconds && !short_of_passes)
            return;
        Phase *next = phases.front();
        for (Phase *p : phases)
            if (p->spent_s / p->share < next->spent_s / next->share)
                next = p;
        next->passes.push_back(next->run());
        next->spent_s += next->passes.back().wall_s;
    }
}

// ----- set-up ------------------------------------------------------------

std::vector<CorpusEntry>
load_corpus(const std::string &dir)
{
    std::vector<std::filesystem::path> paths;
    std::error_code ec;
    for (const auto &de : std::filesystem::directory_iterator(dir, ec))
        if (de.path().extension() == ".dvst")
            paths.push_back(de.path());
    if (ec || paths.empty())
        fatal("perfbench: no .dvst corpus in '%s'", dir.c_str());
    std::sort(paths.begin(), paths.end());

    std::vector<CorpusEntry> corpus;
    for (const auto &p : paths) {
        std::ifstream in(p, std::ios::binary);
        CorpusEntry e;
        e.name = p.filename().string();
        e.bytes.assign(std::istreambuf_iterator<char>(in), {});
        SessionCapture cap;
        std::string error;
        if (!SessionCapture::decode(e.bytes, cap, error))
            fatal("perfbench: corpus entry %s: %s", e.name.c_str(),
                  error.c_str());
        if (!cap.verbatim)
            e.derived_fnv = replay_session(cap).report_fnv();
        corpus.push_back(std::move(e));
    }
    return corpus;
}

DevicePopulation
population(const WorkloadSpec &spec, std::uint64_t seed)
{
    DevicePopulation fleet = DevicePopulation::paper_fleet(seed);
    if (spec.swipes == 0)
        return fleet;
    std::vector<AppUsageClass> apps = fleet.apps();
    for (AppUsageClass &a : apps)
        a.swipes = spec.swipes;
    return DevicePopulation(fleet.tiers(), std::move(apps), seed);
}

/**
 * Population build, corpus load and warm-up: everything before timing.
 * @p timing receives the wall time and one slice per step (the build,
 * the load, each warm-up session), so set-up is min-of-N like the rest.
 */
Bench
set_up(const WorkloadSpec &spec, std::uint64_t seed,
       const std::string &corpus_dir, Tally &t, Pass &timing)
{
    const std::int64_t t0 = now_ns();
    DevicePopulation pop = population(spec, seed);
    const std::int64_t t1 = now_ns();
    Bench b{&spec, std::move(pop), load_corpus(corpus_dir)};
    timing.slice_ns = {t1 - t0, now_ns() - t1};
    NullTracer none;
    for (std::uint64_t i = 0; i < spec.warmup; ++i) {
        const std::int64_t s0 = now_ns();
        t.check(simulate(b.pop, i, {false, spec.record_replay}, t, none));
        timing.slice_ns.push_back(now_ns() - s0);
    }
    timing.wall_s = double(now_ns() - t0) * 1e-9;
    return b;
}

// ----- statistics and output --------------------------------------------

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of sorted samples. */
double
percentile(const std::vector<std::int64_t> &sorted, double p)
{
    const std::size_t n = sorted.size();
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return double(sorted[rank - 1]);
}

std::vector<double>
rates(const std::vector<Pass> &passes)
{
    std::vector<double> r;
    for (const Pass &p : passes)
        r.push_back(double(p.ops) / p.wall_s);
    return r;
}

/**
 * Min-of-N per slice: each slice's least host time over all passes. The
 * shared host only ever slows work down, so the minimum of identical
 * work is the steady estimate of what the code costs.
 */
std::vector<std::int64_t>
best_slices(const std::vector<Pass> &passes)
{
    std::vector<std::int64_t> best = passes.front().slice_ns;
    for (const Pass &p : passes) {
        if (p.slice_ns.size() != best.size())
            fatal("perfbench: passes disagree on their slice count");
        for (std::size_t i = 0; i < best.size(); ++i)
            best[i] = std::min(best[i], p.slice_ns[i]);
    }
    return best;
}

double
sum_s(const std::vector<std::int64_t> &ns)
{
    std::int64_t total = 0;
    for (std::int64_t x : ns)
        total += x;
    return double(total) * 1e-9;
}

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

/** Every pass must fold to the first jobs=1 pass's fingerprint. */
void
gate_fingerprints(const char *what, const std::vector<Pass> &passes,
                  std::uint64_t expect, Tally &t)
{
    for (const Pass &p : passes) {
        ++t.ops;
        if (p.fingerprint != expect) {
            ++t.failed;
            std::fprintf(stderr,
                         "perfbench: FAIL: %s pass folded to %016llx, "
                         "jobs=1 gave %016llx\n",
                         what, (unsigned long long)p.fingerprint,
                         (unsigned long long)expect);
        }
    }
}

/** jobs=N: one worker per CPU this process may run on. */
int
affinity_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        fatal("perfbench: sched_getaffinity failed");
    return std::max(1, CPU_COUNT(&set));
}

struct Args {
    const WorkloadSpec *spec = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string corpus = "traces";
    std::string spans_out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload fleet|soak|"
                 "replay --seed N --seconds S --trace 0|1 "
                 "[--corpus DIR] [--spans-out PATH]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            for (const WorkloadSpec &w : kWorkloads)
                if (v == w.name)
                    a.spec = &w;
            if (!a.spec)
                usage(("unknown workload " + v).c_str());
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = std::strtol(v.c_str(), &end, 10) != 0;
        } else if (flag == "--corpus") {
            a.corpus = v;
        } else if (flag == "--spans-out") {
            a.spans_out = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("malformed value for " + flag).c_str());
    }
    if (!a.spec)
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parse(argc, argv);
    const WorkloadSpec &spec = *a.spec;
    const ExperimentRunner runner(affinity_cpus());
    Tally t;
    NullTracer none;

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "jobs=%d pass=%llu sessions\n",
                spec.name, (unsigned long long)a.seed, a.seconds,
                int(a.trace), runner.jobs(),
                (unsigned long long)spec.pass);

    // The first set-up builds the bench every pass uses. Further set-ups
    // run as a phase of their own, so the reported median samples the
    // same host conditions as the other phases.
    Pass first_setup;
    const Bench b = set_up(spec, a.seed, a.corpus, t, first_setup);

    // Shares of the run. A traced run gives its untraced and traced
    // jobs=1 passes equal time, so their min-of-N see similar N.
    const double probe_share = spec.record_replay ? 0.0 : 0.15;
    const double serial_share = a.trace ? (0.88 - probe_share) / 2 : 0.8;

    // jobs=1 closed loop, untraced: the reference every pass must match.
    Phase serial{serial_share, [&] {
                     return serial_pass(b, spec.pass,
                                        {false, spec.record_replay}, t, none);
                 }};
    // jobs=N through the streaming harness: the determinism gate on every
    // run, and the jobs=N throughput of a traced run.
    SinkTime sink_time;
    Phase par{0.12,
              [&] { return parallel_pass(b, runner, t, sink_time); }};
    Phase setup{0.08, [&] {
                    Pass p;
                    set_up(spec, a.seed, a.corpus, t, p);
                    return p;
                }};
    // Traced jobs=1 passes: the same sessions, a span around every call,
    // plus a second report() so report derivation is timed.
    SpanTracer tr;
    std::vector<SpanTracer::Range> traced_spans, probe_spans;
    Phase traced{serial_share, [&] {
                     const std::size_t first = tr.spans().size();
                     Pass p = serial_pass(b, spec.pass,
                                          {true, spec.record_replay}, t, tr);
                     traced_spans.emplace_back(first, tr.spans().size());
                     return p;
                 }};
    // Workloads that do not record their sessions still get trace-layer
    // numbers, from a probe over the start of their session set.
    Phase probe{probe_share, [&] {
                    const std::size_t first = tr.spans().size();
                    Pass p = probe_pass(b, t, tr);
                    probe_spans.emplace_back(first, tr.spans().size());
                    return p;
                }};

    std::vector<Phase *> phases{&serial, &par};
    if (!a.trace)
        phases.push_back(&setup);
    else
        phases.push_back(&traced);
    if (a.trace && !spec.record_replay)
        phases.push_back(&probe);
    interleave(a.seconds, 3, phases);

    const std::uint64_t fingerprint = serial.passes.front().fingerprint;
    gate_fingerprints("jobs=1", serial.passes, fingerprint, t);
    gate_fingerprints("jobs=N", par.passes, fingerprint, t);
    gate_fingerprints("traced", traced.passes, fingerprint, t);
    // Whole passes over the fixed set, so the event mean repeats exactly.
    std::uint64_t sessions = 0, events = 0;
    for (const Pass &p : serial.passes) {
        sessions += p.sessions;
        events += p.events;
    }
    const double events_per_session = double(events) / double(sessions);
    // The corpus gate, and the corpus's share of the simulated output: the
    // replayed report of every entry, the derived one included, so a
    // change to its replay moves a fingerprint later runs compare.
    std::string corpus_reports;
    for (const CorpusEntry &e : b.corpus) {
        const RunReport rep = replay_capture(e.bytes, e.derived_fnv, t, none);
        t.check(rep);
        corpus_reports += rep.debug_string();
    }
    const std::uint64_t corpus_fingerprint = fnv1a(corpus_reports);
    const std::vector<std::int64_t> best = best_slices(serial.passes);
    const double ops_per_pass = double(serial.passes.front().ops);
    const double serial_rate = ops_per_pass / sum_s(best);
    const double par_rate = ops_per_pass / sum_s(best_slices(par.passes));
    for (const Phase *p : {&serial, &par}) {
        std::vector<double> r = rates(p->passes);
        std::sort(r.begin(), r.end());
        std::printf("%s: %zu passes, ops/s per pass min %.1f median %.1f "
                    "max %.1f, min-of-N %.1f\n",
                    p == &serial ? "jobs=1" : "jobs=N", r.size(), r.front(),
                    median(r), r.back(),
                    p == &serial ? serial_rate : par_rate);
    }

    std::vector<Metric> metrics;
    if (!a.trace) {
        std::vector<Pass> setups = setup.passes;
        setups.push_back(first_setup);
        std::vector<double> setup_walls;
        for (const Pass &p : setups)
            setup_walls.push_back(p.wall_s);
        const std::vector<std::int64_t> setup_ns = best_slices(setups);
        const double setup_s = sum_s(setup_ns);
        const double warmup_s =
            sum_s({setup_ns.begin() + 2, setup_ns.end()});
        std::vector<std::int64_t> op_ns = best;
        std::sort(op_ns.begin(), op_ns.end());
        const double n = double(op_ns.size());
        // The highest percentile with at least ten samples beyond it.
        double tail_p = 50.0;
        for (double p : {90.0, 99.0, 99.9, 99.99, 99.999})
            if (n * (1.0 - p / 100.0) >= 10.0)
                tail_p = p;
        std::printf("session host time at jobs=1 (min over %zu passes): "
                    "n=%zu p50=%.2f us "
                    "p99=%.2f us p%g=%.2f us (highest percentile with >=10 "
                    "samples beyond)\n",
                    serial.passes.size(), op_ns.size(),
                    percentile(op_ns, 50) * 1e-3,
                    percentile(op_ns, 99) * 1e-3, tail_p,
                    percentile(op_ns, tail_p) * 1e-3);

        metrics = {
            {"sessions_per_s", serial_rate, "1/s"},
            {"sim_speed",
             double(serial.passes.front().sim_ns) * 1e-9 / sum_s(best),
             "s/s"},
            {"session_p50_us", percentile(op_ns, 50) * 1e-3, "us"},
            {"session_p99_us", percentile(op_ns, 99) * 1e-3, "us"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"setup_s", setup_s, "s"},
        };
        std::printf("set-up: %zu repetitions, min-of-N %.6f s (population "
                    "build %.1f%%, corpus load %.1f%%, warm-up of %llu "
                    "sessions %.1f%%), median wall %.6f s\n",
                    setups.size(), setup_s,
                    100.0 * double(setup_ns[0]) * 1e-9 / setup_s,
                    100.0 * double(setup_ns[1]) * 1e-9 / setup_s,
                    (unsigned long long)spec.warmup,
                    100.0 * warmup_s / setup_s, median(setup_walls));
    } else {
        double traced_wall = 0.0;
        for (const Phase *p : {&traced, &probe})
            for (const Pass &pass : p->passes)
                traced_wall += pass.wall_s;
        // Root spans must cover the traced wall time, and the named layers
        // must cover the root spans: the loop's own self time (report
        // copies, Experiment destruction, ...) may take at most 5%.
        const double coverage =
            100.0 * double(tr.root_ns()) * 1e-9 / traced_wall;
        const double loop_pct =
            100.0 * double(tr.root_self_ns()) / double(tr.root_ns());
        ++t.ops;
        if (coverage < 95.0) {
            ++t.failed;
            std::fprintf(stderr,
                         "perfbench: FAIL: spans cover %.2f%% of traced "
                         "wall time (< 95%%)\n",
                         coverage);
        }
        ++t.ops;
        if (loop_pct > 5.0) {
            ++t.failed;
            std::fprintf(stderr,
                         "perfbench: FAIL: the bench loop's self time is "
                         "%.2f%% of root spans (> 5%%)\n",
                         loop_pct);
        }

        std::int64_t self_ns[kLayerCount] = {};
        std::uint64_t calls[kLayerCount] = {};
        for (const auto *ranges : {&traced_spans, &probe_spans})
            if (!tr.add_best_self_times(*ranges, self_ns, calls))
                t.fail("traced passes recorded different call sequences");
        const auto mean_us = [&](std::initializer_list<Layer> layers) {
            std::int64_t ns = 0;
            std::uint64_t n = 0;
            for (Layer l : layers) {
                ns += self_ns[l];
                n += calls[l];
            }
            return n ? double(ns) * 1e-3 / double(n) : 0.0;
        };
        // run() derives its report internally; the second report() call
        // measures that share so it can be taken out of core.run.
        const double report_us = mean_us({kReport});
        const double run_us = mean_us({kRun}) - report_us;
        std::printf("layer self time (us per call, min over passes, traced "
                    "jobs=1):\n");
        for (int l = 0; l < kLayerCount; ++l)
            std::printf("  %-16s %10.3f  calls=%llu\n", kLayerName[l],
                        mean_us({Layer(l)}),
                        (unsigned long long)calls[l]);

        metrics = {
            {"workload.draw_us", mean_us({kDraw}), "us"},
            {"core.setup_us", mean_us({kSetup}), "us"},
            {"core.run_us", run_us, "us"},
            {"sim.ns_per_event", run_us * 1e3 / events_per_session, "ns"},
            {"sim.events_per_session", events_per_session, "count"},
            {"metrics.report_us", report_us, "us"},
            {"core.teardown_us", mean_us({kTeardown}), "us"},
            {"harness.fold_us", mean_us({kFold}), "us"},
            {"obs.observe_us", mean_us({kObserve}), "us"},
            {"harness.sink_us",
             double(sink_time.ns) * 1e-3 /
                 double(std::max<std::uint64_t>(1, sink_time.delivered)),
             "us"},
            {"sessions_per_s_par", par_rate, "1/s"},
            {"harness.par_efficiency",
             par_rate / (double(runner.jobs()) * serial_rate), "ratio"},
            {"trace.capture_us", mean_us({kCapture}), "us"},
            {"trace.encode_us", mean_us({kEncode}), "us"},
            {"trace.bytes_per_session",
             double(t.capture_bytes) /
                 double(std::max<std::uint64_t>(1, t.captures)),
             "bytes"},
            {"trace.decode_us", mean_us({kDecode}), "us"},
            {"trace.replay_us", mean_us({kReplay}), "us"},
            {"trace.verify_us", mean_us({kVerify}), "us"},
            {"surface.replay_us", mean_us({kSurfaceReplay}), "us"},
            {"bench.loop_us", mean_us({kSession, kCorpus, kProbe}), "us"},
            // Traced slices also hold the second report() call; without
            // it they do exactly the work of the untraced slices.
            {"trace.overhead_ratio",
             (sum_s(best_slices(traced.passes)) -
              report_us * 1e-6 * double(spec.pass)) /
                 sum_s(best),
             "ratio"},
            {"trace.coverage_pct", coverage, "%"},
        };
        std::printf("traced: %zu passes + %zu probe passes, %zu spans, "
                    "coverage %.2f%% of %.3f s, bench loop %.2f%% of root "
                    "spans\n",
                    traced.passes.size(), probe.passes.size(),
                    tr.spans().size(), coverage, traced_wall, loop_pct);
        if (!a.spans_out.empty()) {
            char header[160];
            std::snprintf(header, sizeof header,
                          "perfbench spans workload=%s seed=%llu",
                          spec.name, (unsigned long long)a.seed);
            if (!tr.write(a.spans_out, header))
                t.fail("cannot write the span dump");
        }
    }

    std::printf("fingerprint: %016llx (aggregator+observatory JSON over "
                "%llu sessions)\n",
                (unsigned long long)fingerprint,
                (unsigned long long)spec.pass);
    std::printf("corpus fingerprint: %016llx (replayed reports of %zu "
                "corpus entries)\n",
                (unsigned long long)corpus_fingerprint, b.corpus.size());
    std::printf("events per session: %.6f\n", events_per_session);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                t.failed == 0 ? "true" : "false",
                (unsigned long long)t.ops, (unsigned long long)t.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit);
    std::printf("}, \"info\": {\"fingerprint\": \"%016llx\", "
                "\"corpus_fingerprint\": \"%016llx\", "
                "\"events_per_session\": %.17g, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"jobs\": %d}}\n",
                (unsigned long long)fingerprint,
                (unsigned long long)corpus_fingerprint, events_per_session,
                DVS_BENCH_COMPILER, DVS_BENCH_BUILD_TYPE, runner.jobs());
    return 0;
}
