/**
 * @file
 * dvsync_inspect: read a frame-forensics dump and explain it.
 *
 * Input is the JSON written by RenderSystem::save_forensics (or
 * `chaos_campaign --forensics=PATH`). The tool prints the run header, the per-cause
 * drop breakdown, the dropped refreshes with their attributed causes,
 * and the top-k worst frames by present latency — each with its full
 * causal span chain (input → UI → render → GPU → queue → display).
 *
 * Usage: dvsync_inspect DUMP.json [--top=K] [--golden]
 *        dvsync_inspect --diff A.json B.json [--top=K]
 *        dvsync_inspect --metrics=DUMP.json
 *        dvsync_inspect --specimens=DIR
 *   --top=K    how many worst frames / drops to detail (default 5)
 *   --golden   golden-check mode; output is already deterministic, the
 *              flag only asserts no environment-dependent lines sneak in
 *   --diff     compare two dumps (e.g. the same trace replayed before
 *              and after a change, or under VSync vs D-VSync): per-cause
 *              drop deltas, frames whose presentation fate flipped, and
 *              the frames whose latency diverged most, with both causal
 *              chains printed side by side
 *   --metrics  dump the MetricsRegistry time series embedded in a
 *              forensics dump as CSV on stdout: one `t_ns` column plus
 *              one column per counter/gauge series, rows over the union
 *              of sample timestamps (histograms have no time axis and
 *              are skipped)
 *   --specimens list an observatory specimen directory: parse its
 *              manifest.json, print each captured offender (rank,
 *              session, score, cohort, violated SLOs, drop causes), and
 *              verify every listed .dvst file is present on disk
 *
 * Exits nonzero when a dump cannot be read or parsed, when a specimen
 * manifest references a missing .dvst file, or (single-dump mode) when
 * any drop in it carries an unknown cause — a fully wired system must
 * attribute every drop, so an unknown-cause dump is a regression.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/drop_cause.h"
#include "obs/json_view.h"

using namespace dvs;

namespace {

double
ms(double ns)
{
    return ns / 1e6;
}

struct RankedFrame {
    const JsonValue *frame = nullptr;
    const JsonValue *surface = nullptr;
    double latency_ns = 0.0;
};

void
print_chain(const JsonValue &frame)
{
    for (const JsonValue &s : frame.at("spans").items()) {
        const double t0 = s.number_at("t0");
        const double t1 = s.number_at("t1", -1.0);
        if (t1 >= t0) {
            std::printf("      %-15s @%9.3fms  +%8.3fms\n",
                        s.string_at("stage").c_str(), ms(t0),
                        ms(t1 - t0));
        } else {
            std::printf("      %-15s @%9.3fms  +open\n",
                        s.string_at("stage").c_str(), ms(t0));
        }
    }
}

std::string
frame_title(const JsonValue &frame, const JsonValue &surface)
{
    char buf[128];
    const std::string name = surface.string_at("name");
    std::snprintf(buf, sizeof(buf), "%s%sframe %lld.%lld%s", name.c_str(),
                  name.empty() ? "" : " ",
                  (long long)frame.number_at("seg"),
                  (long long)frame.number_at("slot"),
                  frame.at("pre").as_bool() ? " (pre)" : "");
    return buf;
}

/** Load + validate a forensics dump; exits on failure. */
JsonValue
load_dump(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "dvsync_inspect: cannot open %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    JsonValue dump = JsonValue::parse(text.str(), &error);
    if (dump.is_null()) {
        std::fprintf(stderr, "dvsync_inspect: parse error in %s: %s\n",
                     path.c_str(), error.c_str());
        std::exit(1);
    }
    if (dump.string_at("source") != "dvsync-forensics") {
        std::fprintf(stderr,
                     "dvsync_inspect: %s is not a forensics dump "
                     "(source=%s)\n",
                     path.c_str(), dump.string_at("source", "?").c_str());
        std::exit(1);
    }
    return dump;
}

/** A frame's identity across two dumps of the same workload. */
struct FrameKey {
    std::string surface;
    long long seg = 0;
    long long slot = 0;

    bool operator<(const FrameKey &o) const
    {
        if (surface != o.surface)
            return surface < o.surface;
        if (seg != o.seg)
            return seg < o.seg;
        return slot < o.slot;
    }
};

struct FrameFate {
    const JsonValue *frame = nullptr;
    const JsonValue *surface = nullptr;
    bool presented = false;
    double latency_ns = -1.0; ///< present - timeline, when presented
};

std::map<FrameKey, FrameFate>
index_frames(const JsonValue &dump)
{
    std::map<FrameKey, FrameFate> out;
    for (const JsonValue &sf : dump.at("surfaces").items()) {
        const std::string name = sf.string_at("name");
        for (const JsonValue &f : sf.at("frames").items()) {
            FrameKey key{name, (long long)f.number_at("seg"),
                         (long long)f.number_at("slot")};
            FrameFate fate;
            fate.frame = &f;
            fate.surface = &sf;
            const double present = f.number_at("present", -1.0);
            const double timeline = f.number_at("timeline", -1.0);
            fate.presented = present >= 0.0;
            if (present >= 0.0 && timeline >= 0.0)
                fate.latency_ns = present - timeline;
            // Pre-rendered frames can share (seg, slot) with a re-render
            // of the same content; keep the one that reached the screen.
            auto [it, inserted] = out.emplace(key, fate);
            if (!inserted && fate.presented && !it->second.presented)
                it->second = fate;
        }
    }
    return out;
}

void
tally_causes(const JsonValue &dump, std::uint64_t causes[kDropCauseCount])
{
    for (const JsonValue &sf : dump.at("surfaces").items())
        for (int c = 0; c < kDropCauseCount; ++c)
            causes[c] += std::uint64_t(
                sf.at("causes").number_at(to_string(DropCause(c))));
}

int
run_diff(const std::string &path_a, const std::string &path_b, int top)
{
    const JsonValue a = load_dump(path_a);
    const JsonValue b = load_dump(path_b);

    std::printf("diff: A=%s (scenario=%s mode=%s)\n", path_a.c_str(),
                a.string_at("scenario", "?").c_str(),
                a.string_at("mode", "?").c_str());
    std::printf("      B=%s (scenario=%s mode=%s)\n", path_b.c_str(),
                b.string_at("scenario", "?").c_str(),
                b.string_at("mode", "?").c_str());

    // ----- per-cause drop deltas --------------------------------------
    std::uint64_t causes_a[kDropCauseCount] = {};
    std::uint64_t causes_b[kDropCauseCount] = {};
    tally_causes(a, causes_a);
    tally_causes(b, causes_b);
    std::uint64_t drops_a = 0, drops_b = 0;
    for (int c = 0; c < kDropCauseCount; ++c) {
        drops_a += causes_a[c];
        drops_b += causes_b[c];
    }
    std::printf("\ndrop causes (A -> B):\n");
    std::printf("  %-15s %6s %6s %7s\n", "cause", "A", "B", "delta");
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (causes_a[c] == 0 && causes_b[c] == 0)
            continue;
        std::printf("  %-15s %6llu %6llu %+7lld\n",
                    to_string(DropCause(c)),
                    (unsigned long long)causes_a[c],
                    (unsigned long long)causes_b[c],
                    (long long)causes_b[c] - (long long)causes_a[c]);
    }
    std::printf("  %-15s %6llu %6llu %+7lld\n", "total",
                (unsigned long long)drops_a, (unsigned long long)drops_b,
                (long long)drops_b - (long long)drops_a);

    // ----- presentation-fate flips ------------------------------------
    const std::map<FrameKey, FrameFate> frames_a = index_frames(a);
    const std::map<FrameKey, FrameFate> frames_b = index_frames(b);

    std::vector<const FrameKey *> gained, lost, only_a, only_b;
    struct Diverged {
        const FrameKey *key;
        const FrameFate *a;
        const FrameFate *b;
        double delta_ns;
    };
    std::vector<Diverged> diverged;
    for (const auto &[key, fa] : frames_a) {
        const auto it = frames_b.find(key);
        if (it == frames_b.end()) {
            only_a.push_back(&key);
            continue;
        }
        const FrameFate &fb = it->second;
        if (fa.presented != fb.presented) {
            (fb.presented ? gained : lost).push_back(&key);
        } else if (fa.latency_ns >= 0.0 && fb.latency_ns >= 0.0 &&
                   fa.latency_ns != fb.latency_ns) {
            diverged.push_back(
                Diverged{&key, &fa, &fb, fb.latency_ns - fa.latency_ns});
        }
    }
    for (const auto &[key, fb] : frames_b) {
        if (!frames_a.count(key))
            only_b.push_back(&key);
    }

    std::printf("\nframes: %zu in A, %zu in B (%zu only in A, %zu only "
                "in B)\n",
                frames_a.size(), frames_b.size(), only_a.size(),
                only_b.size());
    std::printf("fate flips: %zu presented in B but not A, %zu presented "
                "in A but not B\n",
                gained.size(), lost.size());
    const auto list_keys = [&](const char *title,
                               const std::vector<const FrameKey *> &keys) {
        if (keys.empty())
            return;
        std::printf("  %s:", title);
        int shown = 0;
        for (const FrameKey *k : keys) {
            if (shown++ >= top) {
                std::printf(" ...");
                break;
            }
            std::printf(" %s%s%lld.%lld", k->surface.c_str(),
                        k->surface.empty() ? "" : "/", k->seg, k->slot);
        }
        std::printf("\n");
    };
    list_keys("newly presented", gained);
    list_keys("newly dropped", lost);

    // ----- worst latency divergence, chains side by side --------------
    std::stable_sort(diverged.begin(), diverged.end(),
                     [](const Diverged &x, const Diverged &y) {
                         return std::abs(x.delta_ns) > std::abs(y.delta_ns);
                     });
    if (diverged.size() > std::size_t(top))
        diverged.resize(std::size_t(top));
    std::printf("\nlargest latency divergence (A -> B), top %d:\n", top);
    for (std::size_t i = 0; i < diverged.size(); ++i) {
        const Diverged &d = diverged[i];
        std::printf("  #%zu %s latency %.3fms -> %.3fms (%+.3fms)\n",
                    i + 1,
                    frame_title(*d.a->frame, *d.a->surface).c_str(),
                    ms(d.a->latency_ns), ms(d.b->latency_ns),
                    ms(d.delta_ns));
        std::printf("    chain in A:\n");
        print_chain(*d.a->frame);
        std::printf("    chain in B:\n");
        print_chain(*d.b->frame);
    }
    if (diverged.empty())
        std::printf("  (no shared presented frames diverged)\n");
    return 0;
}

/** `--metrics=DUMP.json`: the registry time series as CSV on stdout. */
int
run_metrics_csv(const std::string &path)
{
    const JsonValue dump = load_dump(path);
    const JsonValue &metrics = dump.at("metrics");
    if (!metrics.is_object()) {
        std::fprintf(stderr, "dvsync_inspect: %s carries no metrics block\n",
                     path.c_str());
        return 1;
    }

    // Counter/gauge series only: histograms are distributions, not time
    // series, so they have no row in a timestamp-keyed table.
    struct Series {
        const JsonValue *metric = nullptr;
        std::map<long long, double> by_time;
    };
    std::vector<Series> series;
    std::map<long long, std::size_t> times; // timestamp -> row ordinal
    for (const JsonValue &m : metrics.at("metrics").items()) {
        if (m.string_at("type") == "histogram")
            continue;
        Series s;
        s.metric = &m;
        for (const JsonValue &sample : m.at("samples").items()) {
            const std::vector<JsonValue> &pair = sample.items();
            if (pair.size() != 2)
                continue;
            const long long t = (long long)pair[0].as_number();
            s.by_time[t] = pair[1].as_number();
            times.emplace(t, 0);
        }
        series.push_back(std::move(s));
    }

    std::printf("t_ns");
    for (const Series &s : series)
        std::printf(",%s", s.metric->string_at("name").c_str());
    std::printf("\n");
    for (const auto &[t, unused] : times) {
        (void)unused;
        std::printf("%lld", t);
        for (const Series &s : series) {
            const auto it = s.by_time.find(t);
            if (it == s.by_time.end())
                std::printf(",");
            else
                std::printf(",%.10g", it->second);
        }
        std::printf("\n");
    }
    std::fprintf(stderr, "dvsync_inspect: %zu series, %zu rows\n",
                 series.size(), times.size());
    return 0;
}

/** `--specimens=DIR`: list an observatory capture directory. */
int
run_specimens(const std::string &dir)
{
    const std::string manifest_path = dir + "/manifest.json";
    std::ifstream in(manifest_path);
    if (!in) {
        std::fprintf(stderr, "dvsync_inspect: cannot open %s\n",
                     manifest_path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const JsonValue manifest = JsonValue::parse(text.str(), &error);
    if (manifest.is_null()) {
        std::fprintf(stderr, "dvsync_inspect: parse error in %s: %s\n",
                     manifest_path.c_str(), error.c_str());
        return 1;
    }
    if (manifest.string_at("source") != "dvsync-observatory") {
        std::fprintf(stderr,
                     "dvsync_inspect: %s is not an observatory manifest "
                     "(source=%s)\n",
                     manifest_path.c_str(),
                     manifest.string_at("source", "?").c_str());
        return 1;
    }

    const std::vector<JsonValue> &specimens =
        manifest.at("specimens").items();
    std::printf("observatory specimens: %s (%zu captured, schema %lld)\n",
                dir.c_str(), specimens.size(),
                (long long)manifest.number_at("schema"));

    int missing = 0;
    for (const JsonValue &sp : specimens) {
        const std::string file = sp.string_at("file");
        const std::string path = dir + "/" + file;
        std::ifstream probe(path, std::ios::binary);
        const bool present = bool(probe);
        if (!present)
            ++missing;

        std::string slos;
        for (const JsonValue &name : sp.at("slos").items()) {
            if (!slos.empty())
                slos += ", ";
            slos += name.as_string();
        }
        std::printf("  #%lld session %llu  score %.3f  cohort %s%s\n",
                    (long long)sp.number_at("rank"),
                    (unsigned long long)sp.number_at("session"),
                    sp.number_at("score_milli") / 1000.0,
                    sp.string_at("cohort", "?").c_str(),
                    present ? "" : "  [MISSING FILE]");
        std::printf("      file %s  slos [%s]  drops %llu/%lld  "
                    "stutters %llu  p99 %.2fms\n",
                    file.c_str(), slos.c_str(),
                    (unsigned long long)sp.number_at("drops"),
                    (long long)sp.number_at("frames_due"),
                    (unsigned long long)sp.number_at("stutters"),
                    sp.number_at("latency_p99_ms"));
        const JsonValue &causes = sp.at("drop_causes");
        if (causes.is_object()) {
            std::string breakdown;
            char buf[64];
            for (int c = 0; c < kDropCauseCount; ++c) {
                const char *name = to_string(DropCause(c));
                if (!causes.has(name))
                    continue;
                std::snprintf(buf, sizeof(buf), "%s%s %llu",
                              breakdown.empty() ? "" : ", ", name,
                              (unsigned long long)causes.number_at(name));
                breakdown += buf;
            }
            if (!breakdown.empty())
                std::printf("      drop causes: %s\n", breakdown.c_str());
        }
    }
    if (missing > 0) {
        std::fprintf(stderr,
                     "dvsync_inspect: %d specimen file(s) listed in %s "
                     "are missing on disk\n",
                     missing, manifest_path.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args(argc, argv);
    const int top = args.int_flag("top", 5);
    args.bool_flag("golden"); // output is deterministic either way
    const bool diff = args.bool_flag("diff");
    const std::string metrics_path = args.string_flag("metrics");
    const std::string specimens_dir = args.string_flag("specimens");
    const bool standalone = !metrics_path.empty() || !specimens_dir.empty();
    const std::vector<std::string> paths =
        standalone ? std::vector<std::string>()
                   : args.positional(diff ? 2 : 1);
    args.finish();
    if (top < 1 || (!standalone && paths.size() != (diff ? 2u : 1u)) ||
        (standalone && diff) ||
        (!metrics_path.empty() && !specimens_dir.empty())) {
        std::fprintf(stderr,
                     "usage: dvsync_inspect DUMP.json [--top=K] "
                     "[--golden]\n"
                     "       dvsync_inspect --diff A.json B.json "
                     "[--top=K]\n"
                     "       dvsync_inspect --metrics=DUMP.json\n"
                     "       dvsync_inspect --specimens=DIR\n");
        return 2;
    }
    if (!metrics_path.empty())
        return run_metrics_csv(metrics_path);
    if (!specimens_dir.empty())
        return run_specimens(specimens_dir);
    if (diff)
        return run_diff(paths[0], paths[1], top);
    const std::string path = paths.front();

    const JsonValue dump = load_dump(path);

    const std::vector<JsonValue> &surfaces = dump.at("surfaces").items();

    // ----- header + aggregate cause breakdown -------------------------
    std::uint64_t frames = 0, presents = 0;
    std::uint64_t causes[kDropCauseCount] = {};
    std::uint64_t drops = 0, injected = 0;
    for (const JsonValue &sf : surfaces) {
        for (const JsonValue &f : sf.at("frames").items()) {
            ++frames;
            if (f.number_at("present", -1.0) >= 0.0)
                ++presents;
        }
        for (int c = 0; c < kDropCauseCount; ++c) {
            const std::uint64_t n = std::uint64_t(
                sf.at("causes").number_at(to_string(DropCause(c))));
            causes[c] += n;
            drops += n;
        }
        injected += std::uint64_t(sf.number_at("injected_drops"));
    }

    std::printf("forensics: scenario=%s mode=%s surfaces=%zu\n",
                dump.string_at("scenario", "?").c_str(),
                dump.string_at("mode", "?").c_str(), surfaces.size());
    std::printf("frames=%llu presented=%llu dropped_refreshes=%llu "
                "(injected %llu)\n",
                (unsigned long long)frames, (unsigned long long)presents,
                (unsigned long long)drops, (unsigned long long)injected);

    std::printf("\ndrop causes:\n");
    std::printf("  %-15s %6s %7s\n", "cause", "count", "share");
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (causes[c] == 0)
            continue;
        std::printf("  %-15s %6llu %6.1f%%\n", to_string(DropCause(c)),
                    (unsigned long long)causes[c],
                    drops ? 100.0 * double(causes[c]) / double(drops)
                          : 0.0);
    }
    if (drops == 0)
        std::printf("  (no drops)\n");

    // ----- dropped refreshes, worst-first -----------------------------
    if (drops > 0) {
        std::printf("\ndropped refreshes (first %d):\n", top);
        int shown = 0;
        for (const JsonValue &sf : surfaces) {
            for (const JsonValue &d : sf.at("drops").items()) {
                if (shown++ >= top)
                    break;
                std::printf("  @%9.3fms refresh=%-4lld cause=%s%s",
                            ms(d.number_at("t")),
                            (long long)d.number_at("refresh"),
                            d.string_at("cause").c_str(),
                            d.at("injected").as_bool() ? " (injected)"
                                                       : "");
                const std::string name = sf.string_at("name");
                if (!name.empty())
                    std::printf(" surface=%s", name.c_str());
                std::printf("\n");
            }
        }
    }

    // ----- top-k worst frames by present latency ----------------------
    std::vector<RankedFrame> ranked;
    for (const JsonValue &sf : surfaces) {
        for (const JsonValue &f : sf.at("frames").items()) {
            const double present = f.number_at("present", -1.0);
            const double timeline = f.number_at("timeline", -1.0);
            if (present < 0.0 || timeline < 0.0)
                continue;
            ranked.push_back(RankedFrame{&f, &sf, present - timeline});
        }
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const RankedFrame &a, const RankedFrame &b) {
                         return a.latency_ns > b.latency_ns;
                     });
    if (ranked.size() > std::size_t(top))
        ranked.resize(std::size_t(top));

    std::printf("\nworst presented frames (by latency), top %d:\n", top);
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const RankedFrame &r = ranked[i];
        std::printf("  #%zu %s latency=%.3fms trigger=%.3fms "
                    "present=%.3fms\n",
                    i + 1, frame_title(*r.frame, *r.surface).c_str(),
                    ms(r.latency_ns), ms(r.frame->number_at("trigger")),
                    ms(r.frame->number_at("present")));
        print_chain(*r.frame);
    }
    if (ranked.empty())
        std::printf("  (no presented frames)\n");

    // ----- metrics footer ---------------------------------------------
    const JsonValue &metrics = dump.at("metrics");
    if (metrics.is_object()) {
        const std::vector<JsonValue> &series = metrics.at("metrics").items();
        std::printf("\nmetrics: %zu series", series.size());
        std::size_t samples = 0;
        for (const JsonValue &m : series)
            samples = std::max(samples, m.at("samples").items().size());
        std::printf(", %zu samples at peak cadence\n", samples);
    }

    if (causes[int(DropCause::kUnknown)] > 0) {
        std::fprintf(stderr,
                     "dvsync_inspect: %llu drops carry an unknown cause\n",
                     (unsigned long long)causes[int(DropCause::kUnknown)]);
        return 1;
    }
    return 0;
}
