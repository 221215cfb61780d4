#include "workload/scenario_script.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "input/gesture.h"
#include "workload/app_profiles.h"

namespace dvs {
namespace {

/** Most copies one `repeat` block may expand to. */
constexpr int kMaxRepeat = 10'000;

/** One tokenized script line. */
struct Line {
    int number = 0;
    std::vector<std::string> words;
    std::map<std::string, std::string> args; // key=value pairs
};

std::vector<Line>
tokenize(const std::string &text)
{
    std::vector<Line> lines;
    std::istringstream in(text);
    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) {
        ++number;
        const auto hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        std::istringstream ls(raw);
        Line line;
        line.number = number;
        std::string word;
        while (ls >> word) {
            const auto eq = word.find('=');
            if (eq != std::string::npos && eq > 0) {
                line.args[word.substr(0, eq)] = word.substr(eq + 1);
            } else {
                line.words.push_back(word);
            }
        }
        if (!line.words.empty() || !line.args.empty())
            lines.push_back(std::move(line));
    }
    return lines;
}

/** Parse "350ms" / "1.5s" / "200us" into nanoseconds; 0 on failure. */
Time
parse_duration(const std::string &s)
{
    static const std::map<std::string, double> kNsPer = {
        {"", 1.0}, {"ns", 1.0}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}};
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    const auto unit = kNsPer.find(end);
    if (end == s.c_str() || unit == kNsPer.end() ||
        !duration_fits(v * unit->second))
        return 0;
    return Time(v * unit->second);
}

/** Parse all of @p word as a @p T; false on an error or leftover text. */
template <typename T>
bool
parse_whole(const std::string &word, T *out)
{
    const char *end = word.data() + word.size();
    const auto [ptr, ec] = std::from_chars(word.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

/** The number under @p key, or @p fallback when absent; handle() has
 *  already checked that every present numeric value parses. */
double
arg_num(const Line &line, const std::string &key, double fallback)
{
    auto it = line.args.find(key);
    double v = fallback;
    if (it != line.args.end())
        parse_whole(it->second, &v);
    return v;
}

std::string
arg_str(const Line &line, const std::string &key,
        const std::string &fallback)
{
    auto it = line.args.find(key);
    return it == line.args.end() ? fallback : it->second;
}

/** The cost knobs of a segment line, each defaulted when absent. */
ProfileSpec
cost_spec(const Line &line)
{
    ProfileSpec spec;
    spec.name = arg_str(line, "label", "script");
    spec.short_mean_periods = arg_num(line, "mean", 0.45);
    spec.short_sigma = arg_num(line, "sigma", 0.30);
    spec.heavy_per_sec = arg_num(line, "heavy_rate", 0.0);
    spec.heavy_min_periods = arg_num(line, "heavy_min", 1.2);
    spec.heavy_max_periods = arg_num(line, "heavy_max", 3.0);
    spec.heavy_alpha = arg_num(line, "alpha", 1.5);
    spec.heavy_burst = arg_num(line, "burst", 0.1);
    spec.ui_fraction = arg_num(line, "ui", 0.2);
    return spec;
}

/** Why @p spec cannot make a cost model, or null when it can. */
const char *
cost_spec_error(const ProfileSpec &s)
{
    if (s.short_mean_periods <= 0)
        return "mean= must be > 0";
    if (s.short_sigma < 0)
        return "sigma= must be >= 0";
    if (s.heavy_per_sec < 0)
        return "heavy_rate= must be >= 0";
    if (s.heavy_alpha <= 0)
        return "alpha= must be > 0";
    if (s.heavy_min_periods >= s.heavy_max_periods)
        return "heavy_min= must be < heavy_max=";
    if (s.heavy_burst < 0 || s.heavy_burst > 1)
        return "burst= must be in [0, 1]";
    if (s.ui_fraction < 0 || s.ui_fraction > 1)
        return "ui= must be in [0, 1]";
    return nullptr;
}

/** Keys whose value is a number; each must be finite. */
constexpr const char *kNumericArgs[] = {
    "seed",  "mean", "sigma", "heavy_rate", "heavy_min", "heavy_max",
    "alpha", "burst", "ui",   "noise",      "from",      "travel"};

struct Parser {
    ScenarioScript out;
    std::uint64_t gesture_seed = 99;

    bool
    fail(const Line &line, const std::string &message)
    {
        out.ok = false;
        out.error = message;
        out.error_line = line.number;
        return false;
    }

    /** The cost model of a segment line, or null after fail(). */
    std::shared_ptr<const FrameCostModel>
    cost_model(const Line &line)
    {
        const ProfileSpec spec = cost_spec(line);
        if (const char *error = cost_spec_error(spec)) {
            fail(line, error);
            return nullptr;
        }
        const std::uint64_t seed =
            line.args.count("seed")
                ? std::uint64_t(arg_num(line, "seed", 0.0))
                : out.seed;
        return make_cost_model(spec, out.device.refresh_hz, seed);
    }

    bool
    handle(const Line &line)
    {
        const std::string &cmd = line.words[0];
        for (const char *key : kNumericArgs) {
            const auto it = line.args.find(key);
            double v = 0.0;
            if (it != line.args.end() &&
                (!parse_whole(it->second, &v) || !std::isfinite(v)))
                return fail(line, std::string(key) +
                                      "= needs a finite number");
        }
        const double seed = arg_num(line, "seed", 0.0);
        if (seed < 0.0 || seed >= 0x1p64)
            return fail(line, "seed= needs a number in [0, 2^64)");
        if (cmd == "device") {
            if (line.words.size() < 2)
                return fail(line, "device needs a name");
            const std::string &name = line.words[1];
            if (name == "pixel5")
                out.device = pixel5();
            else if (name == "mate40pro")
                out.device = mate40_pro();
            else if (name == "mate60pro")
                out.device = mate60_pro();
            else
                return fail(line, "unknown device '" + name + "'");
            return true;
        }
        if (cmd == "seed") {
            std::uint64_t seed = 0;
            if (line.words.size() < 2 || !parse_whole(line.words[1], &seed))
                return fail(line, "seed needs an integer in [0, 2^64)");
            out.seed = seed;
            return true;
        }
        if (cmd == "idle") {
            const Time d =
                line.words.size() > 1 ? parse_duration(line.words[1]) : 0;
            if (d <= 0)
                return fail(line, "idle needs a positive duration");
            out.scenario.idle(d);
            return true;
        }
        if (cmd == "animate" || cmd == "realtime") {
            const Time d =
                line.words.size() > 1 ? parse_duration(line.words[1]) : 0;
            if (d <= 0)
                return fail(line, cmd + " needs a positive duration");
            auto cost = cost_model(line);
            if (!cost)
                return false;
            const std::string label = arg_str(line, "label", cmd);
            if (cmd == "animate")
                out.scenario.animate(d, cost, label);
            else
                out.scenario.realtime(d, cost, label);
            return true;
        }
        if (cmd == "interact") {
            if (line.words.size() < 3)
                return fail(line,
                            "interact needs a gesture and a duration");
            const std::string &gesture = line.words[1];
            const Time d = parse_duration(line.words[2]);
            if (d <= 0)
                return fail(line, "interact needs a positive duration");
            auto cost = cost_model(line);
            if (!cost)
                return false;

            GestureTiming timing;
            timing.duration = d;
            timing.noise_px = arg_num(line, "noise", 0.0);
            Rng noise(gesture_seed++);
            const double from = arg_num(line, "from", 1000.0);
            const double travel = arg_num(line, "travel", 800.0);

            TouchStream stream;
            if (gesture == "swipe")
                stream = make_swipe(timing, from, travel, &noise);
            else if (gesture == "drag")
                stream = make_drag(timing, from, travel, &noise);
            else if (gesture == "pinch")
                stream = make_pinch(timing, from, from + travel, &noise);
            else
                return fail(line, "unknown gesture '" + gesture + "'");

            out.scenario.interact(
                std::make_shared<TouchStream>(std::move(stream)),
                std::move(cost),
                arg_str(line, "label", gesture));
            return true;
        }
        return fail(line, "unknown command '" + cmd + "'");
    }
};

} // namespace

ScenarioScript
parse_scenario_script(const std::string &text)
{
    Parser parser;
    parser.out.device = pixel5();
    parser.out.scenario = Scenario("script");
    parser.out.ok = true;

    const std::vector<Line> lines = tokenize(text);

    // Expand `repeat N ... end` blocks (non-nested) first.
    std::vector<Line> expanded;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].words[0] == "repeat") {
            int count = 0;
            if (lines[i].words.size() < 2 ||
                !parse_whole(lines[i].words[1], &count) || count <= 0 ||
                count > kMaxRepeat) {
                parser.fail(lines[i], "repeat needs a count in [1, " +
                                          std::to_string(kMaxRepeat) + "]");
                return parser.out;
            }
            std::vector<Line> body;
            std::size_t j = i + 1;
            for (; j < lines.size() && lines[j].words[0] != "end"; ++j)
                body.push_back(lines[j]);
            if (j == lines.size()) {
                parser.fail(lines[i], "repeat without matching end");
                return parser.out;
            }
            for (int k = 0; k < count; ++k)
                expanded.insert(expanded.end(), body.begin(), body.end());
            i = j; // skip past `end`
        } else if (lines[i].words[0] == "end") {
            parser.fail(lines[i], "end without repeat");
            return parser.out;
        } else {
            expanded.push_back(lines[i]);
        }
    }

    for (const Line &line : expanded) {
        if (!parser.handle(line))
            return parser.out;
    }
    if (parser.out.scenario.empty())
        parser.out.error = "script produced no segments";
    parser.out.ok = !parser.out.scenario.empty();
    return parser.out;
}

ScenarioScript
load_scenario_script(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        ScenarioScript out;
        out.ok = false;
        out.error = "cannot open " + path;
        return out;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_scenario_script(buf.str());
}

} // namespace dvs
