#include "workload/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/logging.h"

namespace dvs {

std::string
FrameTrace::to_csv() const
{
    std::ostringstream out;
    out << "# trace: " << name << "\n";
    out << "# rate_hz: " << rate_hz << "\n";
    out << "ui_us,render_us,gpu_us\n";
    char buf[96];
    for (const FrameCost &f : frames) {
        std::snprintf(buf, sizeof(buf), "%.3f,%.3f,%.3f\n",
                      to_us(f.ui_time), to_us(f.render_time),
                      to_us(f.gpu_time));
        out << buf;
    }
    return out.str();
}

FrameTrace
FrameTrace::from_csv(const std::string &csv)
{
    FrameTrace t;
    std::istringstream in(csv);
    std::string line;
    long line_no = 0;
    bool saw_header = false;
    bool warned_missing_header = false;
    while (std::getline(in, line)) {
        ++line_no;
        // Tolerate CRLF line endings: getline keeps the '\r' of a
        // Windows-saved trace, which would otherwise turn every line —
        // including the trailing blank one — into a "malformed row".
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line.rfind("# trace: ", 0) == 0) {
            t.name = line.substr(9);
            continue;
        }
        if (line.rfind("# rate_hz: ", 0) == 0) {
            // A capture rate is a finite, positive number and the whole
            // rest of the line; anything else keeps the default.
            const char *last = line.data() + line.size();
            double hz = 0;
            const auto [end, ec] = std::from_chars(line.data() + 11, last, hz);
            if (ec == std::errc() && end == last && std::isfinite(hz) &&
                hz > 0)
                t.rate_hz = hz;
            else
                warn("trace line %ld: bad rate_hz ignored: %s", line_no,
                     line.c_str());
            continue;
        }
        if (line.rfind("ui_us", 0) == 0) {
            saw_header = true;
            continue;
        }
        if (line[0] == '#')
            continue;
        if (!saw_header && !warned_missing_header) {
            warned_missing_header = true;
            warn("trace line %ld: data row before ui_us header", line_no);
        }
        double ui_us = 0, render_us = 0, gpu_us = 0;
        const int fields = std::sscanf(line.c_str(), "%lf,%lf,%lf",
                                       &ui_us, &render_us, &gpu_us);
        // A stage time must be a duration: NaN, negative or huge is not.
        if (fields < 2 || !duration_fits(ui_us * 1e3) ||
            !duration_fits(render_us * 1e3) || !duration_fits(gpu_us * 1e3)) {
            warn("trace line %ld: malformed row ignored: %s", line_no,
                 line.c_str());
            continue;
        }
        t.frames.push_back(FrameCost{from_us(ui_us), from_us(render_us),
                                     from_us(gpu_us)});
    }
    return t;
}

bool
FrameTrace::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << to_csv();
    return bool(out);
}

FrameTrace
FrameTrace::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        warn("cannot open trace file %s", path.c_str());
        return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return from_csv(buf.str());
}

TraceCostModel::TraceCostModel(FrameTrace trace, TraceIndexMode mode)
    : trace_(std::move(trace)), mode_(mode)
{
    if (trace_.frames.empty())
        fatal("TraceCostModel needs a non-empty trace");
}

FrameCost
TraceCostModel::cost_for(std::int64_t nominal_index) const
{
    const std::size_t n = trace_.frames.size();
    if (mode_ == TraceIndexMode::kSegmentSlot) {
        const std::int64_t slot = nominal_index % kCostIndexStride;
        const std::size_t i =
            std::min(std::size_t(slot), n - 1); // clamp past the capture
        return trace_.frames[i];
    }
    const std::size_t i = std::size_t(nominal_index % std::int64_t(n));
    return trace_.frames[i];
}

} // namespace dvs
