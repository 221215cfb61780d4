#include "display/hw_vsync.h"

#include <algorithm>

#include "sim/logging.h"

namespace dvs {

HwVsyncGenerator::HwVsyncGenerator(Simulator &sim, double rate_hz,
                                   Time first_edge)
    : sim_(sim), timing_(rate_hz, first_edge), next_edge_(first_edge)
{
    // A single-app device registers its panel, the software distributor
    // and, under D-VSync, the DTV.
    listeners_.reserve(4);
}

void
HwVsyncGenerator::set_jitter(Time stddev, Rng *rng)
{
    if (stddev < 0)
        fatal("vsync jitter stddev must be >= 0, got %lld",
              (long long)stddev);
    if (stddev > 0 && !rng)
        fatal("vsync jitter needs an RNG when stddev > 0");
    jitter_stddev_ = stddev;
    jitter_rng_ = rng;
}

void
HwVsyncGenerator::set_end_of_edge(Listener fn)
{
    if (end_of_edge_)
        fatal("a vsync generator takes one end-of-edge hook");
    end_of_edge_ = std::move(fn);
}

void
HwVsyncGenerator::start()
{
    if (running_)
        return;
    running_ = true;
    // A restart after stop() may find the scheduled edge in the past
    // (screen-off): resume on the grid at the next edge from now.
    if (next_edge_ < sim_.now())
        next_edge_ = timing_.next_edge_after(sim_.now());
    sim_.events().schedule(jittered(next_edge_), [this] { emit_edge(); },
                           EventPriority::kDisplay);
}

Time
HwVsyncGenerator::jittered(Time ideal) const
{
    if (jitter_stddev_ <= 0 || !jitter_rng_)
        return ideal;
    const double draw = jitter_rng_->normal(0.0, double(jitter_stddev_));
    const double bound = 3.0 * double(jitter_stddev_);
    Time t = ideal + Time(std::clamp(draw, -bound, bound));
    // Never emit before "now" or before the previous edge.
    return std::max(t, sim_.now());
}

void
HwVsyncGenerator::stop()
{
    running_ = false;
}

void
HwVsyncGenerator::emit_edge()
{
    if (!running_)
        return;

    const Time now = sim_.now();
    const Time ideal = next_edge_;
    VsyncEdge edge{now, edge_index_++, timing_.rate_hz()};

    // Decide the rate for the period that starts at this edge, *before*
    // notifying listeners, so the edge they see carries the rate that
    // will govern the display duration of whatever is latched now.
    double new_rate = 0.0;
    if (rate_policy_)
        new_rate = rate_policy_(edge);
    if (new_rate == 0.0 && requested_rate_ != 0.0) {
        new_rate = requested_rate_;
        requested_rate_ = 0.0;
    }
    if (new_rate != 0.0 && new_rate != timing_.rate_hz()) {
        // Anchor the new grid at the ideal edge so jitter does not skew
        // the timing base.
        timing_.set_rate(new_rate, ideal);
        edge.rate_hz = new_rate;
    }

    // An edge-loss fault suppresses this edge's notifications (the panel
    // misses the refresh) but never the grid: the next edge still comes.
    const bool notified = !edge_fault_ || !edge_fault_(edge);
    if (notified) {
        for (auto &fn : listeners_)
            fn(edge);
    }

    Time step = timing_.period();
    if (period_scale_) {
        const double scale = period_scale_(now);
        if (scale > 0.0 && scale != 1.0)
            step = Time(double(step) * scale);
    }
    next_edge_ = ideal + step;
    sim_.events().schedule(jittered(next_edge_), [this] { emit_edge(); },
                           EventPriority::kDisplay);

    if (notified && end_of_edge_)
        end_of_edge_(edge);
}

} // namespace dvs
