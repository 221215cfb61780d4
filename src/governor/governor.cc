#include "governor/governor.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics_registry.h"
#include "sim/logging.h"
#include "sim/simulator.h"

namespace dvs {

Governor::Governor(double throttle_c, GovernorHooks hooks)
    // Engage before the plant trips; calm well below the throttle point.
    : demote_c_(throttle_c - 2.0), calm_c_(throttle_c - 6.0),
      hooks_(std::move(hooks)), max_rung_(hooks_.handoff ? 4 : 3)
{
}

void
Governor::install(Simulator &sim, const MetricsRegistry &registry,
                  Time interval)
{
    if (installed_)
        fatal("Governor installed twice");
    if (interval <= 0)
        fatal("governor control interval must be > 0");
    installed_ = true;
    registry_ = &registry;
    // Self-rescheduling tick at kMetrics priority: it runs after every
    // other event of its tick, so sensor reads see settled state.
    struct Rearm {
        Simulator &sim;
        Governor &gov;
        Time interval;
        void operator()() const
        {
            gov.tick(sim.now());
            sim.events().schedule(sim.now() + interval, Rearm{*this},
                                  EventPriority::kMetrics);
        }
    };
    sim.events().schedule(sim.now() + interval,
                          Rearm{sim, *this, interval},
                          EventPriority::kMetrics);
}

Governor::Sensors
Governor::read_sensors(Time now)
{
    Sensors s;
    if (!registry_)
        return s;
    registry_->read("thermal.temp_c", &s.temp_c);
    double mj = 0.0;
    const bool have_mj = registry_->read("power.gpu_mj", &mj);
    double drops = 0.0;
    registry_->read("stats.drops", &drops);
    if (have_prev_) {
        if (have_mj && now > prev_at_) {
            // mJ per second of simulated time is exactly mW.
            s.rate_mw = (mj - prev_mj_) / to_seconds(now - prev_at_);
            s.have_rate = true;
        }
        s.new_drops = drops - prev_drops_;
    }
    have_prev_ = true;
    prev_at_ = now;
    prev_mj_ = mj;
    prev_drops_ = drops;
    return s;
}

const char *
Governor::rung_name(int rung)
{
    switch (rung) {
      case 0:
        return "nominal";
      case 1:
        return "trim-prerender";
      case 2:
        return "ltpo-cap";
      case 3:
        return "dvfs-cap";
      case 4:
        return "handoff";
    }
    return "?";
}

void
Governor::record(Time now, const char *verb, int from, int to,
                 const Sensors &s)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "t=%lld governor %s %d->%d "
                  "[temp=%.1fC rate=%.0fmW drops=+%.0f backoff=x%d] %s",
                  (long long)now, verb, from, to, s.temp_c,
                  s.have_rate ? s.rate_mw : 0.0, s.new_drops, backoff_,
                  rung_name(to));
    transitions_.push_back(buf);
}

void
Governor::apply(int rung, bool engage, Time now)
{
    switch (rung) {
      case 1:
        if (hooks_.trim_prerender)
            hooks_.trim_prerender(engage);
        break;
      case 2:
        if (hooks_.ltpo_cap)
            hooks_.ltpo_cap(engage);
        break;
      case 3:
        if (hooks_.dvfs_cap)
            hooks_.dvfs_cap(engage);
        break;
      case 4:
        // Handoff is enter-only: the watchdog owns its own recovery,
        // the promotion gate just waits for it (handoff_cleared).
        if (engage && hooks_.handoff)
            hooks_.handoff(now);
        break;
      default:
        break;
    }
}

void
Governor::demote(Time now, const Sensors &s)
{
    const int from = rung_;
    ++rung_;
    ++demotions_;
    // Exponential re-promotion backoff: demoting again soon after the
    // last demotion means the previous promotion was premature — double
    // the calm streak the next promotion must earn.
    if (last_demote_ != kTimeNone && now - last_demote_ <= kBackoffWindow)
        backoff_ = std::min(backoff_ * 2, kBackoffCap);
    else
        backoff_ = 1;
    last_demote_ = now;
    pressure_streak_ = 0;
    calm_streak_ = 0;
    apply(rung_, true, now);
    record(now, "demote", from, rung_, s);
}

void
Governor::promote(Time now, const Sensors &s)
{
    const int from = rung_;
    apply(rung_, false, now);
    --rung_;
    ++promotions_;
    pressure_streak_ = 0;
    calm_streak_ = 0;
    record(now, "promote", from, rung_, s);
}

void
Governor::tick(Time now)
{
    ++ticks_;
    const Sensors s = read_sensors(now);
    if (ticks_ == 1)
        return; // first tick only primes the differentiated sensors

    const bool pressure = s.temp_c >= demote_c_;
    const bool calm = s.temp_c <= calm_c_ && s.new_drops <= 0.0;

    if (pressure) {
        calm_streak_ = 0;
        ++pressure_streak_;
        if (rung_ < max_rung_ && pressure_streak_ >= kHoldTicks)
            demote(now, s);
        return;
    }
    pressure_streak_ = 0;
    if (!calm) {
        calm_streak_ = 0;
        return;
    }
    ++calm_streak_;
    if (rung_ == 0)
        return;
    if (calm_streak_ < kPromoteTicks * backoff_)
        return;
    // Leaving the handoff rung additionally waits for the watchdog to
    // have re-promoted on its own — the governor never yanks a degraded
    // runtime back to D-VSync pacing.
    if (rung_ == 4 && hooks_.handoff_cleared && !hooks_.handoff_cleared())
        return;
    promote(now, s);
}

} // namespace dvs
