#include "governor/governor.h"

#include <algorithm>

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
Governor::install(Simulator &sim, const SensorSource &sensors,
                  Time interval)
{
    if (installed_)
        fatal("Governor installed twice");
    if (interval <= 0)
        fatal("governor control interval must be > 0");
    installed_ = true;
    sensors_ = &sensors;
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

GovernorSensors
Governor::read_sensors(Time now)
{
    GovernorSensors s;
    if (!sensors_)
        return s;
    s.temp_c = sensors_->temp_c(now);
    const double mj = sensors_->gpu_mj();
    const double drops = double(sensors_->drops());
    if (have_prev_) {
        if (now > prev_at_) {
            // mJ per second of simulated time is exactly mW.
            s.rate_mw = (mj - prev_mj_) / to_seconds(now - prev_at_);
            s.rate_sensed = true;
        }
        s.new_drops = drops - prev_drops_;
    }
    have_prev_ = true;
    prev_at_ = now;
    prev_mj_ = mj;
    prev_drops_ = drops;
    return s;
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
Governor::step(Time now, int to, const GovernorSensors &s)
{
    const int from = rung_;
    if (to > from) {
        ++demotions_;
        // Exponential re-promotion backoff: demoting again soon after the
        // last demotion means the previous promotion was premature —
        // double the calm streak the next promotion must earn.
        if (last_demote_ != kTimeNone && now - last_demote_ <= kBackoffWindow)
            backoff_ = std::min(backoff_ * 2, kBackoffCap);
        else
            backoff_ = 1;
        last_demote_ = now;
        rung_ = to;
        apply(to, true, now);
    } else {
        ++promotions_;
        apply(from, false, now);
        rung_ = to;
    }
    pressure_streak_ = 0;
    calm_streak_ = 0;
    Transition &t = transitions_.emplace_back();
    t.at = now;
    t.source = Transition::Source::kGovernor;
    t.from = from;
    t.to = to;
    t.backoff = backoff_;
    t.sensors = s;
}

void
Governor::tick(Time now)
{
    ++ticks_;
    const GovernorSensors s = read_sensors(now);
    if (ticks_ == 1)
        return; // first tick only primes the differentiated sensors

    const bool pressure = s.temp_c >= demote_c_;
    const bool calm = s.temp_c <= calm_c_ && s.new_drops <= 0.0;

    if (pressure) {
        calm_streak_ = 0;
        ++pressure_streak_;
        if (rung_ < max_rung_ && pressure_streak_ >= kHoldTicks)
            step(now, rung_ + 1, s);
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
    step(now, rung_ - 1, s);
}

} // namespace dvs
