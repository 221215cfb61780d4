#include "metrics/power_model.h"

#include <cmath>
#include <limits>

#include "sim/logging.h"

namespace dvs {

double
PowerModel::energy_mj(const RunActivity &a) const
{
    // mW × s = mJ.
    double mj = params_.base_mw * to_seconds(a.wall_time);
    mj += params_.active_mw * to_seconds(a.pipeline_busy);
    mj += dvsync_overhead_mj(a);
    mj += a.gpu_mj;
    return mj;
}

double
PowerModel::dvsync_overhead_mj(const RunActivity &a) const
{
    if (!a.dvsync_on)
        return 0.0;
    double mj = params_.little_mw *
                to_seconds(Time(a.frames_produced) *
                           params_.dvsync_overhead_per_frame);
    // Predictor fitting runs on the app side (middle cores).
    mj += params_.active_mw *
          to_seconds(Time(a.predicted_frames) * kPredictorOverhead);
    return mj;
}

double
PowerModel::instructions(const RunActivity &a) const
{
    const double per_frame = a.dvsync_on ? params_.instr_per_frame_dvsync
                                         : params_.instr_per_frame_base;
    return per_frame * double(a.frames_produced);
}

double
PowerModel::percent_increase(const RunActivity &a,
                             const RunActivity &b) const
{
    const double ea = energy_mj(a);
    if (ea <= 0)
        return std::numeric_limits<double>::quiet_NaN();
    return 100.0 * (energy_mj(b) - ea) / ea;
}

// ----- thermal/DVFS plant ----------------------------------------------

ThermalParams
thermal_params_for(double budget_mw, double headroom_c,
                   double envelope_scale)
{
    if (budget_mw <= 0 || headroom_c <= 0 || envelope_scale <= 0)
        fatal("thermal envelope must be positive (budget=%g headroom=%g "
              "scale=%g)",
              budget_mw, headroom_c, envelope_scale);
    ThermalParams p;
    // Dissipating exactly the (scaled) budget settles at the throttle
    // threshold: steady state = ambient + R * P.
    const double budget_w = budget_mw * envelope_scale / 1000.0;
    p.throttle_c = p.ambient_c + headroom_c;
    p.release_c = p.throttle_c - 4.0;
    p.resistance_c_per_w = headroom_c / budget_w;
    return p;
}

ThermalPlant::ThermalPlant(ThermalParams params)
    : params_(std::move(params)),
      temp_c_(params_.start_c),
      peak_c_(params_.start_c)
{
    if (params_.levels.empty())
        fatal("ThermalPlant needs at least one DVFS level");
    for (const DvfsLevel &l : params_.levels) {
        if (l.speed <= 0 || l.power_mw < 0)
            fatal("DVFS level needs speed > 0 and power >= 0");
    }
    if (params_.tau <= 0)
        fatal("thermal tau must be > 0");
    if (params_.release_c > params_.throttle_c)
        fatal("thermal release temperature above the throttle threshold");
}

double
ThermalPlant::slowdown() const
{
    return params_.levels.front().speed / params_.levels[level_].speed;
}

Time
ThermalPlant::scale_duration(Time duration) const
{
    if (level_ == 0)
        return duration;
    return Time(double(duration) * slowdown());
}

void
ThermalPlant::integrate(Time to, double power_mw)
{
    if (to <= last_)
        return;
    const double dt = double(to - last_);
    const double t_inf = params_.ambient_c +
                         params_.resistance_c_per_w * power_mw / 1000.0;
    temp_c_ = t_inf + (temp_c_ - t_inf) * std::exp(-dt / double(params_.tau));
    if (temp_c_ > peak_c_)
        peak_c_ = temp_c_;
    last_ = to;
}

void
ThermalPlant::on_busy(Time start, Time end)
{
    if (end < start)
        panic("ThermalPlant busy interval runs backwards");
    // GPU submissions are serialized (the pipeline pumps one job at a
    // time), so intervals arrive in order; a stale interval would mean a
    // second submitter raced the integrator.
    if (start < last_)
        panic("ThermalPlant busy interval precedes the integrator");
    integrate(start, 0.0); // idle decay toward ambient
    const double power_mw = params_.levels[level_].power_mw;
    integrate(end, power_mw);
    energy_mj_ += power_mw * to_seconds(end - start);

    // Emergent throttle: one ladder step per accounted job, against the
    // hysteresis band. The release never climbs above the governor floor.
    if (temp_c_ >= params_.throttle_c && level_ + 1 < level_count()) {
        ++level_;
        ++trips_;
    } else if (temp_c_ <= params_.release_c && level_ > floor_) {
        --level_;
    }
}

double
ThermalPlant::temperature_at(Time now) const
{
    if (now <= last_)
        return temp_c_;
    const double dt = double(now - last_);
    return params_.ambient_c +
           (temp_c_ - params_.ambient_c) *
               std::exp(-dt / double(params_.tau));
}

void
ThermalPlant::set_governor_floor(int floor)
{
    if (floor < 0 || floor >= level_count())
        panic("governor floor %d outside the DVFS ladder", floor);
    floor_ = floor;
    if (level_ < floor_)
        level_ = floor_;
}

} // namespace dvs
