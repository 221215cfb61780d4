/**
 * @file
 * Simulation time primitives.
 *
 * All simulation time is expressed as signed 64-bit nanosecond counts on a
 * virtual clock that starts at zero. Durations and points in time share the
 * representation; helpers below make call sites read naturally.
 */

#ifndef DVS_SIM_TIME_H
#define DVS_SIM_TIME_H

#include <cstdint>
#include <string>

namespace dvs {

/** A point in virtual time or a duration, in nanoseconds. */
using Time = std::int64_t;

/** Sentinel for "no time" / unset timestamps. */
inline constexpr Time kTimeNone = -1;

/** Largest representable time, used as an "infinite" horizon. */
inline constexpr Time kTimeMax = INT64_MAX;

namespace time_literals {

constexpr Time operator""_ns(unsigned long long v) { return Time(v); }
constexpr Time operator""_us(unsigned long long v) { return Time(v) * 1000; }
constexpr Time operator""_ms(unsigned long long v)
{
    return Time(v) * 1'000'000;
}
constexpr Time operator""_s(unsigned long long v)
{
    return Time(v) * 1'000'000'000;
}

} // namespace time_literals

/** Convert nanoseconds to (double) milliseconds for reporting. */
constexpr double
to_ms(Time t)
{
    return double(t) / 1e6;
}

/** Convert nanoseconds to (double) microseconds for reporting. */
constexpr double
to_us(Time t)
{
    return double(t) / 1e3;
}

/** Convert nanoseconds to (double) seconds for reporting. */
constexpr double
to_seconds(Time t)
{
    return double(t) / 1e9;
}

/** Whether @p ns is a duration the from_*() casts below can take. */
constexpr bool
duration_fits(double ns)
{
    return ns >= 0.0 && ns < 0x1p63; // NaN fails both
}

/** Convert (double) milliseconds to nanoseconds. */
constexpr Time
from_ms(double ms)
{
    return Time(ms * 1e6);
}

/** Convert (double) microseconds to nanoseconds. */
constexpr Time
from_us(double us)
{
    return Time(us * 1e3);
}

/** Convert (double) seconds to nanoseconds. */
constexpr Time
from_seconds(double s)
{
    return Time(s * 1e9);
}

/** The refresh period of a display running at @p hz refreshes per second. */
constexpr Time
period_from_hz(double hz)
{
    return Time(1e9 / hz);
}

/** Render a time as "12.345 ms" for logs and reports. */
std::string format_time(Time t);

} // namespace dvs

#endif // DVS_SIM_TIME_H
