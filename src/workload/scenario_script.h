/**
 * @file
 * Text format for scenarios.
 *
 * Lets workloads be described in a small line-based script instead of
 * C++, so new cases can be run without recompiling (the
 * examples/scenario_runner binary consumes these). Format:
 *
 * ```
 * # comment
 * device mate60pro            # pixel5 | mate40pro | mate60pro
 * seed 42
 *
 * repeat 5
 *   animate 350ms heavy_rate=3 heavy_min=1.2 heavy_max=3 label=fling
 *   idle 150ms
 * end
 *
 * interact swipe 300ms from=1800 travel=1200 label=scroll
 * realtime 500ms mean=0.5 heavy_rate=8
 * ```
 *
 * Durations accept `ms`, `us`, `s` suffixes. `animate`/`realtime`
 * accept the power-law knobs as key=value pairs (mean=, sigma=,
 * heavy_rate=, heavy_min=, heavy_max=, alpha=, burst=, ui=, seed=);
 * `interact` takes a gesture (`swipe`, `drag`, `pinch`) with `from=`,
 * `travel=`, `noise=`. `repeat N` ... `end` duplicates a block, N in
 * [1, 10000]. `seed` takes an integer in [0, 2^64). Every number must
 * be the whole word (`2x` and `abc` are errors, not 2 and 0), every
 * numeric value must be finite, and the knobs must give a valid cost
 * model (mean > 0, sigma >= 0, heavy_rate >= 0, alpha > 0,
 * heavy_min < heavy_max, burst and ui in [0, 1]); otherwise the line
 * fails with its number.
 */

#ifndef DVS_WORKLOAD_SCENARIO_SCRIPT_H
#define DVS_WORKLOAD_SCENARIO_SCRIPT_H

#include <string>

#include "display/device_config.h"
#include "workload/scenario.h"

namespace dvs {

/** Result of parsing a scenario script. */
struct ScenarioScript {
    Scenario scenario;
    DeviceConfig device;      ///< pixel5() unless overridden
    std::uint64_t seed = 1;
    bool ok = false;
    std::string error;        ///< first parse error (when !ok)
    int error_line = 0;
};

/** Parse a script from text. Never throws; check `.ok`. */
ScenarioScript parse_scenario_script(const std::string &text);

/** Parse a script from a file. */
ScenarioScript load_scenario_script(const std::string &path);

} // namespace dvs

#endif // DVS_WORKLOAD_SCENARIO_SCRIPT_H
