/**
 * @file
 * Shared helpers for system-level tests.
 */

#ifndef DVS_TESTS_TEST_SUPPORT_H
#define DVS_TESTS_TEST_SUPPORT_H

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/render_system.h"

namespace dvs {

/**
 * Frame conservation: no produced frame reaches the screen more than
 * once. Usable after run() on any mode.
 */
inline void
expect_frame_conservation(RenderSystem &sys)
{
    std::vector<int> seen(sys.producer().records().size(), 0);
    for (const ShownFrame &f : sys.stats().shown())
        ++seen[f.frame_id];
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_LE(seen[i], 1) << "frame " << i << " presented twice";
}

/** The run's invariant monitor recorded nothing. */
inline void
expect_no_invariant_violations(RenderSystem &sys)
{
    const InvariantMonitor *m = sys.monitor();
    ASSERT_NE(m, nullptr) << "RenderSystem built no invariant monitor";
    EXPECT_EQ(m->violations(), 0u);
    for (const InvariantViolation &v : m->log()) {
        ADD_FAILURE() << "t=" << v.time << " [" << v.invariant << "] "
                      << v.detail;
    }
}

/**
 * The `"resume_pos": N,` line of a CampaignAggregator or Observatory
 * to_json() dump, unindented; empty when the dump has none.
 */
inline std::string
resume_pos_line(const std::string &json)
{
    const std::size_t at = json.find("\"resume_pos\"");
    return at == std::string::npos
               ? ""
               : json.substr(at, json.find('\n', at) - at);
}

/**
 * Calls `fn(bytes, i, mutant)` with two deterministic mutants of
 * @p pristine per byte position @p i: mutant 0 bit-inverts the byte and
 * mutant 1 adds one to it. The loader fuzzing loops run on these.
 */
template <class Fn>
void
for_each_byte_mutant(const std::string &pristine, Fn &&fn)
{
    for (std::size_t i = 0; i < pristine.size(); ++i) {
        const auto byte = static_cast<unsigned char>(pristine[i]);
        for (int mutant = 0; mutant < 2; ++mutant) {
            std::string bytes = pristine;
            bytes[i] = char(mutant == 0 ? ~byte : byte + 1);
            fn(bytes, i, mutant);
        }
    }
}

} // namespace dvs

#endif // DVS_TESTS_TEST_SUPPORT_H
