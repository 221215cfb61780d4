/**
 * @file
 * Allocation budgets of a session's dispatch loop and of its trace
 * round trip.
 *
 * This binary replaces the global allocation functions with counting
 * versions and counts the heap allocations made while a RenderSystem is
 * assembled and inside RenderSystem::run(), SessionRecorder::capture(),
 * RunReport::fingerprint() and ReplayResult::verify_against() over a
 * fixed slice of the paper fleet and the corpus's composed display. A
 * count is
 * deterministic where a timing is not, so a change that puts the
 * allocator back on the per-event path (a heap-stored callback, a
 * container that drops its capacity every edge, a component back on the
 * heap) fails here on any host.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/render_system.h"
#include "harness/experiment_runner.h"
#include "sim/logging.h"
#include "trace/session_recorder.h"
#include "trace/trace_replay.h"
#include "workload/device_population.h"

namespace {

// Plain globals: the sessions below run on the test's own thread, and
// allocations made outside a counted region are ignored.
bool g_counting = false;
std::uint64_t g_allocs = 0;

void *
counted_alloc(std::size_t n)
{
    if (g_counting)
        ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
counted_aligned_alloc(std::size_t n, std::align_val_t al)
{
    if (g_counting)
        ++g_allocs;
    const std::size_t a = std::size_t(al);
    // aligned_alloc needs a size that is a multiple of the alignment.
    const std::size_t size = n ? (n + a - 1) / a * a : a;
    if (void *p = std::aligned_alloc(a, size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return counted_alloc(n); }
void *operator new[](std::size_t n) { return counted_alloc(n); }
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *operator new(std::size_t n, std::align_val_t al)
{
    return counted_aligned_alloc(n, al);
}
void *operator new[](std::size_t n, std::align_val_t al)
{
    return counted_aligned_alloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace dvs;

namespace {

/** Heap allocations made by @p fn. */
template <class Fn>
std::uint64_t
allocations_in(Fn &&fn)
{
    const std::uint64_t before = g_allocs;
    g_counting = true;
    fn();
    g_counting = false;
    return g_allocs - before;
}

} // namespace

TEST(HotPathAllocs, CounterSeesHeapAllocations)
{
    // Guard against a counter that silently counts nothing.
    const std::uint64_t n = allocations_in([] {
        auto *p = new std::uint64_t[4];
        delete[] p;
    });
    EXPECT_EQ(n, 1u);
}

TEST(HotPathAllocs, FleetSessionSetupStaysWithinBudget)
{
    // Assembling a device with one heap block per component, a deque
    // pair per buffer queue and listener vectors grown one registration
    // at a time cost 46.3 allocations per session here. Built in place,
    // with fixed-capacity queues, 11.5 are left: the scenario copy, the
    // surface storage, the event heap and slots, the listener lists,
    // the per-segment tables, the frame-record reservation and the
    // invariant monitor's presented-frame flags sized to match it.
    constexpr std::uint64_t kSessions = 256;
    constexpr double kBudgetPerSession = 16.0;

    const DevicePopulation pop = DevicePopulation::paper_fleet(1);
    FatalThrowsScope recoverable(true);
    std::uint64_t allocs = 0;
    for (std::uint64_t i = 0; i < kSessions; ++i) {
        const Experiment exp = pop.experiment(i);
        std::optional<RenderSystem> sys;
        allocs += allocations_in(
            [&] { sys.emplace(exp.config, exp.scenario); });
    }
    const double per_session = double(allocs) / double(kSessions);
    RecordProperty("setup_allocs_per_session", std::to_string(per_session));
    EXPECT_LE(per_session, kBudgetPerSession)
        << allocs << " allocations over " << kSessions << " sessions";
}

TEST(HotPathAllocs, ComposedDeviceStaysWithinBudget)
{
    // The corpus's four-surface display on one shared GPU: every
    // surface's components in place as on the single-app device, plus
    // the display compositor, the arbiter and the display monitor. It
    // measured 37 allocations to assemble and 30 to run (170 and 66
    // with a heap block per component; 33 and 34 while each monitor
    // still grew its presented-frame flags during the run).
    constexpr double kSetupBudget = 40.0;
    constexpr double kRunBudget = 40.0;

    SessionCapture cap;
    std::string error;
    ASSERT_TRUE(SessionCapture::load(
        std::string(DVS_TRACES_DIR) + "/fleet-4surface.dvst", cap, error))
        << error;
    ASSERT_EQ(cap.kind, SessionCapture::Kind::kMulti);
    std::vector<SurfaceDesc> surfaces = build_surfaces(cap);
    std::optional<RenderSystem> sys;
    const std::uint64_t setup = allocations_in(
        [&] { sys.emplace(cap.config, std::move(surfaces)); });
    RunReport rep;
    const std::uint64_t run = allocations_in([&] { rep = sys->run(); });
    EXPECT_TRUE(rep.error.empty()) << rep.error;
    RecordProperty("composed_setup_allocs", std::to_string(setup));
    RecordProperty("composed_run_allocs", std::to_string(run));
    EXPECT_LE(double(setup), kSetupBudget);
    EXPECT_LE(double(run), kRunBudget);
}

TEST(HotPathAllocs, FleetSessionRunStaysWithinBudget)
{
    // What is left is 4.7 per session: the refresh logs sized for the
    // run's horizon, the drop and presented-frame logs, and report
    // derivation (5.9 while the invariant monitor grew its flags here).
    // The budget leaves headroom for that, not for per-event or
    // per-refresh allocation, nor for first-use growth of the buffer
    // queues, stage FIFOs and vsync batches (17.3 per session while they
    // still grew; 368 before inline event callbacks).
    constexpr std::uint64_t kSessions = 256;
    constexpr double kBudgetPerSession = 8.0;

    const DevicePopulation pop = DevicePopulation::paper_fleet(1);
    FatalThrowsScope recoverable(true);
    std::uint64_t allocs = 0;
    std::uint64_t ran = 0;
    for (std::uint64_t i = 0; i < kSessions; ++i) {
        const Experiment exp = pop.experiment(i);
        std::optional<RenderSystem> sys;
        try {
            sys.emplace(exp.config, exp.scenario);
        } catch (const ConfigError &) {
            continue; // never counted: the budget is about run()
        }
        RunReport rep;
        allocs += allocations_in([&] { rep = sys->run(); });
        EXPECT_TRUE(rep.error.empty()) << "session " << i << ": " << rep.error;
        ++ran;
    }
    ASSERT_EQ(ran, kSessions);
    const double per_session = double(allocs) / double(ran);
    RecordProperty("run_allocs_per_session", std::to_string(per_session));
    EXPECT_LE(per_session, kBudgetPerSession)
        << allocs << " allocations over " << ran << " sessions";
}

TEST(HotPathAllocs, CaptureAndVerifyStayWithinBudget)
{
    // Capture copies the config, the surface descriptors, the touch
    // streams and one cost table per producing segment, 5.9 allocations
    // per session here; it hashes the report fingerprint without
    // formatting a string. Verifying a replay compares two hashes and
    // allocates nothing when they match.
    constexpr std::uint64_t kSessions = 256;
    constexpr double kCaptureBudgetPerSession = 6.0;

    const DevicePopulation pop = DevicePopulation::paper_fleet(1);
    FatalThrowsScope recoverable(true);
    std::uint64_t capture_allocs = 0;
    std::uint64_t ran = 0;
    for (std::uint64_t i = 0; i < kSessions; ++i) {
        const Experiment exp = pop.experiment(i);
        std::optional<RenderSystem> sys;
        try {
            sys.emplace(exp.config, exp.scenario);
        } catch (const ConfigError &) {
            continue;
        }
        sys->run();
        SessionCapture cap;
        capture_allocs += allocations_in(
            [&] { cap = SessionRecorder::capture(*sys, exp.label); });
        ++ran;

        const ReplayResult replay = replay_session(cap);
        std::uint64_t fnv = 0;
        EXPECT_EQ(allocations_in([&] { fnv = replay.report.fingerprint(); }),
                  0u)
            << "session " << i;
        EXPECT_EQ(fnv, cap.source_report_fnv) << "session " << i;
        std::string verdict = "not run";
        EXPECT_EQ(allocations_in([&] { verdict = replay.verify_against(cap); }),
                  0u)
            << "session " << i;
        EXPECT_EQ(verdict, "") << "session " << i;
    }
    ASSERT_EQ(ran, kSessions);
    const double per_session = double(capture_allocs) / double(ran);
    RecordProperty("capture_allocs_per_session", std::to_string(per_session));
    EXPECT_LE(per_session, kCaptureBudgetPerSession)
        << capture_allocs << " allocations over " << ran << " captures";
}
