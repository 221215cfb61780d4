/**
 * @file
 * Allocation budget of a session's dispatch loop.
 *
 * This binary replaces the global allocation functions with counting
 * versions and counts the heap allocations made inside
 * RenderSystem::run() over a fixed slice of the paper fleet. A count is
 * deterministic where a timing is not, so a change that puts the
 * allocator back on the per-event path (a heap-stored callback, a
 * container that drops its capacity every edge) fails here on any host.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "core/render_system.h"
#include "harness/experiment_runner.h"
#include "sim/logging.h"
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

TEST(HotPathAllocs, FleetSessionRunStaysWithinBudget)
{
    // The parent of the allocation-free dispatch loop measured 368
    // allocations per session here, and ~37 before the refresh logs
    // were sized up front; what is left is first-use growth of a few
    // small containers and report derivation. The budget leaves headroom
    // for that, not for per-event or per-refresh allocation.
    constexpr std::uint64_t kSessions = 256;
    constexpr double kBudgetPerSession = 24.0;

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
    RecordProperty("allocs_per_session", std::to_string(per_session));
    EXPECT_LE(per_session, kBudgetPerSession)
        << allocs << " allocations over " << ran << " sessions";
}
