/**
 * @file
 * Host-allocation budget of the simulator's hot path. This file replaces
 * the global operator new with a counting one, which is why it builds as
 * an executable of its own.
 *
 * The workload is a steady-state closed loop of 4-64 KB migrations on
 * MemifConfig::strided() with a single driver core: the paper's
 * asynchronous stream of small moves, where per-event and per-request
 * heap churn dominates the simulator's host time. The budget guards the
 * allocation-free event queue, liveness tokens and frame pool, the
 * buddy allocator's bitmap free lists, and the driver's reused flight,
 * batch, lease, lease-shape and descriptor storage and the chain
 * cache's FIFOs, against quiet regressions (about 1.01 allocations per
 * request remain).
 *
 * Skipped under ASan/TSan: the sanitizers own operator new and the
 * coroutine frame pool is bypassed there.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "memif/device.h"
#include "memif/user_api.h"
#include "memif_fixture.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/task.h"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

// Sanitizer builds (where the frame pool is off) keep their own
// operator new.
#if MEMIF_SIM_FRAME_POOL
void *
operator new(std::size_t bytes)
{
    ++g_allocations;
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    return ::operator new(bytes);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
#endif

namespace memif::core {
namespace {

constexpr std::uint64_t kPage = 4096;
constexpr std::array<std::uint32_t, 5> kPages = {1, 2, 4, 8, 16};
constexpr std::uint32_t kWindow = 8;
constexpr std::uint64_t kWarmup = 2'000;
constexpr std::uint64_t kMeasured = 6'000;
/** At most this many heap allocations per completed request. */
constexpr double kBudget = 1.03;

TEST(AllocBudget, SmallMigrationsStayUnderBudget)
{
#if !MEMIF_SIM_FRAME_POOL
    GTEST_SKIP() << "allocation counting is off under sanitizers";
#endif
    test::MemifFixture f(MemifConfig::strided(),
                         os::KernelConfig{.single_driver_core = true});
    os::Kernel &kernel = f.kernel;
    MemifUser &user = f.user;

    // One region per (window slot, size class), ping-ponged between the
    // slow and the fast node, so no region ever has two moves in flight.
    struct Unit {
        vm::VAddr base = 0;
        std::uint32_t pages = 0;
        bool on_fast = false;
    };
    std::vector<Unit> units;
    for (std::uint32_t w = 0; w < kWindow; ++w) {
        for (const std::uint32_t pages : kPages) {
            const vm::VAddr base = f.proc.mmap(
                pages * kPage, vm::PageSize::k4K, kernel.slow_node());
            ASSERT_NE(base, 0u);
            std::vector<std::uint8_t> bytes(pages * kPage,
                                            static_cast<std::uint8_t>(w));
            ASSERT_TRUE(f.proc.as().write(base, bytes.data(), bytes.size()));
            units.push_back({base, pages});
        }
    }

    sim::Rng rng(7);
    std::vector<std::uint32_t> slot_unit(kWindow, 0);
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t allocs_at_warm = 0;
    std::uint64_t allocs_at_end = 0;

    auto issue = [&](std::uint32_t slot) -> sim::Task {
        const auto c =
            static_cast<std::uint32_t>(rng.next_below(kPages.size()));
        slot_unit[slot] = slot * static_cast<std::uint32_t>(kPages.size()) + c;
        const Unit &u = units[slot_unit[slot]];
        const std::uint32_t idx = f.prepare(
            MovOp::kMigrate, u.base, u.pages,
            u.on_fast ? kernel.slow_node() : kernel.fast_node(), slot);
        MEMIF_ASSERT(idx != kNoRequest, "request slots exhausted");
        co_await user.submit(idx);
    };
    auto driver = [&]() -> sim::Task {
        for (std::uint32_t w = 0; w < kWindow; ++w) co_await issue(w);
        while (completed < kWarmup + kMeasured) {
            const std::uint32_t idx = user.retrieve_completed();
            if (idx == kNoRequest) {
                co_await user.poll();
                continue;
            }
            MovReq &req = user.request(idx);
            const auto slot = static_cast<std::uint32_t>(req.user_tag);
            if (req.load_status() == MovStatus::kDone)
                units[slot_unit[slot]].on_fast ^= true;
            else
                ++failed;
            user.free_request(idx);
            if (++completed == kWarmup) allocs_at_warm = g_allocations;
            if (completed == kWarmup + kMeasured) {
                allocs_at_end = g_allocations;
                break;
            }
            co_await issue(slot);
        }
    };

    sim::Task task = driver();
    kernel.run();
    task.rethrow_if_failed();
    ASSERT_TRUE(task.done());
    EXPECT_EQ(failed, 0u);

    const double per_request =
        static_cast<double>(allocs_at_end - allocs_at_warm) /
        static_cast<double>(kMeasured);
    RecordProperty("allocations_per_request", std::to_string(per_request));
    std::printf("heap allocations per request: %.3f (budget %.2f)\n",
                per_request, kBudget);
    EXPECT_LE(per_request, kBudget);
}

}  // namespace
}  // namespace memif::core
