/**
 * @file
 * Multiple memif instances — the paper designs for this ("Multiple
 * memif devices maintain separate copies of queues and free lists and
 * are therefore isolated from each other", §4.2) but never evaluated
 * it (§6.7). Here we do: several processes, each with its own device,
 * sharing one DMA engine and one fast node.
 */
#include <gtest/gtest.h>

#include <vector>

#include "memif/device.h"
#include "memif/user_api.h"
#include "memif_fixture.h"
#include "os/kernel.h"
#include "os/process.h"

namespace memif::core {
namespace {

using Fixture = test::MemifFixture;

struct App {
    os::Process *proc;
    MemifDevice *dev;
    MemifUser *user;
    vm::VAddr src = 0;
    vm::VAddr dst = 0;
    unsigned completed = 0;
};

/** @p n apps on @p f's kernel: app 0 is the fixture's process and
 *  device, each other app a process of its own with its own device. */
std::vector<App>
open_apps(Fixture &f, unsigned n)
{
    std::vector<App> apps(n);
    apps[0] = {&f.proc, &f.dev, &f.user};
    for (unsigned a = 1; a < n; ++a) {
        os::Process &p = f.kernel.create_process();
        Fixture::Instance &i = f.open_device(p);
        apps[a] = {&p, &i.dev, &i.user};
    }
    return apps;
}

TEST(MultiInstance, ThreeProcessesShareTheEngine)
{
    Fixture f;
    constexpr unsigned kApps = 3;
    constexpr unsigned kRequestsEach = 12;

    std::vector<App> apps = open_apps(f, kApps);
    for (unsigned a = 0; a < kApps; ++a) {
        apps[a].src = apps[a].proc->mmap(32 * 4096, vm::PageSize::k4K);
        apps[a].dst = apps[a].proc->mmap(32 * 4096, vm::PageSize::k4K,
                                         f.kernel.fast_node());
        ASSERT_NE(apps[a].src, 0u);
        ASSERT_NE(apps[a].dst, 0u);
        // Distinct per-app data.
        std::vector<std::uint8_t> data(32 * 4096,
                                       static_cast<std::uint8_t>(0x11 * (a + 1)));
        apps[a].proc->as().write(apps[a].src, data.data(), data.size());
    }

    auto run_app = [&f](App &app, unsigned requests) -> sim::Task {
        for (unsigned i = 0; i < requests; ++i) {
            const std::uint32_t idx = f.prepare(*app.user, MovOp::kReplicate,
                                                app.src, 32, app.dst);
            co_await app.user->submit(idx);
            co_await sim::Delay{f.kernel.eq(), sim::microseconds(7)};
        }
        while (app.completed < requests) {
            const std::uint32_t idx = app.user->retrieve_completed();
            if (idx == kNoRequest) {
                co_await app.user->poll();
                continue;
            }
            EXPECT_TRUE(app.user->request(idx).succeeded());
            app.user->free_request(idx);
            ++app.completed;
        }
    };

    std::vector<sim::Task> tasks;
    for (App &app : apps) tasks.push_back(run_app(app, kRequestsEach));
    f.kernel.run();

    for (unsigned a = 0; a < kApps; ++a) {
        EXPECT_EQ(apps[a].completed, kRequestsEach) << "app " << a;
        EXPECT_TRUE(apps[a].dev->idle());
        // Isolation: each app's destination holds its own pattern.
        std::vector<std::uint8_t> got(32 * 4096);
        apps[a].proc->as().read(apps[a].dst, got.data(), got.size());
        for (const std::uint8_t b : got)
            ASSERT_EQ(b, static_cast<std::uint8_t>(0x11 * (a + 1)));
    }
}

TEST(MultiInstance, OneProcessTwoDevices)
{
    // A process may open several instances; queues and free lists are
    // fully separate.
    Fixture f(MemifConfig{.capacity = 4,
                          .gang_lookup = true,
                          .race_policy = RacePolicy::kDetect,
                          .poll_threshold_bytes = 512 * 1024});
    MemifUser &ua = f.user;
    MemifUser &ub = f.open_device(f.proc).user;

    // Exhaust A's free list; B is unaffected.
    std::vector<std::uint32_t> held;
    for (int i = 0; i < 4; ++i) held.push_back(ua.alloc_request());
    EXPECT_EQ(ua.alloc_request(), kNoRequest);
    EXPECT_NE(ub.alloc_request(), kNoRequest);
    for (const std::uint32_t idx : held) ua.free_request(idx);
}

TEST(MultiInstance, InstancesOverlapOnDistinctTransferControllers)
{
    // Two apps each move 1 MB concurrently (1 MB = 256 descriptors, so
    // both leases fit the 512-entry PaRAM at once). With round-robin TC
    // assignment their DMAs overlap: the two completions land within
    // one transfer duration of each other instead of stacking.
    Fixture f;
    std::vector<App> apps = open_apps(f, 2);
    std::vector<sim::SimTime> completed_at(2, 0);
    for (unsigned a = 0; a < 2; ++a) {
        apps[a].src = apps[a].proc->mmap(1u << 20, vm::PageSize::k4K);
        apps[a].dst = apps[a].proc->mmap(1u << 20, vm::PageSize::k4K,
                                         f.kernel.fast_node());
    }
    auto run_app = [&](App &app, unsigned a) -> sim::Task {
        const std::uint32_t idx = f.prepare(*app.user, MovOp::kReplicate,
                                            app.src, 256, app.dst);
        co_await app.user->submit(idx);
        while (app.user->retrieve_completed() == kNoRequest)
            co_await app.user->poll();
        completed_at[a] = app.user->request(idx).complete_time;
        ++app.completed;
    };
    auto t0 = run_app(apps[0], 0);
    auto t1 = run_app(apps[1], 1);
    f.kernel.run();
    EXPECT_EQ(apps[0].completed + apps[1].completed, 2u);
    const auto &es = f.kernel.dma_engine().stats();
    EXPECT_EQ(es.transfers_completed, 2u);
    // 1 MB at 6.2 GB/s is ~169 us; overlapped completions are closer
    // than that, serialized ones would differ by at least that.
    const sim::Duration gap = completed_at[1] > completed_at[0]
                                  ? completed_at[1] - completed_at[0]
                                  : completed_at[0] - completed_at[1];
    EXPECT_LT(gap, sim::microseconds(169));
}

}  // namespace
}  // namespace memif::core
