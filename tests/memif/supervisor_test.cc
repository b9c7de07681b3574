/**
 * @file
 * The transfer supervisor's ownership rule: only a parked supervisor
 * can be settled, and whoever settles it owns the transfer from that
 * synchronous point on. Each wake-order case stages one collision the
 * old completion_claimed flag used to arbitrate and replays it under
 * the FIFO tie-break and three fuzzed same-timestamp orders. Whichever
 * waker wins, every request is released exactly once, nothing leaks
 * (check_quiesced), and nothing resumes into a destroyed device (the
 * sanitizer jobs run this file too).
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "dma/engine.h"
#include "memif_fixture.h"
#include "sim/random.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace memif::core {
namespace {

using sim::TracePoint;

constexpr std::uint64_t kPage = 4096;

/** The shared fixture with its tracer on and, for a nonzero
 *  @p tie_seed, same-timestamp events dispatched in an order fuzzed
 *  with that seed (0 keeps the FIFO tie-break). */
struct Bed : test::MemifFixture {
    Bed(const MemifConfig &cfg, std::uint64_t tie_seed,
        os::KernelConfig kc = {})
        : MemifFixture(cfg, kc)
    {
        if (tie_seed != 0) kernel.eq().set_tie_break_seed(tie_seed);
        kernel.tracer().enable();
    }

    /** Trace records of @p p for request slot @p idx. */
    std::size_t
    count(TracePoint p, std::uint32_t idx)
    {
        std::size_t n = 0;
        for (const sim::TraceRecord &r : kernel.tracer().records())
            if (r.point == p && r.req == idx) ++n;
        return n;
    }

    /** Every completion the application retrieves, in order. */
    std::vector<std::uint32_t>
    retrieve_all()
    {
        std::vector<std::uint32_t> got;
        for (std::uint32_t idx = user.retrieve_completed();
             idx != kNoRequest; idx = user.retrieve_completed())
            got.push_back(idx);
        return got;
    }

    const DeviceStats &stats() const { return dev.stats(); }
};

/** Closed loop of small migrations — 8 in flight, 1 to 16 pages each,
 *  ping-ponged slow<->fast — on MemifConfig::strided() with a single
 *  driver core: the stream where deadlines land while the kernel
 *  thread's reap pass owns the driver core. Returns the completions. */
std::uint64_t
run_small_migrations(Bed &bed, std::uint64_t requests)
{
    constexpr std::array<std::uint32_t, 5> kSizes = {1, 2, 4, 8, 16};
    constexpr std::uint32_t kWindow = 8;
    struct Unit {
        vm::VAddr base = 0;
        std::uint32_t pages = 0;
        bool on_fast = false;
    };
    std::vector<Unit> units;
    for (std::uint32_t w = 0; w < kWindow; ++w)
        for (const std::uint32_t pages : kSizes)
            units.push_back(
                {bed.region(pages * kPage, static_cast<std::uint8_t>(w)),
                 pages});
    sim::Rng rng(1);
    std::vector<std::uint32_t> slot_unit(kWindow, 0);
    std::uint64_t issued = 0, completed = 0;
    auto issue = [&](std::uint32_t slot) -> sim::Task {
        const auto c = static_cast<std::uint32_t>(rng.next_below(5));
        slot_unit[slot] = slot * 5 + c;
        const Unit &u = units[slot_unit[slot]];
        const std::uint32_t idx = bed.prepare(
            MovOp::kMigrate, u.base, u.pages,
            u.on_fast ? bed.kernel.slow_node() : bed.kernel.fast_node());
        bed.user.request(idx).user_tag = slot;
        ++issued;
        co_await bed.user.submit(idx);
    };
    auto driver = [&]() -> sim::Task {
        for (std::uint32_t w = 0; w < kWindow; ++w) co_await issue(w);
        while (completed < requests) {
            const std::uint32_t idx = bed.user.retrieve_completed();
            if (idx == kNoRequest) {
                co_await bed.user.poll();
                continue;
            }
            MovReq &req = bed.user.request(idx);
            const auto slot = static_cast<std::uint32_t>(req.user_tag);
            EXPECT_EQ(req.load_status(), MovStatus::kDone);
            units[slot_unit[slot]].on_fast ^= true;
            bed.user.free_request(idx);
            ++completed;
            if (issued < requests) co_await issue(slot);
        }
    };
    sim::Task task = driver();
    bed.kernel.run();
    task.rethrow_if_failed();
    EXPECT_TRUE(task.done());
    for (std::uint32_t u = 0; u < units.size(); ++u)
        EXPECT_TRUE(bed.check(units[u].base, units[u].pages * kPage,
                              static_cast<std::uint8_t>(u / 5)));
    return completed;
}

std::size_t
count_all(Bed &bed, TracePoint p)
{
    std::size_t n = 0;
    for (const sim::TraceRecord &r : bed.kernel.tracer().records())
        if (r.point == p) ++n;
    return n;
}

os::KernelConfig
single_driver_core()
{
    os::KernelConfig kc;
    kc.single_driver_core = true;
    return kc;
}

TEST(Supervisor, FaultFreeDeadlinesCountNoTimeouts)
{
    // No fault is armed, yet deadlines do fire on this stream: a
    // moderated completion can still be held when its deadline comes.
    // Such a deadline retires the transfer itself; it caught no stuck
    // chain and no lost interrupt, so it is not a timeout.
    Bed bed(MemifConfig::strided(), 0, single_driver_core());
    const std::uint64_t done = run_small_migrations(bed, 3000);
    EXPECT_EQ(done, 3000u);
    EXPECT_GT(count_all(bed, TracePoint::kWatchdogFire), 0u);
    EXPECT_EQ(bed.stats().watchdog_timeouts, 0u);
    EXPECT_EQ(bed.stats().dma_retries, 0u);
}

/** FIFO, then three fuzzed same-timestamp orders. */
class WakeOrder : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Supervisor, WakeOrder,
                         ::testing::Values(0u, 11u, 12u, 13u));

TEST_P(WakeOrder, DeadlineInsideAReapPass)
{
    // Deadlines land while the kernel thread is reaping on the one
    // driver core. The deadline owns what it settled — the reap pass
    // only takes parked supervisors — so each request is released
    // exactly once.
    Bed bed(MemifConfig::strided(), GetParam(), single_driver_core());
    const std::uint64_t done = run_small_migrations(bed, 2000);
    EXPECT_EQ(done, 2000u);
    EXPECT_EQ(count_all(bed, TracePoint::kNotifyDone), 2000u);
    EXPECT_GT(count_all(bed, TracePoint::kWatchdogFire), 0u);
    EXPECT_GT(bed.stats().reaped_completions, 0u);
    EXPECT_EQ(bed.stats().watchdog_timeouts, 0u);
}

TEST_P(WakeOrder, IrqAndDeadlineAtTheSameTimestamp)
{
    // margin 1 and no slack put every deadline on its transfer's
    // completion instant. Whichever event the tie-break runs first
    // owns the transfer: the interrupt retires it, or the deadline
    // classifies it as hung and retries it — never both.
    MemifConfig cfg = MemifConfig::pipelined();
    cfg.watchdog_margin = 1.0;
    cfg.watchdog_slack = 0;
    Bed bed(cfg, GetParam());
    constexpr std::uint32_t kRequests = 8;
    std::vector<vm::VAddr> src, dst;
    std::vector<std::uint32_t> idx;
    for (std::uint32_t r = 0; r < kRequests; ++r) {
        src.push_back(bed.region(16 * kPage, static_cast<std::uint8_t>(r)));
        dst.push_back(bed.region(16 * kPage, 0, bed.kernel.fast_node()));
        idx.push_back(bed.submit(MovOp::kReplicate, src[r], 16, dst[r]));
    }
    bed.kernel.run();

    for (std::uint32_t r = 0; r < kRequests; ++r) {
        EXPECT_EQ(bed.user.request(idx[r]).load_status(),
                  MovStatus::kDone);
        EXPECT_TRUE(
            bed.check(dst[r], 16 * kPage, static_cast<std::uint8_t>(r)));
        EXPECT_EQ(bed.count(TracePoint::kNotifyDone, idx[r]), 1u);
    }
    EXPECT_EQ(bed.retrieve_all().size(), kRequests);
    // Each deadline that won its tie declared a hang and retried.
    EXPECT_EQ(bed.stats().watchdog_timeouts,
              bed.stats().dma_retries + bed.stats().fallback_copies);
    if (GetParam() == 0) {
        EXPECT_EQ(bed.stats().watchdog_timeouts, 0u);
    }
}

TEST_P(WakeOrder, DrainSweepsASiblingWhoseDeadlineIsDue)
{
    // B's interrupt is lost, and its deadline is set to fire at the
    // instant A's interrupt arrives. If A's handler runs first its
    // drain sweep takes B (and cancels B's deadline); if B's deadline
    // runs first, B is no longer parked and the sweep passes it by.
    // A starts first, so nothing of A's depends on B's fate.
    MemifConfig cfg = MemifConfig::moderated();
    cfg.watchdog_margin = 1.0;
    // R0 is kicked through the syscall; the kernel thread then serves
    // A and B back to back, neither waiting on the other's interrupt.
    // With a backlog of one request each, the completion controller
    // gives A and B plain interrupts (only R0's is moderated), so A's
    // own IRQ runs the drain sweep.
    struct Run {
        vm::VAddr da = 0, db = 0;
        std::uint32_t ia = 0, ib = 0;
    };
    const auto stage = [](Bed &bed) {
        Run run;
        const vm::VAddr r0 = bed.region(1 * kPage, 3);
        const vm::VAddr a = bed.region(64 * kPage, 2);
        const vm::VAddr b = bed.region(2 * kPage, 1);
        run.da = bed.region(64 * kPage, 0, bed.kernel.fast_node());
        run.db = bed.region(2 * kPage, 0, bed.kernel.fast_node());
        bed.submit(MovOp::kReplicate, r0, 1,
                   bed.region(1 * kPage, 0, bed.kernel.fast_node()));
        run.ia = bed.submit(MovOp::kReplicate, a, 64, run.da);
        run.ib = bed.submit(MovOp::kReplicate, b, 2, run.db);
        return run;
    };
    // Calibrate: where do the two transfers complete?
    cfg.watchdog_slack = sim::milliseconds(1);
    const sim::SimTime done_a =
        test::dma_window<Bed>([&](Bed &b) { return stage(b).ia; }, cfg, 0)
            .complete;
    const sim::SimTime done_b =
        test::dma_window<Bed>([&](Bed &b) { return stage(b).ib; }, cfg, 0)
            .complete;
    ASSERT_GT(done_a, done_b);
    cfg.watchdog_slack = done_a - done_b;

    Bed bed(cfg, GetParam());
    const Run run = stage(bed);
    bed.kernel.faults().arm_nth(dma::kFaultLostIrq, 3);  // B's
    bed.kernel.run();

    EXPECT_EQ(bed.kernel.dma_engine().stats().interrupts_lost, 1u);
    EXPECT_EQ(bed.user.request(run.ia).load_status(), MovStatus::kDone);
    EXPECT_EQ(bed.user.request(run.ib).load_status(), MovStatus::kDone);
    EXPECT_TRUE(bed.check(run.da, 64 * kPage, 2));
    EXPECT_TRUE(bed.check(run.db, 2 * kPage, 1));
    EXPECT_EQ(bed.count(TracePoint::kNotifyDone, run.ia), 1u);
    EXPECT_EQ(bed.count(TracePoint::kNotifyDone, run.ib), 1u);
    EXPECT_EQ(bed.retrieve_all().size(), 3u);
    // Exactly one owner took B: its deadline or A's sweep.
    EXPECT_EQ(bed.stats().watchdog_timeouts + bed.stats().drained_requests,
              1u);
    EXPECT_EQ(bed.stats().irq_completions, 3u);
    EXPECT_EQ(bed.stats().dma_retries, 0u);
    EXPECT_EQ(bed.traced(TracePoint::kDmaComplete, run.ia), done_a);
    // A deadline that won fired at A's completion instant: the
    // collision was staged. FIFO runs A's completion first (it was
    // scheduled at A's start, before B's deadline), so its sweep wins.
    if (bed.stats().watchdog_timeouts != 0) {
        EXPECT_EQ(bed.traced(TracePoint::kWatchdogFire, run.ib), done_a);
    }
    if (GetParam() == 0) {
        EXPECT_EQ(bed.stats().drained_requests, 1u);
    }
}

TEST_P(WakeOrder, YoungFaultAbortOfAParkedSupervisor)
{
    // kRecover: an access to a page of an interrupt-driven migration
    // rolls it back while its supervisor is parked. The abort settles
    // the supervisor, which hands its cancelled transfer back and
    // exits; no interrupt or deadline ever reaches it again.
    MemifConfig cfg;
    cfg.race_policy = RacePolicy::kRecover;
    // Calibrate: the touch must land while the transfer is running.
    const auto setup = [](Bed &bed) {
        return bed.submit(MovOp::kMigrate, bed.region(64 * kPage, 5), 64,
                          bed.kernel.fast_node());
    };
    const test::DmaWindow window = test::dma_window<Bed>(setup, cfg, 0);
    ASSERT_GT(window.complete, window.start + 2);

    Bed bed(cfg, GetParam());
    const std::uint32_t idx = setup(bed);
    const vm::VAddr base = bed.user.request(idx).src_base;
    os::TouchOutcome out;
    bed.touch_at(window.mid(), bed.proc, base + 10 * kPage, true, &out);
    bed.kernel.run();

    EXPECT_EQ(bed.user.request(idx).load_status(), MovStatus::kAborted);
    EXPECT_EQ(bed.stats().migrations_aborted, 1u);
    EXPECT_EQ(bed.count(TracePoint::kDmaStart, idx), 1u);
    EXPECT_EQ(bed.count(TracePoint::kAborted, idx), 1u);
    EXPECT_EQ(bed.count(TracePoint::kDmaComplete, idx), 0u);
    EXPECT_EQ(bed.count(TracePoint::kReleaseDone, idx), 0u);
    EXPECT_EQ(bed.count(TracePoint::kWatchdogFire, idx), 0u);
    EXPECT_EQ(bed.retrieve_all(), std::vector<std::uint32_t>{idx});
    EXPECT_EQ(bed.kernel.dma_engine().stats().transfers_cancelled, 1u);
    EXPECT_TRUE(bed.check(base, 64 * kPage, 5));
}

TEST_P(WakeOrder, TeardownWithParkedSupervisors)
{
    // Destroy the device while interrupt-driven flights and chain hops
    // are parked, then let the machine run on: no engine callback or
    // deadline may reach the dead device, and every descriptor lease
    // comes back. (The application is out of the driver by then — a
    // device cannot close under a thread inside one of its syscalls.)
    MemifConfig cfg = MemifConfig::pipelined();
    cfg.tiered_memory = true;
    cfg.pipelined_eviction = true;
    Bed bed(cfg, GetParam(), os::KernelConfig{.far_bytes = 64ull << 20});
    std::vector<std::uint32_t> idx;
    for (std::uint32_t r = 0; r < 4; ++r) {
        // Odd requests demote SRAM -> far: chained through DDR.
        const bool chained = r % 2 != 0;
        const vm::VAddr v = bed.region(
            32 * kPage, static_cast<std::uint8_t>(r),
            chained ? bed.kernel.fast_node() : bed.kernel.slow_node());
        idx.push_back(bed.prepare(MovOp::kMigrate, v, 32,
                                  chained ? bed.kernel.far_node()
                                          : bed.kernel.fast_node()));
    }
    auto app = [&]() -> sim::Task {
        for (const std::uint32_t i : idx) co_await bed.user.submit(i);
    };
    sim::Task submitted = app();
    while (!submitted.done() || bed.dev.stats().hop_stages_issued == 0)
        ASSERT_TRUE(bed.kernel.eq().step());
    const dma::EngineStats &st = bed.kernel.dma_engine().stats();
    ASSERT_GT(st.transfers_started, st.transfers_completed);
    bed.check_quiesce_on_teardown = false;
    bed.close_device();
    bed.kernel.run();

    // Teardown cancelled every transfer still running, so none can
    // complete into the dead device.
    EXPECT_EQ(st.transfers_started,
              st.transfers_completed + st.transfers_cancelled);
    EXPECT_GT(st.transfers_cancelled, 0u);
}

}  // namespace
}  // namespace memif::core
