/**
 * @file
 * Managed-mode tests: heat-policy arithmetic in isolation (aging
 * decay, EWMA hysteresis, bucket geometry), then the scan kthread +
 * migration daemon end to end — promotion of hot buckets, demotion
 * once they cool, the per-epoch page budget, failure absorption under
 * injected fault bursts, and inertness with the lever off.
 *
 * The integration tests drive heat with one deterministic touch pass
 * over the managed region at t=0 (manage_region arms every PTE, so
 * only real touches read as accesses): the first scan epoch sees the
 * whole region hot and the daemon promotes it; with no further touches
 * the aging vector decays below the demote threshold a few epochs
 * later and the daemon moves everything back. One touch pass therefore
 * exercises the full promote -> cool -> demote -> quiesce cycle
 * without any schedule-sensitive racing.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include "dma/engine.h"
#include "memif/heat_policy.h"
#include "memif_fixture.h"
#include "sim/task.h"
#include "sim/types.h"

namespace memif::core {
namespace {

// ---------------------------------------------------------------------
// Heat-policy unit coverage: pure arithmetic, no simulator.
// ---------------------------------------------------------------------

TEST(HeatPolicy, AgingPromotesOnRecencyAndDecaysToDemote)
{
    HeatConfig hc;  // defaults: promote >= 0x60, demote < 0x10
    RegionHeat heat(hc, 16);
    ASSERT_EQ(heat.num_buckets(), 2u);

    // One fully-accessed epoch shifts 0x80 into the vector: hot.
    heat.fold(0, 8, 2, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x80);
    EXPECT_EQ(heat.classify(0, HeatTier::kSlow, /*far_tier=*/false),
              TierVerdict::kToFast);
    EXPECT_EQ(heat.classify(0, HeatTier::kFast, /*far_tier=*/false),
              TierVerdict::kStay);

    // Idle epochs halve the score; inside the hysteresis band the
    // bucket keeps its hot classification (0x40, 0x20, 0x10 >= 0x10).
    heat.fold(0, 0, 0, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x40);
    EXPECT_EQ(heat.classify(0, HeatTier::kSlow, false),
              TierVerdict::kToFast);
    heat.fold(0, 0, 0, 8);
    heat.fold(0, 0, 0, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x10);
    EXPECT_TRUE(heat.bucket(0).hot);

    // One more idle epoch drops below the demote threshold: cold.
    heat.fold(0, 0, 0, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x08);
    EXPECT_EQ(heat.classify(0, HeatTier::kFast, /*far_tier=*/false),
              TierVerdict::kToSlow);
    EXPECT_EQ(heat.classify(0, HeatTier::kSlow, /*far_tier=*/false),
              TierVerdict::kStay);

    // The untouched second bucket never classified as anything but
    // cold, and epoch accounting tracked the first one's activity.
    EXPECT_FALSE(heat.bucket(1).hot);
    EXPECT_EQ(heat.bucket(0).accessed_epochs, 1u);
    EXPECT_EQ(heat.bucket(0).written_epochs, 1u);
}

TEST(HeatPolicy, EwmaHysteresisAbsorbsAFiftyPercentDutyCycle)
{
    HeatConfig hc;
    hc.policy = MigratePolicy::kEwma;  // alpha .4, enter .6, exit .2
    RegionHeat heat(hc, 8);
    ASSERT_EQ(heat.num_buckets(), 1u);

    // Alternate fully-accessed and idle epochs. The rate oscillates
    // between roughly 0.37 and 0.62: it crosses the enter band once,
    // then never falls to the exit band — exactly one hot flip, no
    // ping-pong.
    for (int e = 0; e < 24; ++e)
        heat.fold(0, (e % 2 == 0) ? 8 : 0, 0, 8);
    EXPECT_TRUE(heat.bucket(0).hot);
    EXPECT_EQ(heat.ping_pongs(), 0u);

    // A long genuinely-idle stretch does demote it.
    for (int e = 0; e < 8; ++e) heat.fold(0, 0, 0, 8);
    EXPECT_FALSE(heat.bucket(0).hot);
    EXPECT_LE(heat.bucket(0).rate, kEwmaColdExit);
    EXPECT_EQ(heat.classify(0, HeatTier::kFast, /*far_tier=*/false),
              TierVerdict::kToSlow);
}

TEST(HeatPolicy, BucketGeometry)
{
    RegionHeat heat(HeatConfig{}, 21);  // 2 full buckets + one short tail
    ASSERT_EQ(heat.num_buckets(), 3u);
    EXPECT_EQ(heat.pages_in(0), 8u);
    EXPECT_EQ(heat.pages_in(2), 5u);
    EXPECT_EQ(heat.first_page(2), 16u);
    EXPECT_EQ(heat.bucket_of(15), 1u);
    EXPECT_EQ(heat.bucket_of(16), 2u);

    heat.fold(0, 8, 0, 8);  // bucket 0 turns hot
    EXPECT_EQ(heat.ping_pongs(), 0u);  // initial flips are not flaps
}

// ---------------------------------------------------------------------
// Integration: scanner + daemon against a live device.
// ---------------------------------------------------------------------

using Fixture = test::MemifFixture;

/** managed() tightened for tests: fast scan epochs, small buckets. */
MemifConfig
test_managed()
{
    MemifConfig c = MemifConfig::managed();
    c.heat_scan_interval = sim::microseconds(100);
    return c;
}

/** One touch on every page of [base, base + pages) at t=0: a read, or
 *  a write with @p write. */
sim::Task
touch_all(Fixture &f, vm::VAddr base, std::uint32_t pages, bool write = false)
{
    for (std::uint32_t p = 0; p < pages; ++p) {
        os::TouchOutcome t;
        co_await f.proc.touch(base + std::uint64_t{p} * 4096, write, &t);
    }
}

TEST(Managed, PromoteStormThenCoolDownDemotesAndQuiesces)
{
    Fixture f(test_managed());
    const std::uint32_t pages = 32;  // 4 buckets of 8
    const vm::VAddr base = f.region(pages * 4096, 17);
    ASSERT_TRUE(f.dev.manage_region(base));
    EXPECT_EQ(f.dev.managed_region_count(), 1u);

    // One touch pass, then silence: the first scan epoch marks every
    // bucket accessed (promote storm), the following idle epochs decay
    // them cold (demotions), then the scanner parks and the event
    // queue runs dry.
    f.kernel.spawn(touch_all(f, base, pages));
    f.kernel.run();

    const DeviceStats &ds = f.dev.stats();
    EXPECT_GE(ds.heat_scans, 6u);
    EXPECT_EQ(ds.promotions_issued, 4u);
    EXPECT_EQ(ds.promotions_completed, 4u);
    EXPECT_EQ(ds.demotions_issued, 4u);
    EXPECT_EQ(ds.demotions_completed, 4u);
    EXPECT_EQ(ds.daemon_movs_dropped, 0u);
    EXPECT_EQ(ds.heat_pages_accessed, pages);
    EXPECT_EQ(ds.heat_pages_written, 0u);
    // Fully cooled: everything migrated back where it started, with
    // the contents intact across both round trips.
    for (std::uint32_t p = 0; p < pages; ++p)
        EXPECT_EQ(f.node_of_page(base, p), f.kernel.slow_node())
            << "page " << p;
    EXPECT_TRUE(f.check(base, pages * 4096, 17));
    EXPECT_GT(f.proc.as().stats().heat_samples, 0u);
    EXPECT_GT(f.proc.as().stats().heat_rearms, 0u);
}

TEST(Managed, ScannerCountsEachTouchOnceAndTellsWritesFromReads)
{
    Fixture f(test_managed());
    const std::uint32_t pages = 16;  // 2 buckets of 8
    const vm::VAddr base = f.region(pages * 4096, 29);
    ASSERT_TRUE(f.dev.manage_region(base));

    // Bucket 0 is written, bucket 1 only read, each page once at t=0.
    f.kernel.spawn(touch_all(f, base, 8, /*write=*/true));
    f.kernel.spawn(touch_all(f, base + 8 * 4096, 8));
    f.kernel.run();

    // The first epoch sees every touch; the daemon re-arms what it
    // moves, so no later epoch reads its own migration as a touch.
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.heat_pages_accessed, pages);
    EXPECT_EQ(ds.heat_pages_written, 8u);
    EXPECT_GT(ds.heat_pages_sampled, ds.heat_pages_accessed);
    EXPECT_EQ(ds.promotions_completed, 2u);
    EXPECT_TRUE(f.check(base, pages * 4096, 29));
}

TEST(Managed, EpochBudgetBoundsTheDaemonsRate)
{
    MemifConfig cfg = test_managed();
    cfg.migrate_pages_per_epoch = 8;  // one bucket per epoch
    Fixture f(cfg);
    const std::uint32_t pages = 32;
    const vm::VAddr base = f.region(pages * 4096, 23);
    ASSERT_TRUE(f.dev.manage_region(base));

    f.kernel.spawn(touch_all(f, base, pages));
    f.kernel.run();

    // All four buckets still promoted (and later demoted), but spread
    // over epochs: the budget ran out at least once per direction.
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.promotions_completed, 4u);
    EXPECT_EQ(ds.demotions_completed, 4u);
    EXPECT_GE(ds.daemon_budget_exhausted, 2u);
    EXPECT_TRUE(f.check(base, pages * 4096, 23));
}

TEST(Managed, DaemonAbsorbsFaultBurstsWithoutPerturbingAppRequests)
{
    Fixture f(test_managed());
    const std::uint32_t pages = 32;
    const vm::VAddr base = f.region(pages * 4096, 41);
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(16 * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, 16 * 4096, 7);
    ASSERT_TRUE(f.dev.manage_region(base));

    // Heavy allocation-failure burst: nearly every daemon promotion
    // dies at the fast-node allocation, plus DMA TC errors rattling
    // the recovery ladder under everything.
    sim::FaultInjector &fi = f.kernel.faults();
    fi.seed(0xC001D00Dull);
    fi.arm_probability(kFaultAllocFail, 0.9);
    fi.arm_probability(dma::kFaultTcError, 0.2);

    // A concurrent app replication must ride through untouched — the
    // daemon's failures are absorbed (drop + cooldown), never retried
    // or escalated on a path the app can feel.
    const std::uint32_t idx = f.prepare(MovOp::kReplicate, src, 16, dst);
    f.kernel.spawn(touch_all(f, base, pages));
    f.kernel.spawn(f.user.submit(idx));
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 16 * 4096, 7));
    EXPECT_TRUE(f.check(base, pages * 4096, 41));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_GE(ds.daemon_movs_dropped, 1u);
    // Dropped is dropped: issued = completed + dropped, nothing lost.
    EXPECT_EQ(ds.promotions_issued + ds.demotions_issued,
              ds.promotions_completed + ds.demotions_completed +
                  ds.daemon_movs_dropped);
}

TEST(Managed, AutoMigrateOffIsInert)
{
    Fixture f(MemifConfig::mmu_aware());
    const vm::VAddr base = f.region(16 * 4096, 5);

    // The lever is off: nothing to manage, no scanner, no daemon.
    EXPECT_FALSE(f.dev.manage_region(base));
    EXPECT_EQ(f.dev.managed_region_count(), 0u);

    const vm::VAddr dst = f.proc.mmap(16 * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    const std::uint32_t idx = f.submit(MovOp::kReplicate, base, 16, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.heat_scans, 0u);
    EXPECT_EQ(ds.promotions_issued, 0u);
    EXPECT_EQ(ds.demotions_issued, 0u);
    EXPECT_EQ(f.proc.as().stats().heat_samples, 0u);
}

TEST(Managed, UnmanageStopsFutureScansOfTheRegion)
{
    Fixture f(test_managed());
    const vm::VAddr base = f.region(16 * 4096, 66);
    ASSERT_TRUE(f.dev.manage_region(base));
    ASSERT_TRUE(f.dev.manage_region(base));  // idempotent
    EXPECT_EQ(f.dev.managed_region_count(), 1u);

    f.dev.unmanage_region(base);
    EXPECT_EQ(f.dev.managed_region_count(), 0u);

    // With nothing managed the scanner parks immediately; the run ends
    // with zero daemon activity.
    f.kernel.run();
    EXPECT_EQ(f.dev.stats().promotions_issued, 0u);
    EXPECT_EQ(f.dev.stats().demotions_issued, 0u);
}

}  // namespace
}  // namespace memif::core
