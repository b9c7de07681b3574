/**
 * @file
 * Multi-tenant service layer tests: per-ASID address spaces, admission
 * quotas (in-flight and frames) with retry-after hints, weighted
 * round-robin dispatch, queue-depth load shedding, and the recovery
 * ladder (retry / CPU-copy fallback / rollback) under concurrent
 * multi-tenant load. Every scenario must leave per-tenant quota
 * accounting at zero (no cross-tenant frame leaks) and the device
 * fully quiesced.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <vector>

#include "dma/engine.h"
#include "memif_fixture.h"
#include "os/page_migration.h"
#include "sim/types.h"

namespace memif::core {
namespace {

/** The shared fixture plus @p extra registered tenants, each with its
 *  own address space and one MemifUser handle. The owner is tenant 0;
 *  its handle is the fixture's user. */
struct MtFixture : test::MemifFixture {
    std::vector<os::Process *> procs;  ///< index == asid
    std::vector<MemifUser *> users;    ///< index == asid

    MtFixture(MemifConfig cfg, std::uint32_t extra_tenants)
        : MemifFixture(cfg), procs{&proc}, users{&user}
    {
        for (std::uint32_t t = 1; t <= extra_tenants; ++t) {
            os::Process &p = kernel.create_process();
            EXPECT_EQ(dev.register_tenant(p), t);
            procs.push_back(&p);
            users.push_back(&tenant_users_.emplace_back(dev, t, t));
        }
    }

    void
    fill(std::uint32_t asid, vm::VAddr base, std::uint64_t bytes,
         std::uint8_t seed)
    {
        std::vector<std::uint8_t> buf(bytes);
        memif::check::fill_pattern(seed, buf);
        ASSERT_TRUE(procs[asid]->as().write(base, buf.data(), bytes));
    }

    bool
    check(std::uint32_t asid, vm::VAddr base, std::uint64_t bytes,
          std::uint8_t seed)
    {
        std::vector<std::uint8_t> buf(bytes);
        if (!procs[asid]->as().read(base, buf.data(), bytes))
            return false;
        std::vector<std::uint8_t> want(bytes);
        memif::check::fill_pattern(seed, want);
        return buf == want;
    }

    std::uint32_t
    prepare(std::uint32_t asid, MovOp op, vm::VAddr src,
            std::uint32_t npages, vm::VAddr dst_or_node)
    {
        MemifUser &u = *users[asid];
        const std::uint32_t idx = u.alloc_request();
        EXPECT_NE(idx, kNoRequest);
        MovReq &req = u.request(idx);
        req.op = op;
        req.src_base = src;
        req.num_pages = npages;
        if (op == MovOp::kReplicate)
            req.dst_base = dst_or_node;
        else
            req.dst_node = static_cast<std::uint32_t>(dst_or_node);
        return idx;
    }

    std::uint32_t
    submit(std::uint32_t asid, MovOp op, vm::VAddr src,
           std::uint32_t npages, vm::VAddr dst_or_node)
    {
        const std::uint32_t idx =
            prepare(asid, op, src, npages, dst_or_node);
        kernel.spawn(users[asid]->submit(idx));
        return idx;
    }

  private:
    std::deque<MemifUser> tenant_users_;
};

MemifConfig
mt_config()
{
    MemifConfig cfg;
    cfg.multi_tenant = true;
    return cfg;
}

TEST(MultiTenant, LeverOffTenancyIsInert)
{
    MemifConfig cfg;  // multi_tenant = false
    MtFixture f(cfg, 0);
    // The owner is tenant 0 with or without the lever.
    EXPECT_EQ(f.dev.num_tenants(), 1u);

    const vm::VAddr src = f.proc.mmap(4 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(4 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(0, src, 4 * 4096, 9);
    const std::uint32_t idx =
        f.submit(0, MovOp::kReplicate, src, 4, dst);
    f.kernel.run();

    EXPECT_EQ(f.users[0]->request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().admission_rejections, 0u);
    EXPECT_EQ(f.dev.stats().wrr_dispatches, 0u);
    EXPECT_EQ(f.dev.stats().shed_requests, 0u);
    EXPECT_EQ(f.dev.fairness_ratio(), 1.0);
}

/**
 * Teardown: every address space the device hooked — the owner's and
 * each registered tenant's — must be unhooked when it goes, since the
 * processes outlive it. Runs one migration per address space (filling
 * the translation caches), destroys the device, then touches, remaps
 * and unmaps pages in every address space. A hook left behind would
 * call into the dead device (a use-after-free under ASan).
 */
void
remap_after_teardown(bool multi_tenant)
{
    MemifConfig cfg;
    cfg.race_policy = RacePolicy::kRecover;
    cfg.driver_caches = true;
    cfg.multi_tenant = multi_tenant;
    MtFixture f(cfg, multi_tenant ? 1 : 0);
    ASSERT_EQ(f.dev.num_tenants(), f.procs.size());

    std::vector<vm::VAddr> bases;
    for (std::uint32_t asid = 0; asid < f.procs.size(); ++asid) {
        bases.push_back(f.procs[asid]->mmap(8 * 4096, vm::PageSize::k4K));
        const std::uint32_t idx = f.submit(asid, MovOp::kMigrate,
                                           bases[asid], 8,
                                           f.kernel.fast_node());
        f.kernel.run();
        EXPECT_EQ(f.users[asid]->request(idx).load_status(),
                  MovStatus::kDone)
            << "asid " << asid;
    }
    EXPECT_GT(f.dev.stats().xlate_misses, 0u);
    f.close_device();

    for (std::uint32_t asid = 0; asid < f.procs.size(); ++asid) {
        os::Process &p = *f.procs[asid];
        os::TouchOutcome out;
        f.kernel.spawn(p.touch(bases[asid], /*write=*/true, &out));
        os::MigrationResult moved;
        f.kernel.spawn(os::migrate_pages_sync(p, bases[asid], 8,
                                              f.kernel.slow_node(), &moved));
        f.kernel.run();
        EXPECT_EQ(out.result, vm::AccessResult::kOk) << "asid " << asid;
        EXPECT_EQ(moved.pages_moved, 8u) << "asid " << asid;
        p.as().munmap(bases[asid]);
    }
}

TEST(MultiTenant, TeardownUnhooksOwnerAndTenants)
{
    remap_after_teardown(/*multi_tenant=*/true);
}

TEST(MultiTenant, LeverOffTeardownUnhooksTheOwner)
{
    remap_after_teardown(/*multi_tenant=*/false);
}

TEST(MultiTenant, PerAsidAddressSpacesAreIsolated)
{
    MtFixture f(mt_config(), 2);
    ASSERT_EQ(f.dev.num_tenants(), 3u);

    // Every process's mmap arena starts at the same virtual base, so
    // tenants 1 and 2 get IDENTICAL virtual addresses backed by
    // different physical pages — the strongest translation-isolation
    // probe available: a request routed through the wrong page table
    // would visibly corrupt the other tenant's bytes.
    const vm::VAddr src1 = f.procs[1]->mmap(8 * 4096, vm::PageSize::k4K);
    const vm::VAddr src2 = f.procs[2]->mmap(8 * 4096, vm::PageSize::k4K);
    ASSERT_EQ(src1, src2);
    const vm::VAddr dst1 = f.procs[1]->mmap(8 * 4096, vm::PageSize::k4K,
                                            f.kernel.fast_node());
    const vm::VAddr dst2 = f.procs[2]->mmap(8 * 4096, vm::PageSize::k4K,
                                            f.kernel.fast_node());
    ASSERT_EQ(dst1, dst2);
    f.fill(1, src1, 8 * 4096, 11);
    f.fill(2, src2, 8 * 4096, 77);
    f.fill(1, dst1, 8 * 4096, 1);
    f.fill(2, dst2, 8 * 4096, 2);

    const std::uint32_t i1 =
        f.submit(1, MovOp::kReplicate, src1, 8, dst1);
    const std::uint32_t i2 =
        f.submit(2, MovOp::kReplicate, src2, 8, dst2);
    f.kernel.run();

    EXPECT_EQ(f.users[1]->request(i1).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.users[2]->request(i2).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(1, dst1, 8 * 4096, 11));
    EXPECT_TRUE(f.check(2, dst2, 8 * 4096, 77));
    // Sources untouched, and neither tenant saw the other's pattern.
    EXPECT_TRUE(f.check(1, src1, 8 * 4096, 11));
    EXPECT_TRUE(f.check(2, src2, 8 * 4096, 77));
    EXPECT_EQ(f.dev.tenant_stats(1).completed, 1u);
    EXPECT_EQ(f.dev.tenant_stats(2).completed, 1u);
    EXPECT_GE(f.dev.stats().wrr_dispatches, 2u);
}

TEST(MultiTenant, InflightQuotaRejectsWithRetryHint)
{
    MemifConfig cfg = mt_config();
    cfg.tenant_inflight_quota = 1;
    MtFixture f(cfg, 1);

    const vm::VAddr src = f.procs[1]->mmap(12 * 4096, vm::PageSize::k4K);
    f.fill(1, src, 12 * 4096, 5);

    // Admission runs synchronously at submit: with a quota of one, the
    // first of the batch is admitted and the other two bounce with
    // kNoSpace before anything reaches the kernel.
    std::vector<std::uint32_t> idxs;
    for (std::uint32_t i = 0; i < 3; ++i)
        idxs.push_back(f.prepare(1, MovOp::kMigrate, src + i * 4 * 4096,
                                 4, f.kernel.fast_node()));
    f.kernel.spawn(f.users[1]->submit_many(idxs));
    f.kernel.run();

    std::uint32_t done = 0, bounced = 0;
    for (const std::uint32_t idx : idxs) {
        const MovReq &req = f.users[1]->request(idx);
        if (req.load_status() == MovStatus::kDone) {
            ++done;
        } else {
            EXPECT_EQ(req.load_status(), MovStatus::kFailed);
            EXPECT_EQ(req.error, MovError::kNoSpace);
            EXPECT_GT(req.retry_after_us, 0u);
            EXPECT_LE(req.retry_after_us, 10000u);
            ++bounced;
        }
    }
    EXPECT_EQ(done, 1u);
    EXPECT_EQ(bounced, 2u);
    EXPECT_EQ(f.dev.stats().admission_rejections, 2u);
    EXPECT_EQ(f.dev.stats().quota_hits_inflight, 2u);
    EXPECT_EQ(f.dev.stats().quota_hits_frames, 0u);
    EXPECT_EQ(f.dev.tenant_stats(1).rejected, 2u);
    EXPECT_EQ(f.dev.tenant_stats(1).admitted, 1u);
    EXPECT_EQ(f.users[1]->stats().rejected, 2u);
}

TEST(MultiTenant, FrameQuotaRejectsOversizedMigration)
{
    MemifConfig cfg = mt_config();
    cfg.tenant_frame_quota = 4;  // transient-frame budget: 4 x 4 KB
    MtFixture f(cfg, 1);

    const vm::VAddr src = f.procs[1]->mmap(8 * 4096, vm::PageSize::k4K);
    f.fill(1, src, 8 * 4096, 21);

    // 8 destination frames would double-charge past the 4-frame quota.
    const std::uint32_t big =
        f.submit(1, MovOp::kMigrate, src, 8, f.kernel.fast_node());
    // 2 frames fit, so a small migration from the same tenant sails
    // through even while the big one is being bounced.
    const std::uint32_t small =
        f.submit(1, MovOp::kMigrate, src, 2, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.users[1]->request(big).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.users[1]->request(big).error, MovError::kNoSpace);
    // 8 frames can never fit a 4-frame quota no matter how far the
    // tenant drains: a zero hint tells the client not to retry.
    EXPECT_EQ(f.users[1]->request(big).retry_after_us, 0u);
    EXPECT_EQ(f.users[1]->request(small).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().quota_hits_frames, 1u);
    EXPECT_TRUE(f.check(1, src, 8 * 4096, 21));
}

TEST(MultiTenant, QueueDepthBoundShedsBacklog)
{
    MemifConfig cfg = mt_config();
    cfg.tenant_queue_depth = 1;  // x weight 1: at most one waiter
    MtFixture f(cfg, 1);

    const vm::VAddr src = f.procs[1]->mmap(12 * 4096, vm::PageSize::k4K);
    f.fill(1, src, 12 * 4096, 33);

    std::vector<std::uint32_t> idxs;
    for (std::uint32_t i = 0; i < 6; ++i)
        idxs.push_back(f.prepare(1, MovOp::kMigrate, src + i * 2 * 4096,
                                 2, f.kernel.fast_node()));
    f.kernel.spawn(f.users[1]->submit_many(idxs));
    f.kernel.run();

    std::uint32_t done = 0, shed = 0;
    for (const std::uint32_t idx : idxs) {
        const MovReq &req = f.users[1]->request(idx);
        if (req.load_status() == MovStatus::kDone) {
            ++done;
        } else {
            EXPECT_EQ(req.error, MovError::kNoSpace);
            ++shed;
        }
    }
    // All six pass admission (quota 32), but the dispatcher's bounded
    // queue sheds whatever exceeds one waiter at drain time.
    EXPECT_GE(done, 1u);
    EXPECT_GE(shed, 1u);
    EXPECT_EQ(done + shed, 6u);
    EXPECT_EQ(f.dev.stats().shed_requests, shed);
    EXPECT_EQ(f.dev.tenant_stats(1).shed, shed);
}

TEST(MultiTenant, RecoveryFallbackKeepsTenantAccountingClean)
{
    // Every DMA transfer errors: the ladder retries then falls back to
    // CPU copies, concurrently for two tenants. Both must complete
    // with intact data and zeroed quota charges (checked in teardown).
    MtFixture f(mt_config(), 2);
    f.faults().arm_probability(dma::kFaultTcError, 1.0);

    const vm::VAddr b1 = f.procs[1]->mmap(8 * 4096, vm::PageSize::k4K);
    const vm::VAddr b2 = f.procs[2]->mmap(8 * 4096, vm::PageSize::k4K);
    f.fill(1, b1, 8 * 4096, 40);
    f.fill(2, b2, 8 * 4096, 50);

    const std::uint32_t i1 =
        f.submit(1, MovOp::kMigrate, b1, 8, f.kernel.fast_node());
    const std::uint32_t i2 =
        f.submit(2, MovOp::kMigrate, b2, 8, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.users[1]->request(i1).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.users[2]->request(i2).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(1, b1, 8 * 4096, 40));
    EXPECT_TRUE(f.check(2, b2, 8 * 4096, 50));
    EXPECT_GE(f.dev.stats().fallback_copies, 2u);
    EXPECT_EQ(f.dev.tenant_stats(1).completed, 1u);
    EXPECT_EQ(f.dev.tenant_stats(2).completed, 1u);
    // Equal work from equal-weight tenants: the tripwire stays calm.
    EXPECT_GE(f.dev.fairness_ratio(), 1.0);
    EXPECT_LE(f.dev.fairness_ratio(), 2.0);
}

TEST(MultiTenant, RollbackUnchargesTheFailingTenantOnly)
{
    // Retries exhausted with no fallback: the first transfer's tenant
    // rolls back (uncharging its transient frames) while the bystander
    // tenant completes normally. The teardown sweep then proves the
    // rollback returned exactly the failing tenant's charge — no
    // cross-tenant frame leak.
    MemifConfig cfg = mt_config();
    cfg.cpu_copy_fallback = false;
    cfg.dma_max_retries = 0;
    MtFixture f(cfg, 2);
    f.faults().arm_nth(dma::kFaultTcError, 1);

    const vm::VAddr b1 = f.procs[1]->mmap(8 * 4096, vm::PageSize::k4K);
    const vm::VAddr b2 = f.procs[2]->mmap(8 * 4096, vm::PageSize::k4K);
    f.fill(1, b1, 8 * 4096, 60);
    f.fill(2, b2, 8 * 4096, 70);
    const std::uint64_t baseline = f.kernel.phys().outstanding_pages();

    const std::uint32_t i1 =
        f.submit(1, MovOp::kMigrate, b1, 8, f.kernel.fast_node());
    f.kernel.run();
    const std::uint32_t i2 =
        f.submit(2, MovOp::kMigrate, b2, 8, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.users[1]->request(i1).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.users[1]->request(i1).error, MovError::kDmaError);
    EXPECT_EQ(f.users[2]->request(i2).load_status(), MovStatus::kDone);
    // Rolled-back migration preserves content; frames balance.
    EXPECT_TRUE(f.check(1, b1, 8 * 4096, 60));
    EXPECT_TRUE(f.check(2, b2, 8 * 4096, 70));
    EXPECT_EQ(f.kernel.phys().outstanding_pages(),
              baseline + f.dev.magazine_pages());
}

TEST(MultiTenant, AllocFailBurstStormDegradesGracefully)
{
    // A sustained allocation-pressure storm (deterministic square
    // wave: 2 of every 8 page allocations fail; the quiet phase is
    // wide enough for a whole 4-page request to get through).
    // Requests may fail with kNoMemory but nothing hangs, accounting
    // balances, and the outcome replays identically — no seed
    // involved.
    auto run_once = [](std::uint32_t *done, std::uint32_t *failed) {
        MtFixture f(mt_config(), 2);
        f.faults().arm_burst(kFaultAllocFail, 8, 2);
        std::vector<vm::VAddr> base(3);
        for (std::uint32_t t = 1; t <= 2; ++t) {
            base[t] = f.procs[t]->mmap(16 * 4096, vm::PageSize::k4K);
            f.fill(t, base[t], 16 * 4096,
                   static_cast<std::uint8_t>(t * 3));
        }
        std::vector<std::pair<std::uint32_t, std::uint32_t>> subs;
        for (std::uint32_t t = 1; t <= 2; ++t)
            for (std::uint32_t i = 0; i < 4; ++i)
                subs.emplace_back(
                    t, f.submit(t, MovOp::kMigrate,
                                base[t] + i * 4 * 4096, 4,
                                f.kernel.fast_node()));
        f.kernel.run();
        *done = *failed = 0;
        for (const auto &[t, idx] : subs) {
            const MovReq &req = f.users[t]->request(idx);
            if (req.load_status() == MovStatus::kDone) {
                ++*done;
            } else {
                EXPECT_EQ(req.load_status(), MovStatus::kFailed);
                EXPECT_EQ(req.error, MovError::kNoMemory);
                ++*failed;
            }
        }
        for (std::uint32_t t = 1; t <= 2; ++t)
            EXPECT_TRUE(f.check(t, base[t], 16 * 4096,
                                static_cast<std::uint8_t>(t * 3)));
    };
    std::uint32_t done_a = 0, failed_a = 0, done_b = 0, failed_b = 0;
    run_once(&done_a, &failed_a);
    run_once(&done_b, &failed_b);
    EXPECT_EQ(done_a + failed_a, 8u);
    EXPECT_GT(failed_a, 0u);  // the storm actually bit
    EXPECT_GT(done_a, 0u);    // ... but did not starve everyone
    EXPECT_EQ(done_a, done_b);
    EXPECT_EQ(failed_a, failed_b);
}

TEST(MultiTenant, WeightedTenantsAndStatsReport)
{
    MtFixture f(mt_config(), 2);
    f.dev.set_tenant_weight(1, 4);
    EXPECT_EQ(f.dev.tenant_stats(1).weight, 4u);
    EXPECT_EQ(f.dev.tenant_stats(2).weight, 1u);

    std::vector<vm::VAddr> base(3);
    for (std::uint32_t t = 1; t <= 2; ++t) {
        base[t] = f.procs[t]->mmap(16 * 4096, vm::PageSize::k4K);
        f.fill(t, base[t], 16 * 4096, static_cast<std::uint8_t>(t + 1));
    }
    for (std::uint32_t t = 1; t <= 2; ++t) {
        std::vector<std::uint32_t> idxs;
        for (std::uint32_t i = 0; i < 4; ++i)
            idxs.push_back(f.prepare(t, MovOp::kMigrate,
                                     base[t] + i * 4 * 4096, 4,
                                     f.kernel.fast_node()));
        f.kernel.spawn(f.users[t]->submit_many(idxs));
    }
    f.kernel.run();

    EXPECT_EQ(f.dev.tenant_stats(1).completed, 4u);
    EXPECT_EQ(f.dev.tenant_stats(2).completed, 4u);
    EXPECT_EQ(f.dev.tenant_stats(1).bytes_moved, 16u * 4096);
    EXPECT_EQ(f.dev.tenant_stats(2).bytes_moved, 16u * 4096);
    EXPECT_GE(f.dev.stats().wrr_dispatches, 8u);
    EXPECT_EQ(f.dev.fairness_ratio(), 1.0);

    // The stats report renders without tripping any assertion.
    std::FILE *sink = std::fopen("/dev/null", "w");
    ASSERT_NE(sink, nullptr);
    f.dev.print_stats(sink);
    std::fclose(sink);
}

}  // namespace
}  // namespace memif::core
