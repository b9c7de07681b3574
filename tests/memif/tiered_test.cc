/**
 * @file
 * Tiered-memory tests: chained multi-hop migration between the SRAM
 * and far tiers (staged through DDR), pipelined batch overlap, and the
 * per-hop recovery ladder — injected TC errors and lost IRQs on the
 * second hop of a demotion chain must either be absorbed hop-locally
 * or roll the whole chain back with no leaked staging frames or
 * descriptor leases (the fixture's quiesce sweep checks both).
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "dma/engine.h"
#include "mem/buddy.h"
#include "mem/phys.h"
#include "memif_fixture.h"
#include "sim/types.h"

namespace memif::core {
namespace {

MemifConfig
tiered_cfg()
{
    // The tiered lever pair alone, without the managed daemon — these
    // tests drive migrations by hand and must not share the machine
    // with scanner-originated movs.
    MemifConfig cfg;
    cfg.tiered_memory = true;
    cfg.pipelined_eviction = true;
    // Hop stages overlap across transfer controllers; pinning every
    // stage to one TC would serialize them at the engine.
    cfg.multi_tc_dispatch = true;
    return cfg;
}

/** The shared fixture with a far tier, on tiered_cfg() by default. */
struct Fixture : test::MemifFixture {
    explicit Fixture(MemifConfig cfg = tiered_cfg(),
                     std::uint64_t far_bytes = 64ull << 20)
        : MemifFixture(cfg, os::KernelConfig{.far_bytes = far_bytes})
    {
    }

    std::uint32_t
    migrate(vm::VAddr src, std::uint32_t npages, mem::NodeId dst_node)
    {
        return submit(MovOp::kMigrate, src, npages, dst_node);
    }
};

TEST(Tiered, DemotionToFarChainsThroughDdr)
{
    Fixture f;
    const vm::VAddr base = f.region(8 * 4096, 42, f.kernel.fast_node());

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 42));
    f.expect_on_node(base, 8, f.kernel.far_node());
    // One chain, one batch (8 <= 16-page batches), two hop stages.
    EXPECT_EQ(f.dev.stats().chained_migrations, 1u);
    EXPECT_EQ(f.dev.stats().chain_batches, 1u);
    EXPECT_EQ(f.dev.stats().hop_stages_issued, 2u);
    EXPECT_EQ(f.dev.stats().hop_stages_completed, 2u);
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
    EXPECT_GT(f.dev.stats().staging_frames_hwm, 0u);
}

TEST(Tiered, AdjacentMigrationsNeverChain)
{
    // slow↔far and fast↔slow are one SLIT hop apart: no middle node is
    // strictly closer to both endpoints, so these stay single-transfer
    // moves even with the lever on.
    Fixture f;
    const vm::VAddr base = f.region(8 * 4096, 9);

    const std::uint32_t to_far = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();
    EXPECT_EQ(f.user.request(to_far).load_status(), MovStatus::kDone);
    const std::uint32_t back = f.migrate(base, 8, f.kernel.slow_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(back).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 9));
    EXPECT_EQ(f.dev.stats().chained_migrations, 0u);
    EXPECT_EQ(f.dev.stats().hop_stages_issued, 0u);
}

TEST(Tiered, PromotionFromFarChainsBack)
{
    Fixture f;
    const vm::VAddr base = f.region(16 * 4096, 77, f.kernel.fast_node());

    const std::uint32_t down = f.migrate(base, 16, f.kernel.far_node());
    f.kernel.run();
    ASSERT_EQ(f.user.request(down).load_status(), MovStatus::kDone);
    const std::uint32_t up = f.migrate(base, 16, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(up).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 16 * 4096, 77));
    f.expect_on_node(base, 16, f.kernel.fast_node());
    EXPECT_EQ(f.dev.stats().chained_migrations, 2u);
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
}

TEST(Tiered, PipelinedBatchesOverlapAndBeatSequential)
{
    auto run = [](bool pipelined) {
        MemifConfig cfg = tiered_cfg();
        cfg.pipelined_eviction = pipelined;
        Fixture f(cfg);
        const vm::VAddr base = f.region(64 * 4096, 5, f.kernel.fast_node());
        const std::uint32_t idx =
            f.migrate(base, 64, f.kernel.far_node());
        f.kernel.run();
        EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
        EXPECT_TRUE(f.check(base, 64 * 4096, 5));
        EXPECT_EQ(f.dev.stats().chain_batches, 4u);  // 64 / 16
        EXPECT_EQ(f.dev.stats().hop_stages_issued, 8u);
        if (pipelined)
            EXPECT_GT(f.dev.stats().hop_overlap_events, 0u);
        else
            EXPECT_EQ(f.dev.stats().hop_overlap_events, 0u);
        return f.kernel.eq().now();
    };
    const std::uint64_t sequential = run(false);
    const std::uint64_t pipelined = run(true);
    EXPECT_LT(pipelined, sequential)
        << "out-of-order hop stages must beat store-and-forward";
}

TEST(Tiered, TcErrorOnSecondHopIsRetriedHopLocally)
{
    // The error hits hop 2 only; hop 1's copy into staging is already
    // safe, so recovery replays just the second stage.
    Fixture f;
    const vm::VAddr base = f.region(8 * 4096, 31, f.kernel.fast_node());
    f.faults().arm_nth(dma::kFaultTcError, 2);

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 31));
    f.expect_on_node(base, 8, f.kernel.far_node());
    EXPECT_EQ(f.dev.stats().dma_errors, 1u);
    EXPECT_EQ(f.dev.stats().hop_retries, 1u);
    EXPECT_EQ(f.dev.stats().hop_stages_issued, 3u);  // 2 + 1 replay
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().transfers_failed, 1u);
}

TEST(Tiered, UnrecoverableSecondHopRollsBackTheWholeChain)
{
    // Ladder exhausted mid-chain (no retries, no CPU fallback): the
    // master restores the old PTEs and frees the new frames. Hop 1's
    // bytes sat in staging frames no PTE ever pointed at, so partial
    // progress is invisible — and the staging lease must be returned
    // (fixture teardown asserts the pool drained).
    MemifConfig cfg = tiered_cfg();
    cfg.cpu_copy_fallback = false;
    cfg.dma_max_retries = 0;
    Fixture f(cfg);
    const vm::VAddr base = f.region(8 * 4096, 63, f.kernel.fast_node());
    const std::uint64_t outstanding_before =
        f.kernel.phys().outstanding_pages();
    f.faults().arm_nth(dma::kFaultTcError, 2);  // second hop only

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx).error, MovError::kDmaError);
    EXPECT_TRUE(f.check(base, 8 * 4096, 63));
    f.expect_on_node(base, 8, f.kernel.fast_node());
    EXPECT_EQ(f.kernel.phys().outstanding_pages(), outstanding_before);
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 1u);
    EXPECT_EQ(f.dev.stats().rollbacks, 1u);
    // The region stays usable after the rollback.
    f.fill(base, 8 * 4096, 64);
    EXPECT_TRUE(f.check(base, 8 * 4096, 64));
}

TEST(Tiered, LostIrqOnSecondHopIsCaughtByTheHopDeadline)
{
    // The transfer completes but its IRQ is dropped: the hop's own
    // deadline timer fires, the stage reads the clean completion and
    // reclaims the descriptor lease itself — no retry, no second copy,
    // no leaked lease (teardown quiesce).
    Fixture f;
    const vm::VAddr base = f.region(8 * 4096, 88, f.kernel.fast_node());
    f.faults().arm_nth(dma::kFaultLostIrq, 2);

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 88));
    f.expect_on_node(base, 8, f.kernel.far_node());
    // The transfer itself completed, so the deadline wake reads a
    // clean record and nothing is recopied. The deadline still caught
    // a lost interrupt, which counts as one timeout — the same rule
    // Recovery.LostInterruptIsCaughtByWatchdog pins for flights.
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 1u);
    EXPECT_EQ(f.dev.stats().hop_retries, 0u);
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().interrupts_lost, 1u);
}

TEST(Tiered, PersistentHopErrorFallsBackToCpuCopy)
{
    // Every transfer errors: each hop burns its retries then the CPU
    // copies that hop's bytes — the chain still completes end to end.
    Fixture f;
    const vm::VAddr base = f.region(8 * 4096, 19, f.kernel.fast_node());
    f.faults().arm_probability(dma::kFaultTcError, 1.0);

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 19));
    f.expect_on_node(base, 8, f.kernel.far_node());
    EXPECT_EQ(f.dev.stats().hop_fallback_copies, 2u);  // one per hop
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
}

TEST(Tiered, LeverOffNeverChains)
{
    // Same machine (far node present), lever off: a fast→far migration
    // is one direct transfer, as before the tier shipped.
    Fixture f{MemifConfig{}};
    const vm::VAddr base = f.region(8 * 4096, 50, f.kernel.fast_node());

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 50));
    f.expect_on_node(base, 8, f.kernel.far_node());
    EXPECT_EQ(f.dev.stats().chained_migrations, 0u);
    EXPECT_EQ(f.dev.stats().hop_stages_issued, 0u);
}

TEST(Tiered, ExhaustedMiddleTierDegradesEachBatchToOneDirectHop)
{
    // Every DDR frame is taken, so no batch can lease staging frames:
    // each one degrades to a single direct SRAM→far hop instead of
    // failing, and the move still lands intact.
    Fixture f;
    const vm::VAddr base = f.region(32 * 4096, 27, f.kernel.fast_node());
    mem::PhysicalMemory &pm = f.kernel.phys();
    std::vector<std::pair<mem::Pfn, unsigned>> held;
    for (unsigned order = mem::BuddyAllocator::kMaxOrder + 1; order-- > 0;)
        for (mem::Pfn pfn; (pfn = pm.allocate(f.kernel.slow_node(),
                                              order)) != mem::kInvalidPfn;)
            held.emplace_back(pfn, order);
    ASSERT_FALSE(
        pm.node(f.kernel.slow_node()).buddy().can_allocate(0));

    const std::uint32_t idx = f.migrate(base, 32, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 32 * 4096, 27));
    f.expect_on_node(base, 32, f.kernel.far_node());
    EXPECT_EQ(f.dev.stats().chained_migrations, 1u);
    EXPECT_EQ(f.dev.stats().chain_batches, 2u);  // 32 / 16
    EXPECT_EQ(f.dev.stats().hop_stages_issued,
              f.dev.stats().chain_batches);
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
    std::string why;
    EXPECT_TRUE(f.dev.check_quiesced(&why)) << why;
    for (const auto &[pfn, order] : held) pm.free(pfn, order);
}

// ---------------------------------------------------------------------
// The registration invariant: a migration's PTE stores and its flight
// registration happen in one synchronous stretch, before the Remap
// charge. A replication whose walk runs any time after that stretch
// sees the blocking PTEs and bounces kBusy instead of copying into
// frames the migration abandons at Release.
// ---------------------------------------------------------------------

MemifConfig
invariant_cfg()
{
    MemifConfig cfg = tiered_cfg();
    cfg.strided_dma = true;
    // Per-CPU submission rings: the second submitter's kick serves its
    // request in its own syscall context, concurrently with the
    // migration's serve instead of queued behind it.
    cfg.percpu_rings = true;
    return cfg;
}

/** A 32-page SRAM region demoting to far (a chained move, so its PTEs
 *  are blocking migration PTEs for the whole chain) and a DDR source
 *  the replications copy from. */
struct InvariantSetup {
    Fixture f{invariant_cfg()};
    MemifUser other{f.dev, 1};
    vm::VAddr mig = 0;
    vm::VAddr src = 0;
    std::uint32_t m = kNoRequest;

    InvariantSetup()
    {
        mig = f.region(32 * 4096, 7, f.kernel.fast_node());
        src = f.region(32 * 4096, 99);
        m = f.migrate(mig, 32, f.kernel.far_node());
    }

    /** Until the migration is registered (and its PTEs are live). */
    sim::Task
    wait_registered()
    {
        while (f.user.request(m).load_status() != MovStatus::kInFlight)
            co_await sim::Delay{f.kernel.eq(), 100};
    }

    /** A flat 32-page replication src -> mig from the other CPU. */
    std::uint32_t
    flat_replication()
    {
        const std::uint32_t idx = other.alloc_request();
        MovReq &req = other.request(idx);
        req.op = MovOp::kReplicate;
        req.src_base = src;
        req.dst_base = mig;
        req.num_pages = 32;
        return idx;
    }

    /** The migration finished with its bytes intact on the far node,
     *  and the replication source is untouched. */
    void
    expect_migration_intact()
    {
        EXPECT_EQ(f.user.request(m).load_status(), MovStatus::kDone);
        EXPECT_TRUE(f.check(mig, 32 * 4096, 7));
        f.expect_on_node(mig, 32, f.kernel.far_node());
        EXPECT_TRUE(f.check(src, 32 * 4096, 99));
    }
};

TEST(Tiered, FlatAndStridedReplicationIntoAMigratingDestinationBounceBusy)
{
    InvariantSetup s;
    std::uint32_t flat = kNoRequest, strided = kNoRequest;
    auto late = [&]() -> sim::Task {
        co_await s.wait_registered();
        flat = s.flat_replication();
        co_await s.other.submit(flat);
        strided = s.other.alloc_request();
        MovReq &req = s.other.request(strided);
        req.op = MovOp::kReplicate;
        req.src_base = s.src;
        req.dst_base = s.mig + 100;
        req.rows = 16;
        req.row_bytes = 1000;
        req.src_pitch = 4096;
        req.dst_pitch = 3000;
        co_await s.other.submit(strided);
    };
    sim::Task t = late();
    s.f.kernel.run();

    for (const std::uint32_t idx : {flat, strided}) {
        ASSERT_NE(idx, kNoRequest);
        EXPECT_EQ(s.other.request(idx).load_status(), MovStatus::kFailed);
        EXPECT_EQ(s.other.request(idx).error, MovError::kBusy);
    }
    s.expect_migration_intact();
    // Both went through the row walk; only the strided one counts as
    // strided, and neither became a replication.
    EXPECT_EQ(s.f.dev.stats().strided_requests, 1u);
    EXPECT_EQ(s.f.dev.stats().replications, 0u);
}

TEST(Tiered, ReplicationReachingPrepDuringTheRemapChargeIsRejected)
{
    InvariantSetup s;
    s.f.kernel.tracer().enable();
    const auto at = [&](sim::TracePoint p, std::uint32_t req) {
        const std::optional<sim::SimTime> t = s.f.traced(p, req);
        EXPECT_TRUE(t) << "no trace point for " << req;
        return t.value_or(0);
    };
    std::uint32_t r = kNoRequest;
    auto late = [&]() -> sim::Task {
        // Submit once the migration's Prep is done: its PTE stores, its
        // registration and its Remap charge all start at that instant,
        // so the replication's walk lands inside the charge.
        while (!s.f.traced(sim::TracePoint::kPrepDone, s.m))
            co_await sim::Delay{s.f.kernel.eq(), 100};
        r = s.flat_replication();
        co_await s.other.submit(r);
    };
    sim::Task t = late();
    s.f.kernel.run();
    ASSERT_NE(r, kNoRequest);

    // The replication's serve began inside the migration's Remap
    // charge.
    const sim::SimTime serve = at(sim::TracePoint::kServeBegin, r);
    EXPECT_GT(serve, at(sim::TracePoint::kPrepDone, s.m));
    EXPECT_LT(serve, at(sim::TracePoint::kRemapDone, s.m));

    EXPECT_EQ(s.other.request(r).load_status(), MovStatus::kFailed);
    EXPECT_EQ(s.other.request(r).error, MovError::kBusy);
    s.expect_migration_intact();

    // Retried once the migration is done, the replication lands: no
    // bytes of either move are lost.
    const std::uint32_t retry = s.flat_replication();
    s.f.kernel.spawn(s.other.submit(retry));
    s.f.kernel.run();
    EXPECT_EQ(s.other.request(retry).load_status(), MovStatus::kDone);
    EXPECT_TRUE(s.f.check(s.mig, 32 * 4096, 99));
    EXPECT_TRUE(s.f.check(s.src, 32 * 4096, 99));
}

}  // namespace
}  // namespace memif::core
