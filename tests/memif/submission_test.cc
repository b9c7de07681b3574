/**
 * @file
 * Tests of the PR 4 submission-path levers: the gang translation cache
 * (hit/miss accounting and — critically — generation invalidation from
 * remap, munmap and the racing young-bit CAS), bulk frame allocation
 * through the per-node magazines (no leaked frames, rollback included),
 * and per-CPU submission rings. All levers default to off; the first
 * test pins that down.
 */
#include <gtest/gtest.h>

#include <vector>

#include "memif/device.h"
#include "memif_fixture.h"
#include "os/page_migration.h"
#include "sim/types.h"

namespace memif::core {
namespace {

constexpr std::uint32_t kPages = 64;
constexpr std::uint64_t kBytes = kPages * 4096ull;

MemifConfig
cached(RacePolicy policy = RacePolicy::kDetect)
{
    MemifConfig mc;
    mc.capacity = 64;
    mc.race_policy = policy;
    mc.poll_threshold_bytes = 0;  // irq-driven: leaves a DMA window
    mc.driver_caches = true;
    return mc;
}

struct Fixture : test::MemifFixture {
    using MemifFixture::MemifFixture;

    /** Submit a migration and run the machine to quiescence. */
    MovStatus
    migrate(vm::VAddr src, std::uint32_t npages, mem::NodeId dst)
    {
        const std::uint32_t idx = submit(MovOp::kMigrate, src, npages, dst);
        kernel.run();
        const MovStatus st = user.request(idx).load_status();
        user.free_request(idx);
        return st;
    }
};

// --------------------------------------------------------------------
// In-flight records come from a pool.
// --------------------------------------------------------------------

TEST(FlightPool, RetiredFlightStaysDeadWhenItsStorageIsReused)
{
    Fixture f{cached()};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    // Step the machine until request idx has its in-flight record.
    const auto in_flight = [&f](std::uint32_t idx) {
        while (f.user.request(idx).load_status() != MovStatus::kInFlight)
            if (!f.kernel.eq().step()) break;
        return f.dev.flight_handle(idx);
    };

    const std::uint32_t a =
        f.submit(MovOp::kMigrate, base, kPages, f.kernel.fast_node());
    const std::weak_ptr<const void> first = in_flight(a);
    const void *storage = first.lock().get();
    ASSERT_NE(storage, nullptr);
    f.kernel.run();
    ASSERT_EQ(f.user.request(a).load_status(), MovStatus::kDone);
    f.user.free_request(a);
    // The record retires when its finished supervisor is reaped, at the
    // next spawn: during the next request, after that one's record was
    // made. So it is the request after next that reuses the storage.
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.slow_node()),
              MovStatus::kDone);
    EXPECT_TRUE(first.expired());

    const std::uint32_t c =
        f.submit(MovOp::kMigrate, base, kPages, f.kernel.fast_node());
    const std::weak_ptr<const void> third = in_flight(c);
    // The new request runs in the retired record's storage, and the
    // handle taken before retirement still cannot reach it.
    EXPECT_EQ(third.lock().get(), storage);
    EXPECT_EQ(first.lock(), nullptr);
    f.kernel.run();
    EXPECT_EQ(f.user.request(c).load_status(), MovStatus::kDone);
    f.user.free_request(c);
}

// --------------------------------------------------------------------
// Levers-off defaults.
// --------------------------------------------------------------------

TEST(SubmissionLevers, AllOffByDefaultAllOnInScaled)
{
    const MemifConfig def{};
    EXPECT_FALSE(def.driver_caches);
    EXPECT_FALSE(def.percpu_rings);

    const MemifConfig scaled = MemifConfig::scaled();
    EXPECT_TRUE(scaled.driver_caches);
    EXPECT_TRUE(scaled.percpu_rings);
    // scaled() stacks on the completion-batching lever.
    const MemifConfig moderated = MemifConfig::moderated();
    EXPECT_TRUE(moderated.irq_moderation);
    EXPECT_EQ(scaled.irq_moderation, moderated.irq_moderation);
}

TEST(SubmissionLevers, DefaultConfigTouchesNoNewMachinery)
{
    Fixture f{MemifConfig{.capacity = 64}};
    EXPECT_EQ(f.dev.region().num_rings(), 0u);
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    EXPECT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);
    EXPECT_EQ(f.migrate(base, kPages, f.kernel.slow_node()),
              MovStatus::kDone);
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.xlate_hits, 0u);
    EXPECT_EQ(ds.xlate_misses, 0u);
    EXPECT_EQ(ds.bulk_allocs, 0u);
    EXPECT_EQ(ds.magazine_pops, 0u);
    for (const std::uint64_t n : ds.ring_submits) EXPECT_EQ(n, 0u);
}

// --------------------------------------------------------------------
// Gang translation cache: hits and invalidation.
// --------------------------------------------------------------------

TEST(XlateCache, RepeatedRegionMovesHitAfterWriteThrough)
{
    Fixture f{cached()};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    f.fill(base, kBytes, 1);

    ASSERT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().xlate_hits, 0u);
    EXPECT_EQ(f.dev.stats().xlate_misses, kPages);

    // The release write-through recorded the final (fast-node) PTEs:
    // the return trip translates entirely from the cache.
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.slow_node()),
              MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().xlate_hits, kPages);
    EXPECT_EQ(f.dev.stats().xlate_misses, kPages);
    EXPECT_TRUE(f.check(base, kBytes, 1));
    f.expect_on_node(base, kPages, f.kernel.slow_node());
}

TEST(XlateCache, MunmapInvalidatesAndRemapStartsCold)
{
    Fixture f{cached()};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);

    f.proc.as().munmap(base);
    EXPECT_GE(f.dev.stats().xlate_invalidations, 1u);

    // A fresh mapping (likely reusing the address) must not see the
    // dead entry: the next move re-walks and copies the right frames.
    const vm::VAddr again = f.proc.mmap(kBytes, vm::PageSize::k4K);
    f.fill(again, kBytes, 2);
    const std::uint64_t hits_before = f.dev.stats().xlate_hits;
    ASSERT_EQ(f.migrate(again, kPages, f.kernel.fast_node()),
              MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().xlate_hits, hits_before);  // cold, no hit
    EXPECT_TRUE(f.check(again, kBytes, 2));
    f.expect_on_node(again, kPages, f.kernel.fast_node());
}

TEST(XlateCache, ForeignRemapInvalidatesCachedTranslations)
{
    Fixture f{cached()};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    f.fill(base, kBytes, 3);
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);
    const std::uint64_t inval_before = f.dev.stats().xlate_invalidations;

    // Linux-path migration remaps the same region behind memif's back;
    // its TLB shootdown must kill the cached gang translation.
    auto remapper = [&]() -> sim::Task {
        os::MigrationResult res;
        co_await os::migrate_pages_sync(f.proc, base, kPages,
                                        f.kernel.slow_node(), &res);
        EXPECT_EQ(res.pages_failed, 0u);
    };
    f.kernel.spawn(remapper());
    f.kernel.run();
    EXPECT_GT(f.dev.stats().xlate_invalidations, inval_before);

    // The next move must translate the NEW placement, not the cached
    // one: data lands intact on the fast node again.
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);
    EXPECT_TRUE(f.check(base, kBytes, 3));
    f.expect_on_node(base, kPages, f.kernel.fast_node());
}

/** A region filled with pattern @p seed, moved to the fast node with a
 *  cold cache (@p warm gets that trip's status), then a cached move
 *  back submitted: the request whose copy the racing tests touch. */
std::uint32_t
warm_return_trip(Fixture &f, std::uint8_t seed, MovStatus *warm)
{
    const vm::VAddr base = f.region(kBytes, seed);
    *warm = f.migrate(base, kPages, f.kernel.fast_node());
    return f.submit(MovOp::kMigrate, base, kPages, f.kernel.slow_node());
}

/** The §5.2 race, with the cache warm: a CPU write mid-move clears the
 *  young bit via CAS, which must invalidate the gang entry so no later
 *  move copies from stale PTEs. Run under proceed-and-fail. */
TEST(XlateCache, RacingYoungClearInvalidatesUnderDetect)
{
    MovStatus warm = MovStatus::kDone;
    const auto setup = [&warm](Fixture &f) {
        return warm_return_trip(f, 4, &warm);
    };
    const sim::SimTime mid =
        test::dma_window<Fixture>(setup, cached(RacePolicy::kDetect)).mid();
    Fixture f{cached(RacePolicy::kDetect)};
    // Cached move back, with a mid-flight write landing in the region.
    const std::uint32_t idx = setup(f);
    ASSERT_EQ(warm, MovStatus::kDone);
    const vm::VAddr base = f.user.request(idx).src_base;
    os::TouchOutcome out;
    f.touch_at(mid, f.proc, base + 10 * 4096, true, &out);
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kRaceDetected);
    f.user.free_request(idx);
    EXPECT_GE(f.dev.stats().xlate_invalidations, 1u);
    EXPECT_EQ(out.blocked, 0u);

    // The dirty write is part of the expected image from here on.
    const std::vector<std::uint8_t> image = f.read(base, kBytes);

    // No stale-PTE copy: a retry re-walks and moves the real frames.
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.slow_node()),
              MovStatus::kDone);
    EXPECT_EQ(f.read(base, kBytes), image);
    f.expect_on_node(base, kPages, f.kernel.slow_node());
}

/** Same race under prevention: the toucher parks on the migration PTE,
 *  the move completes, and subsequent cached moves stay coherent. */
TEST(XlateCache, RacingTouchUnderPreventStaysCoherent)
{
    MovStatus warm = MovStatus::kDone;
    const auto setup = [&warm](Fixture &f) {
        return warm_return_trip(f, 5, &warm);
    };
    const sim::SimTime mid =
        test::dma_window<Fixture>(setup, cached(RacePolicy::kPrevent)).mid();
    Fixture f{cached(RacePolicy::kPrevent)};
    const std::uint32_t idx = setup(f);
    ASSERT_EQ(warm, MovStatus::kDone);
    const vm::VAddr base = f.user.request(idx).src_base;
    os::TouchOutcome out;
    f.touch_at(mid, f.proc, base + 10 * 4096, true, &out);
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    f.user.free_request(idx);
    EXPECT_GE(out.blocked, 1u);
    EXPECT_GE(f.dev.stats().xlate_invalidations, 1u);

    // The post-release write is part of the expected image.
    const std::vector<std::uint8_t> image = f.read(base, kBytes);
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);
    EXPECT_EQ(f.read(base, kBytes), image);
    f.expect_on_node(base, kPages, f.kernel.fast_node());
}

// --------------------------------------------------------------------
// Bulk frame allocation: magazines leak nothing, rollback included.
// --------------------------------------------------------------------

TEST(BulkAlloc, MagazineRecyclesAndDrainsWithoutLeak)
{
    MemifConfig mc;
    mc.capacity = 64;
    mc.driver_caches = true;
    Fixture f(mc);
    const mem::NodeId fast = f.kernel.fast_node();
    const std::uint64_t fast_before =
        f.kernel.phys().node(fast).buddy().allocated_frames();
    const vm::VAddr base = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    for (const mem::NodeId dst : {fast, f.kernel.slow_node()})
        ASSERT_EQ(f.migrate(base, 16, dst), MovStatus::kDone);
    const DeviceStats &ds = f.dev.stats();
    EXPECT_GT(ds.bulk_allocs, 0u);
    EXPECT_GT(ds.magazine_pops, 0u);
    // The return trip freed the fast frames into the magazine: they
    // stay buddy-allocated while parked.
    EXPECT_GT(f.kernel.phys().node(fast).buddy().allocated_frames(),
              fast_before);
    // Device teardown drains every magazine: nothing may stay behind on
    // the fast node (the region itself lives on the slow node again).
    f.close_device();
    EXPECT_EQ(f.kernel.phys().node(fast).buddy().allocated_frames(),
              fast_before);
}

TEST(BulkAlloc, AbortedMigrationReturnsMagazineFrames)
{
    const auto setup = [](Fixture &f) {
        return f.submit(MovOp::kMigrate, f.region(kBytes, 31), kPages,
                        f.kernel.fast_node());
    };
    const sim::SimTime mid =
        test::dma_window<Fixture>(setup, cached(RacePolicy::kRecover)).mid();
    Fixture f{cached(RacePolicy::kRecover)};
    const mem::NodeId fast = f.kernel.fast_node();
    const std::uint64_t fast_before =
        f.kernel.phys().node(fast).buddy().allocated_frames();
    const std::uint32_t idx = setup(f);
    const vm::VAddr base = f.user.request(idx).src_base;
    os::TouchOutcome out;
    f.touch_at(mid, f.proc, base + 10 * 4096, true, &out);
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kAborted);
    EXPECT_EQ(f.dev.stats().migrations_aborted, 1u);
    f.user.free_request(idx);
    // Rollback freed the bulk-allocated destination frames into the
    // magazine; teardown drained it. Leak check: the fast node is back
    // to its pre-test population and the data never moved.
    f.close_device();
    EXPECT_EQ(f.kernel.phys().node(fast).buddy().allocated_frames(),
              fast_before);
    EXPECT_TRUE(f.check(base, kBytes, 31));
}

// --------------------------------------------------------------------
// Per-CPU submission rings.
// --------------------------------------------------------------------

MemifConfig
percpu()
{
    MemifConfig mc;
    mc.capacity = 64;
    mc.percpu_rings = true;
    return mc;
}

TEST(PercpuRings, TwoCpusSubmitThroughTheirOwnRings)
{
    Fixture f(percpu(), os::KernelConfig{.num_cores = 2});
    ASSERT_EQ(f.dev.region().num_rings(), 2u);
    MemifUser &u0 = f.user;
    MemifUser u1(f.dev, 1);

    const vm::VAddr a = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr b = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    auto submit_from = [&](MemifUser &u, vm::VAddr src) {
        const std::uint32_t idx = u.alloc_request();
        MovReq &req = u.request(idx);
        req.op = MovOp::kMigrate;
        req.src_base = src;
        req.num_pages = 16;
        req.dst_node = f.kernel.fast_node();
        f.kernel.spawn(u.submit(idx));
        return idx;
    };
    const std::uint32_t ia = submit_from(u0, a);
    const std::uint32_t ib = submit_from(u1, b);
    f.kernel.run();

    EXPECT_EQ(u0.request(ia).load_status(), MovStatus::kDone);
    EXPECT_EQ(u1.request(ib).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().ring_submits[0], 1u);
    EXPECT_EQ(f.dev.stats().ring_submits[1], 1u);
    EXPECT_EQ(f.dev.stats().shared_submit_retries, 0u);
    // The requests carried their submitting CPU.
    EXPECT_EQ(u0.request(ia).submit_cpu, 0u);
    EXPECT_EQ(u1.request(ib).submit_cpu, 1u);
}

TEST(PercpuRings, OneRingPerSimulatedCpu)
{
    const auto rings = [](os::KernelConfig kc) {
        Fixture f(percpu(), kc);
        return f.dev.region().num_rings();
    };
    EXPECT_EQ(rings({.num_cores = 2}), 2u);
    EXPECT_EQ(rings({}), 4u);
    EXPECT_EQ(rings({.num_cores = 16}), kMaxSubmitRings);
}

TEST(PercpuRings, SubmitManyUsesTheCallersRing)
{
    Fixture f(percpu());
    MemifUser u3(f.dev, 3);

    std::vector<vm::VAddr> bases;
    std::vector<std::uint32_t> idxs;
    for (int i = 0; i < 4; ++i) {
        bases.push_back(f.proc.mmap(4 * 4096, vm::PageSize::k4K));
        const std::uint32_t idx = u3.alloc_request();
        MovReq &req = u3.request(idx);
        req.op = MovOp::kMigrate;
        req.src_base = bases.back();
        req.num_pages = 4;
        req.dst_node = f.kernel.fast_node();
        idxs.push_back(idx);
    }
    bool kicked = false;
    f.kernel.spawn(u3.submit_many(idxs, &kicked));
    f.kernel.run();
    EXPECT_TRUE(kicked);
    for (const std::uint32_t idx : idxs)
        EXPECT_EQ(u3.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().ring_submits[3], 4u);
    EXPECT_EQ(f.dev.stats().ring_submits[0], 0u);
}

}  // namespace
}  // namespace memif::core
