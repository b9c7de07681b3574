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

#include <cstring>
#include <vector>

#include "memif/device.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/page_migration.h"
#include "os/process.h"
#include "sim/types.h"

namespace memif::core {
namespace {

constexpr std::uint32_t kPages = 64;
constexpr std::uint64_t kBytes = kPages * 4096ull;

/** Touch time landing inside the DMA window of a 64-page migration. */
constexpr sim::SimTime kMidFlight = sim::microseconds(300);
/** The same for a migration under driver_caches whose destination
 *  frames come from a warm magazine: the shorter Remap opens its DMA
 *  window from about 207 to 259 us after submit. */
constexpr sim::SimTime kCachedMidFlight = sim::microseconds(233);

struct Fixture {
    os::Kernel kernel;
    os::Process &proc;
    MemifDevice dev;
    MemifUser user;

    explicit Fixture(MemifConfig mc)
        : proc(kernel.create_process()), dev(kernel, proc, mc), user(dev)
    {
    }

    ~Fixture()
    {
        // Every test must hand the driver back fully quiesced: no
        // in-flight records, leased descriptors, stuck slots, parked
        // frames unaccounted for, or stale xlate entries. Tests that
        // intentionally end mid-flight opt out via the flag.
        if (!check_quiesce_on_teardown) return;
        std::string why;
        EXPECT_TRUE(dev.check_quiesced(&why)) << "teardown: " << why;
    }

    /** Opt-out for tests that deliberately leave work in flight. */
    bool check_quiesce_on_teardown = true;

    static MemifConfig
    cached(RacePolicy policy = RacePolicy::kDetect)
    {
        MemifConfig mc;
        mc.capacity = 64;
        mc.race_policy = policy;
        mc.poll_threshold_bytes = 0;  // irq-driven: leaves a DMA window
        mc.driver_caches = true;
        return mc;
    }

    std::uint32_t
    submit_migration(vm::VAddr src, std::uint32_t npages, mem::NodeId dst)
    {
        const std::uint32_t idx = user.alloc_request();
        EXPECT_NE(idx, kNoRequest);
        MovReq &req = user.request(idx);
        req.op = MovOp::kMigrate;
        req.src_base = src;
        req.num_pages = npages;
        req.dst_node = dst;
        kernel.spawn(user.submit(idx));
        return idx;
    }

    /** Submit a migration and run the machine to quiescence. */
    MovStatus
    migrate(vm::VAddr src, std::uint32_t npages, mem::NodeId dst)
    {
        const std::uint32_t idx = submit_migration(src, npages, dst);
        kernel.run();
        const MovStatus st = user.request(idx).load_status();
        user.free_request(idx);
        return st;
    }

    std::vector<std::uint8_t>
    checked_pattern(vm::VAddr base, std::uint64_t bytes, std::uint8_t salt)
    {
        std::vector<std::uint8_t> pattern(bytes);
        for (std::size_t i = 0; i < pattern.size(); ++i)
            pattern[i] = static_cast<std::uint8_t>(i * 13 + salt);
        EXPECT_TRUE(proc.as().write(base, pattern.data(), pattern.size()));
        return pattern;
    }

    void
    expect_intact(vm::VAddr base, const std::vector<std::uint8_t> &pattern)
    {
        std::vector<std::uint8_t> readback(pattern.size());
        ASSERT_TRUE(proc.as().read(base, readback.data(), readback.size()));
        EXPECT_EQ(readback, pattern);
    }

    void
    expect_on_node(vm::VAddr base, std::uint32_t npages, mem::NodeId node)
    {
        vm::Vma *vma = proc.as().find_vma(base);
        ASSERT_NE(vma, nullptr);
        for (std::uint64_t i = 0; i < npages; ++i)
            EXPECT_EQ(kernel.phys().node_of(vma->pte(i).pfn), node)
                << "page " << i;
    }
};

// --------------------------------------------------------------------
// In-flight records come from a pool.
// --------------------------------------------------------------------

TEST(FlightPool, RetiredFlightStaysDeadWhenItsStorageIsReused)
{
    Fixture f{Fixture::cached()};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    // Step the machine until request idx has its in-flight record.
    const auto in_flight = [&f](std::uint32_t idx) {
        while (f.user.request(idx).load_status() != MovStatus::kInFlight)
            if (!f.kernel.eq().step()) break;
        return f.dev.flight_handle(idx);
    };

    const std::uint32_t a =
        f.submit_migration(base, kPages, f.kernel.fast_node());
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
        f.submit_migration(base, kPages, f.kernel.fast_node());
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
    Fixture f{Fixture::cached()};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    const auto pattern = f.checked_pattern(base, kBytes, 1);

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
    f.expect_intact(base, pattern);
    f.expect_on_node(base, kPages, f.kernel.slow_node());
}

TEST(XlateCache, MunmapInvalidatesAndRemapStartsCold)
{
    Fixture f{Fixture::cached()};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);

    f.proc.as().munmap(base);
    EXPECT_GE(f.dev.stats().xlate_invalidations, 1u);

    // A fresh mapping (likely reusing the address) must not see the
    // dead entry: the next move re-walks and copies the right frames.
    const vm::VAddr again = f.proc.mmap(kBytes, vm::PageSize::k4K);
    const auto pattern = f.checked_pattern(again, kBytes, 2);
    const std::uint64_t hits_before = f.dev.stats().xlate_hits;
    ASSERT_EQ(f.migrate(again, kPages, f.kernel.fast_node()),
              MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().xlate_hits, hits_before);  // cold, no hit
    f.expect_intact(again, pattern);
    f.expect_on_node(again, kPages, f.kernel.fast_node());
}

TEST(XlateCache, ForeignRemapInvalidatesCachedTranslations)
{
    Fixture f{Fixture::cached()};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    const auto pattern = f.checked_pattern(base, kBytes, 3);
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
    f.expect_intact(base, pattern);
    f.expect_on_node(base, kPages, f.kernel.fast_node());
}

/** The §5.2 race, with the cache warm: a CPU write mid-move clears the
 *  young bit via CAS, which must invalidate the gang entry so no later
 *  move copies from stale PTEs. Run under proceed-and-fail. */
TEST(XlateCache, RacingYoungClearInvalidatesUnderDetect)
{
    Fixture f{Fixture::cached(RacePolicy::kDetect)};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    auto pattern = f.checked_pattern(base, kBytes, 4);
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);

    // Cached move back, with a mid-flight write landing in the region.
    const std::uint32_t idx =
        f.submit_migration(base, kPages, f.kernel.slow_node());
    os::TouchOutcome out;
    auto toucher = [&]() -> sim::Task {
        co_await f.proc.touch(base + 10 * 4096, true, &out);
    };
    f.kernel.eq().schedule_at(f.kernel.eq().now() + kCachedMidFlight,
                              [&] { f.kernel.spawn(toucher()); });
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kRaceDetected);
    f.user.free_request(idx);
    EXPECT_GE(f.dev.stats().xlate_invalidations, 1u);
    EXPECT_EQ(out.blocked, 0u);

    // The dirty write is part of the expected image from here on.
    ASSERT_TRUE(f.proc.as().read(base, pattern.data(), pattern.size()));

    // No stale-PTE copy: a retry re-walks and moves the real frames.
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.slow_node()),
              MovStatus::kDone);
    f.expect_intact(base, pattern);
    f.expect_on_node(base, kPages, f.kernel.slow_node());
}

/** Same race under prevention: the toucher parks on the migration PTE,
 *  the move completes, and subsequent cached moves stay coherent. */
TEST(XlateCache, RacingTouchUnderPreventStaysCoherent)
{
    Fixture f{Fixture::cached(RacePolicy::kPrevent)};
    const vm::VAddr base = f.proc.mmap(kBytes, vm::PageSize::k4K);
    auto pattern = f.checked_pattern(base, kBytes, 5);
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);

    const std::uint32_t idx =
        f.submit_migration(base, kPages, f.kernel.slow_node());
    os::TouchOutcome out;
    auto toucher = [&]() -> sim::Task {
        co_await f.proc.touch(base + 10 * 4096, true, &out);
    };
    f.kernel.eq().schedule_at(f.kernel.eq().now() + kCachedMidFlight,
                              [&] { f.kernel.spawn(toucher()); });
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    f.user.free_request(idx);
    EXPECT_GE(out.blocked, 1u);
    EXPECT_GE(f.dev.stats().xlate_invalidations, 1u);

    // The post-release write is part of the expected image.
    ASSERT_TRUE(f.proc.as().read(base, pattern.data(), pattern.size()));
    ASSERT_EQ(f.migrate(base, kPages, f.kernel.fast_node()),
              MovStatus::kDone);
    f.expect_intact(base, pattern);
    f.expect_on_node(base, kPages, f.kernel.fast_node());
}

// --------------------------------------------------------------------
// Bulk frame allocation: magazines leak nothing, rollback included.
// --------------------------------------------------------------------

TEST(BulkAlloc, MagazineRecyclesAndDrainsWithoutLeak)
{
    os::Kernel kernel;
    os::Process &proc = kernel.create_process();
    const mem::NodeId fast = kernel.fast_node();
    const std::uint64_t fast_before =
        kernel.phys().node(fast).buddy().allocated_frames();
    const vm::VAddr base = proc.mmap(16 * 4096, vm::PageSize::k4K);
    {
        MemifConfig mc;
        mc.capacity = 64;
        mc.driver_caches = true;
        MemifDevice dev(kernel, proc, mc);
        MemifUser user(dev);
        for (const mem::NodeId dst : {fast, kernel.slow_node()}) {
            const std::uint32_t idx = user.alloc_request();
            MovReq &req = user.request(idx);
            req.op = MovOp::kMigrate;
            req.src_base = base;
            req.num_pages = 16;
            req.dst_node = dst;
            kernel.spawn(user.submit(idx));
            kernel.run();
            ASSERT_EQ(user.request(idx).load_status(), MovStatus::kDone);
            user.free_request(idx);
        }
        const DeviceStats &ds = dev.stats();
        EXPECT_GT(ds.bulk_allocs, 0u);
        EXPECT_GT(ds.magazine_pops, 0u);
        // The return trip freed the fast frames into the magazine: they
        // stay buddy-allocated while parked.
        EXPECT_GT(kernel.phys().node(fast).buddy().allocated_frames(),
                  fast_before);
    }
    // Device teardown drains every magazine: nothing may stay behind on
    // the fast node (the region itself lives on the slow node again).
    EXPECT_EQ(kernel.phys().node(fast).buddy().allocated_frames(),
              fast_before);
}

TEST(BulkAlloc, AbortedMigrationReturnsMagazineFrames)
{
    os::Kernel kernel;
    os::Process &proc = kernel.create_process();
    const mem::NodeId fast = kernel.fast_node();
    const std::uint64_t fast_before =
        kernel.phys().node(fast).buddy().allocated_frames();
    const vm::VAddr base = proc.mmap(kBytes, vm::PageSize::k4K);
    std::vector<std::uint8_t> pattern(kBytes);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 31);
    ASSERT_TRUE(proc.as().write(base, pattern.data(), pattern.size()));
    {
        MemifConfig mc;
        mc.capacity = 64;
        mc.driver_caches = true;
        mc.race_policy = RacePolicy::kRecover;
        mc.poll_threshold_bytes = 0;
        MemifDevice dev(kernel, proc, mc);
        MemifUser user(dev);
        const std::uint32_t idx = user.alloc_request();
        MovReq &req = user.request(idx);
        req.op = MovOp::kMigrate;
        req.src_base = base;
        req.num_pages = kPages;
        req.dst_node = fast;
        kernel.spawn(user.submit(idx));
        os::TouchOutcome out;
        auto toucher = [&]() -> sim::Task {
            co_await proc.touch(base + 10 * 4096, true, &out);
        };
        kernel.eq().schedule_at(kMidFlight,
                                [&] { kernel.spawn(toucher()); });
        kernel.run();
        EXPECT_EQ(user.request(idx).load_status(), MovStatus::kAborted);
        EXPECT_EQ(dev.stats().migrations_aborted, 1u);
        user.free_request(idx);
    }
    // Rollback freed the bulk-allocated destination frames into the
    // magazine; teardown drained it. Leak check: the fast node is back
    // to its pre-test population and the data never moved.
    EXPECT_EQ(kernel.phys().node(fast).buddy().allocated_frames(),
              fast_before);
    std::vector<std::uint8_t> readback(pattern.size());
    ASSERT_TRUE(proc.as().read(base, readback.data(), readback.size()));
    EXPECT_EQ(readback, pattern);
}

// --------------------------------------------------------------------
// Per-CPU submission rings.
// --------------------------------------------------------------------

TEST(PercpuRings, TwoCpusSubmitThroughTheirOwnRings)
{
    os::Kernel kernel(os::KernelConfig{.num_cores = 2});
    os::Process &proc = kernel.create_process();
    MemifConfig mc;
    mc.capacity = 64;
    mc.percpu_rings = true;
    MemifDevice dev(kernel, proc, mc);
    ASSERT_EQ(dev.region().num_rings(), 2u);
    MemifUser u0(dev, 0);
    MemifUser u1(dev, 1);

    const vm::VAddr a = proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr b = proc.mmap(16 * 4096, vm::PageSize::k4K);
    auto submit_from = [&](MemifUser &u, vm::VAddr src) {
        const std::uint32_t idx = u.alloc_request();
        MovReq &req = u.request(idx);
        req.op = MovOp::kMigrate;
        req.src_base = src;
        req.num_pages = 16;
        req.dst_node = kernel.fast_node();
        kernel.spawn(u.submit(idx));
        return idx;
    };
    const std::uint32_t ia = submit_from(u0, a);
    const std::uint32_t ib = submit_from(u1, b);
    kernel.run();

    EXPECT_EQ(u0.request(ia).load_status(), MovStatus::kDone);
    EXPECT_EQ(u1.request(ib).load_status(), MovStatus::kDone);
    EXPECT_EQ(dev.stats().ring_submits[0], 1u);
    EXPECT_EQ(dev.stats().ring_submits[1], 1u);
    EXPECT_EQ(dev.stats().shared_submit_retries, 0u);
    // The requests carried their submitting CPU.
    EXPECT_EQ(u0.request(ia).submit_cpu, 0u);
    EXPECT_EQ(u1.request(ib).submit_cpu, 1u);
}

TEST(PercpuRings, OneRingPerSimulatedCpu)
{
    MemifConfig mc;
    mc.capacity = 64;
    mc.percpu_rings = true;
    const auto rings = [&mc](os::KernelConfig kc) {
        os::Kernel kernel(kc);
        MemifDevice dev(kernel, kernel.create_process(), mc);
        return dev.region().num_rings();
    };
    EXPECT_EQ(rings({.num_cores = 2}), 2u);
    EXPECT_EQ(rings({}), 4u);
    EXPECT_EQ(rings({.num_cores = 16}), kMaxSubmitRings);
}

TEST(PercpuRings, SubmitManyUsesTheCallersRing)
{
    os::Kernel kernel;
    os::Process &proc = kernel.create_process();
    MemifConfig mc;
    mc.capacity = 64;
    mc.percpu_rings = true;
    MemifDevice dev(kernel, proc, mc);
    MemifUser u3(dev, 3);

    std::vector<vm::VAddr> bases;
    std::vector<std::uint32_t> idxs;
    for (int i = 0; i < 4; ++i) {
        bases.push_back(proc.mmap(4 * 4096, vm::PageSize::k4K));
        const std::uint32_t idx = u3.alloc_request();
        MovReq &req = u3.request(idx);
        req.op = MovOp::kMigrate;
        req.src_base = bases.back();
        req.num_pages = 4;
        req.dst_node = kernel.fast_node();
        idxs.push_back(idx);
    }
    bool kicked = false;
    kernel.spawn(u3.submit_many(idxs, &kicked));
    kernel.run();
    EXPECT_TRUE(kicked);
    for (const std::uint32_t idx : idxs)
        EXPECT_EQ(u3.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(dev.stats().ring_submits[3], 4u);
    EXPECT_EQ(dev.stats().ring_submits[0], 0u);
}

}  // namespace
}  // namespace memif::core
