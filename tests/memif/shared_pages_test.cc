/**
 * @file
 * Shared anonymous pages across processes — the capability the paper's
 * prototype left "primitive" (§6.7), implemented here via full
 * reverse-map walks: migrating a shared page updates *every* mapper's
 * PTE, and race handling covers all of them.
 */
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "memif/device.h"
#include "memif_fixture.h"
#include "os/page_migration.h"

namespace memif::core {
namespace {

MemifConfig
race_config(RacePolicy policy)
{
    return MemifConfig{.capacity = 64, .race_policy = policy};
}

/** Process a (the fixture's own, which opened the device) and process b
 *  map one region shared; process c joins with share_c(). */
struct SharedFixture : test::MemifFixture {
    os::Process &a;
    os::Process &b;
    os::Process &c;
    vm::VAddr base_a = 0;
    vm::VAddr base_b = 0;
    vm::VAddr base_c = 0;

    explicit SharedFixture(std::uint64_t bytes = 16 * 4096,
                           RacePolicy policy = RacePolicy::kDetect)
        : SharedFixture(bytes, race_config(policy))
    {
    }

    /** @p b_first: b maps the region and a shares it, so each page's
     *  reverse-map chain lists b before the caller. */
    SharedFixture(std::uint64_t bytes, MemifConfig config,
                  bool b_first = false)
        : MemifFixture(config),
          a(proc),
          b(kernel.create_process()),
          c(kernel.create_process())
    {
        if (b_first) {
            base_b = b.mmap(bytes, vm::PageSize::k4K);
            base_a = a.as().mmap_shared(*b.as().find_vma(base_b));
        } else {
            base_a = a.mmap(bytes, vm::PageSize::k4K);
            base_b = b.as().mmap_shared(*a.as().find_vma(base_a));
        }
    }

    void share_c() { base_c = c.as().mmap_shared(*a.as().find_vma(base_a)); }

    std::uint32_t
    migrate(std::uint32_t npages, mem::NodeId dst)
    {
        return submit(MovOp::kMigrate, base_a, npages, dst);
    }
};

TEST(SharedPages, MmapSharedAliasesTheSameFrames)
{
    SharedFixture f;
    const std::uint32_t value = 0xABCD1234;
    ASSERT_TRUE(f.a.as().write(f.base_a + 5 * 4096, &value, sizeof(value)));
    std::uint32_t got = 0;
    ASSERT_TRUE(f.b.as().read(f.base_b + 5 * 4096, &got, sizeof(got)));
    EXPECT_EQ(got, value);

    vm::Vma *va = f.a.as().find_vma(f.base_a);
    vm::Vma *vb = f.b.as().find_vma(f.base_b);
    for (std::uint64_t i = 0; i < va->num_pages(); ++i) {
        EXPECT_EQ(va->pte(i).pfn, vb->pte(i).pfn);
        EXPECT_EQ(f.kernel.phys().frame(va->pte(i).pfn).mapcount(), 2u);
    }
}

TEST(SharedPages, LastUnmapFreesFrames)
{
    os::Kernel kernel;
    os::Process &a = kernel.create_process();
    os::Process &b = kernel.create_process();
    const std::uint64_t before =
        kernel.phys().node(kernel.slow_node()).free_frames();
    const vm::VAddr base_a = a.mmap(8 * 4096, vm::PageSize::k4K);
    const vm::VAddr base_b =
        b.as().mmap_shared(*a.as().find_vma(base_a));
    ASSERT_NE(base_b, 0u);
    a.as().munmap(base_a);
    // Still mapped by b: frames alive.
    EXPECT_EQ(kernel.phys().node(kernel.slow_node()).free_frames(),
              before - 8);
    std::uint8_t probe = 0;
    EXPECT_TRUE(b.as().read(base_b, &probe, 1));
    b.as().munmap(base_b);
    EXPECT_EQ(kernel.phys().node(kernel.slow_node()).free_frames(), before);
}

TEST(SharedPages, MigrationUpdatesEveryMapper)
{
    SharedFixture f;
    std::vector<std::uint8_t> data(16 * 4096);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 11 + 2);
    ASSERT_TRUE(f.a.as().write(f.base_a, data.data(), data.size()));

    const std::uint32_t idx = f.migrate(16, f.kernel.fast_node());
    f.kernel.run();
    ASSERT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);

    vm::Vma *va = f.a.as().find_vma(f.base_a);
    vm::Vma *vb = f.b.as().find_vma(f.base_b);
    for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(f.kernel.phys().node_of(va->pte(i).pfn),
                  f.kernel.fast_node());
        // The other process's PTEs moved too — no stale mapping.
        EXPECT_EQ(vb->pte(i).pfn, va->pte(i).pfn);
        EXPECT_FALSE(vb->pte(i).young);
        EXPECT_EQ(f.kernel.phys().frame(va->pte(i).pfn).mapcount(), 2u);
    }
    // Both processes read the same (correct) bytes afterwards.
    std::vector<std::uint8_t> got(data.size());
    ASSERT_TRUE(f.b.as().read(f.base_b, got.data(), got.size()));
    EXPECT_EQ(got, data);
    // Old frames all freed.
    EXPECT_EQ(f.kernel.phys().node(f.kernel.slow_node()).free_frames(),
              f.kernel.phys().node(f.kernel.slow_node()).num_frames());
}

std::uint32_t
migrate_16(SharedFixture &f)
{
    return f.migrate(16, f.kernel.fast_node());
}

TEST(SharedPages, OtherProcessAccessMidMigrationIsDetected)
{
    const sim::SimTime mid =
        test::dma_window<SharedFixture>(migrate_16).mid();
    SharedFixture f;
    const std::uint32_t idx = migrate_16(f);

    // Process b (which did not ask for the move) writes mid-flight.
    os::TouchOutcome out;
    f.touch_at(mid, f.b, f.base_b + 3 * 4096, true, &out);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kRaceDetected);
    EXPECT_EQ(out.blocked, 0u);  // detection never blocks the accessor
}

TEST(SharedPages, PreventPolicyBlocksOtherProcessToo)
{
    const sim::SimTime mid =
        test::dma_window<SharedFixture>(migrate_16, 16 * 4096,
                                        RacePolicy::kPrevent)
            .mid();
    SharedFixture f(16 * 4096, RacePolicy::kPrevent);
    const std::uint32_t idx = migrate_16(f);

    os::TouchOutcome out;
    sim::SimTime touched_at = 0;
    f.touch_at(mid, f.b, f.base_b + 3 * 4096, true, &out, &touched_at);
    f.kernel.run();

    EXPECT_NE(touched_at, 0u);  // the access finished
    EXPECT_GE(out.blocked, 1u);  // parked on b's migration PTE
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
}

TEST(SharedPages, LinuxBaselineSkipsSharedPages)
{
    // The baseline (like the paper's prototype) punts on shared pages.
    SharedFixture f;
    os::MigrationResult res;
    f.kernel.spawn(os::migrate_pages_sync(f.a, f.base_a, 16,
                                          f.kernel.fast_node(), &res));
    f.kernel.run();
    EXPECT_EQ(res.pages_moved, 0u);
    EXPECT_EQ(res.pages_failed, 16u);
}

TEST(SharedPages, ThreeWaySharingMigrates)
{
    SharedFixture f(4 * 4096, MemifConfig{});
    f.share_c();
    const std::uint32_t idx = f.migrate(4, f.kernel.fast_node());
    f.kernel.run();
    ASSERT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);

    const mem::Pfn pfn = f.a.as().find_vma(f.base_a)->pte(0).pfn;
    EXPECT_EQ(f.kernel.phys().node_of(pfn), f.kernel.fast_node());
    EXPECT_EQ(f.b.as().find_vma(f.base_b)->pte(0).pfn, pfn);
    EXPECT_EQ(f.c.as().find_vma(f.base_c)->pte(0).pfn, pfn);
    EXPECT_EQ(f.kernel.phys().frame(pfn).mapcount(), 3u);
}

TEST(SharedPages, RollbackRestoresEveryMappingCallerFirst)
{
    // The region belongs to b; a (the caller) and c share it, so each
    // page's reverse-map chain lists b before a. The capture loop must
    // still put a's mapping first within every page, and a rollback
    // must restore every PTE of every mapper.
    constexpr std::uint32_t kPages = 16;
    const MemifConfig cfg = race_config(RacePolicy::kRecover);
    const auto setup = [](SharedFixture &f) {
        f.share_c();
        return f.migrate(kPages, f.kernel.fast_node());
    };
    const sim::SimTime mid =
        test::dma_window<SharedFixture>(setup, kPages * 4096, cfg, true)
            .mid();
    SharedFixture f(kPages * 4096, cfg, /*b_first=*/true);
    const std::uint32_t idx = setup(f);

    const std::vector<os::Process *> procs = {&f.a, &f.b, &f.c};
    const std::vector<vm::VAddr> bases = {f.base_a, f.base_b, f.base_c};
    std::vector<std::vector<std::uint64_t>> before(procs.size());
    for (std::size_t p = 0; p < procs.size(); ++p) {
        const vm::Vma *vma = procs[p]->as().find_vma(bases[p]);
        for (std::uint32_t i = 0; i < kPages; ++i)
            before[p].push_back(vma->pte(i).pack());
    }
    // Without batched shootdown the Remap loop flushes each mapping's
    // TLB entry in capture order: record which process comes first.
    std::map<std::uint64_t, std::size_t> first_flush;  // page -> proc
    for (std::size_t p = 0; p < procs.size(); ++p) {
        procs[p]->as().set_xlate_invalidate_hook(
            [&first_flush, p](const vm::Vma *, std::uint64_t first,
                              std::uint64_t n) {
                for (std::uint64_t i = first; i < first + n; ++i)
                    first_flush.try_emplace(i, p);
            });
    }

    // The caller reads a page mid-copy: its young fault rolls back.
    os::TouchOutcome out;
    f.touch_at(mid, f.a, f.base_a + 3 * 4096, false, &out);
    f.kernel.run();
    for (os::Process *p : procs) p->as().set_xlate_invalidate_hook(nullptr);

    ASSERT_EQ(f.user.request(idx).load_status(), MovStatus::kAborted);
    EXPECT_EQ(f.dev.stats().migrations_aborted, 1u);
    ASSERT_EQ(first_flush.size(), kPages);
    for (const auto &[page, proc] : first_flush)
        EXPECT_EQ(proc, 0u) << "page " << page << ": caller not first";
    for (std::size_t p = 0; p < procs.size(); ++p) {
        const vm::Vma *vma = procs[p]->as().find_vma(bases[p]);
        for (std::uint32_t i = 0; i < kPages; ++i) {
            const vm::Pte was = vm::Pte::unpack(before[p][i]);
            const vm::Pte now = vma->pte(i);
            EXPECT_EQ(now.pfn, was.pfn) << "proc " << p << " page " << i;
            EXPECT_FALSE(now.migration);
            // The touched page's PTE may have gained access bits.
            if (p != 0 || i != 3) {
                EXPECT_EQ(now.pack(), was.pack())
                    << "proc " << p << " page " << i;
            }
            EXPECT_EQ(f.kernel.phys().frame(now.pfn).mapcount(), 3u);
        }
    }
    EXPECT_EQ(f.kernel.phys().node(f.kernel.fast_node()).free_frames(),
              f.kernel.phys().node(f.kernel.fast_node()).num_frames());
}

TEST(SharedPages, BusyRejectMidCaptureLeaksNoFrames)
{
    // Move pages 8-63 first. While their semi-final PTEs point at new
    // frames that have no reverse mapping yet, migrate pages 0-15: the
    // capture loop takes pages 0-7 and stops with kBusy at page 8. The
    // rejected request's new frames must all go back (the fixture's
    // teardown also runs check_quiesced).
    SharedFixture f(64 * 4096, MemifConfig::pipelined());
    const std::uint32_t back = f.submit(MovOp::kMigrate, f.base_a + 8 * 4096,
                                        56, f.kernel.fast_node());

    vm::Vma *va = f.a.as().find_vma(f.base_a);
    const mem::Pfn old_pfn = va->pte(8).pfn;
    while (va->pte(8).pfn == old_pfn) ASSERT_TRUE(f.kernel.eq().step());
    EXPECT_EQ(f.kernel.phys().frame(va->pte(8).pfn).mapcount(), 0u);

    const std::uint32_t front = f.migrate(16, f.kernel.fast_node());
    // The worker is parked until the first move completes: kick the
    // driver so it serves the overlapping request right now.
    f.kernel.spawn(f.dev.ioctl_mov_one());
    f.kernel.run();

    EXPECT_EQ(f.user.request(back).load_status(), MovStatus::kDone);
    ASSERT_EQ(f.user.request(front).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(front).error, MovError::kBusy);
    vm::Vma *vb = f.b.as().find_vma(f.base_b);
    const mem::PhysicalMemory &pm = f.kernel.phys();
    for (std::uint32_t i = 0; i < 64; ++i) {
        const mem::NodeId want =
            i < 8 ? f.kernel.slow_node() : f.kernel.fast_node();
        EXPECT_EQ(pm.node_of(va->pte(i).pfn), want) << "page " << i;
        EXPECT_EQ(vb->pte(i).pfn, va->pte(i).pfn) << "page " << i;
    }
    // Exactly the 56 moved pages are held on the fast node.
    EXPECT_EQ(pm.node(f.kernel.fast_node()).free_frames(),
              pm.node(f.kernel.fast_node()).num_frames() - 56);
}

}  // namespace
}  // namespace memif::core
