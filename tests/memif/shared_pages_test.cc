/**
 * @file
 * Shared anonymous pages across processes — the capability the paper's
 * prototype left "primitive" (§6.7), implemented here via full
 * reverse-map walks: migrating a shared page updates *every* mapper's
 * PTE, and race handling covers all of them.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "memif/device.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/page_migration.h"
#include "os/process.h"

namespace memif::core {
namespace {

struct SharedFixture {
    os::Kernel kernel;
    os::Process &a;
    os::Process &b;
    MemifDevice dev;  ///< opened by process a
    MemifUser user;
    vm::VAddr base_a = 0;
    vm::VAddr base_b = 0;

    explicit SharedFixture(std::uint64_t bytes = 16 * 4096,
                           RacePolicy policy = RacePolicy::kDetect)
        : SharedFixture(bytes,
                        MemifConfig{.capacity = 64,
                                    .gang_lookup = true,
                                    .race_policy = policy,
                                    .poll_threshold_bytes = 512 * 1024})
    {
    }

    SharedFixture(std::uint64_t bytes, MemifConfig config)
        : a(kernel.create_process()),
          b(kernel.create_process()),
          dev(kernel, a, config),
          user(dev)
    {
        base_a = a.mmap(bytes, vm::PageSize::k4K);
        vm::Vma *vma = a.as().find_vma(base_a);
        base_b = b.as().mmap_shared(*vma);
    }

    ~SharedFixture()
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

    std::uint32_t
    migrate(std::uint32_t npages, mem::NodeId dst)
    {
        const std::uint32_t idx = user.alloc_request();
        MovReq &req = user.request(idx);
        req.op = MovOp::kMigrate;
        req.src_base = base_a;
        req.num_pages = npages;
        req.dst_node = dst;
        kernel.spawn(user.submit(idx));
        return idx;
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

TEST(SharedPages, OtherProcessAccessMidMigrationIsDetected)
{
    SharedFixture f;
    const std::uint32_t idx = f.migrate(16, f.kernel.fast_node());

    // Process b (which did not ask for the move) writes mid-flight.
    os::TouchOutcome out;
    auto toucher = [&]() -> sim::Task {
        co_await f.b.touch(f.base_b + 3 * 4096, true, &out);
    };
    f.kernel.eq().schedule_at(sim::microseconds(90),
                              [&] { f.kernel.spawn(toucher()); });
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kRaceDetected);
    EXPECT_EQ(out.blocked, 0u);  // detection never blocks the accessor
}

TEST(SharedPages, PreventPolicyBlocksOtherProcessToo)
{
    SharedFixture f(16 * 4096, RacePolicy::kPrevent);
    const std::uint32_t idx = f.migrate(16, f.kernel.fast_node());

    os::TouchOutcome out;
    bool touched = false;
    auto toucher = [&]() -> sim::Task {
        co_await f.b.touch(f.base_b + 3 * 4096, true, &out);
        touched = true;
    };
    f.kernel.eq().schedule_at(sim::microseconds(90),
                              [&] { f.kernel.spawn(toucher()); });
    f.kernel.run();

    EXPECT_TRUE(touched);
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
    os::Kernel kernel;
    os::Process &a = kernel.create_process();
    os::Process &b = kernel.create_process();
    os::Process &c = kernel.create_process();
    MemifDevice dev(kernel, a);
    MemifUser user(dev);

    const vm::VAddr base_a = a.mmap(4 * 4096, vm::PageSize::k4K);
    const vm::VAddr base_b = b.as().mmap_shared(*a.as().find_vma(base_a));
    const vm::VAddr base_c = c.as().mmap_shared(*a.as().find_vma(base_a));

    const std::uint32_t idx = user.alloc_request();
    MovReq &req = user.request(idx);
    req.op = MovOp::kMigrate;
    req.src_base = base_a;
    req.num_pages = 4;
    req.dst_node = kernel.fast_node();
    kernel.spawn(user.submit(idx));
    kernel.run();
    ASSERT_EQ(user.request(idx).load_status(), MovStatus::kDone);

    const mem::Pfn pfn = a.as().find_vma(base_a)->pte(0).pfn;
    EXPECT_EQ(kernel.phys().node_of(pfn), kernel.fast_node());
    EXPECT_EQ(b.as().find_vma(base_b)->pte(0).pfn, pfn);
    EXPECT_EQ(c.as().find_vma(base_c)->pte(0).pfn, pfn);
    EXPECT_EQ(kernel.phys().frame(pfn).mapcount(), 3u);
}

TEST(SharedPages, RollbackRestoresEveryMappingCallerFirst)
{
    // The region belongs to b; a (the caller) and c share it, so each
    // page's reverse-map chain lists b before a. The capture loop must
    // still put a's mapping first within every page, and a rollback
    // must restore every PTE of every mapper.
    constexpr std::uint32_t kPages = 16;
    os::Kernel kernel;
    os::Process &b = kernel.create_process();
    os::Process &a = kernel.create_process();
    os::Process &c = kernel.create_process();
    const vm::VAddr base_b = b.mmap(kPages * 4096, vm::PageSize::k4K);
    const vm::VAddr base_a = a.as().mmap_shared(*b.as().find_vma(base_b));
    const vm::VAddr base_c = c.as().mmap_shared(*b.as().find_vma(base_b));
    MemifDevice dev(kernel, a,
                    MemifConfig{.capacity = 64,
                                .gang_lookup = true,
                                .race_policy = RacePolicy::kRecover,
                                .poll_threshold_bytes = 512 * 1024});
    MemifUser user(dev);

    const std::vector<os::Process *> procs = {&a, &b, &c};
    const std::vector<vm::VAddr> bases = {base_a, base_b, base_c};
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

    const std::uint32_t idx = user.alloc_request();
    MovReq &req = user.request(idx);
    req.op = MovOp::kMigrate;
    req.src_base = base_a;
    req.num_pages = kPages;
    req.dst_node = kernel.fast_node();
    kernel.spawn(user.submit(idx));
    // The caller reads a page mid-copy: its young fault rolls back.
    os::TouchOutcome out;
    auto toucher = [&]() -> sim::Task {
        co_await a.touch(base_a + 3 * 4096, false, &out);
    };
    kernel.eq().schedule_at(sim::microseconds(90),
                            [&] { kernel.spawn(toucher()); });
    kernel.run();
    for (os::Process *p : procs) p->as().set_xlate_invalidate_hook(nullptr);

    ASSERT_EQ(user.request(idx).load_status(), MovStatus::kAborted);
    EXPECT_EQ(dev.stats().migrations_aborted, 1u);
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
            EXPECT_EQ(kernel.phys().frame(now.pfn).mapcount(), 3u);
        }
    }
    EXPECT_EQ(kernel.phys().node(kernel.fast_node()).free_frames(),
              kernel.phys().node(kernel.fast_node()).num_frames());
    std::string why;
    EXPECT_TRUE(dev.check_quiesced(&why)) << why;
}

TEST(SharedPages, BusyRejectMidCaptureLeaksNoFrames)
{
    // Move pages 8-63 first. While their semi-final PTEs point at new
    // frames that have no reverse mapping yet, migrate pages 0-15: the
    // capture loop takes pages 0-7 and stops with kBusy at page 8. The
    // rejected request's new frames must all go back (the fixture's
    // teardown also runs check_quiesced).
    SharedFixture f(64 * 4096, MemifConfig::pipelined());
    const std::uint32_t back = f.user.alloc_request();
    MovReq &breq = f.user.request(back);
    breq.op = MovOp::kMigrate;
    breq.src_base = f.base_a + 8 * 4096;
    breq.num_pages = 56;
    breq.dst_node = f.kernel.fast_node();
    f.kernel.spawn(f.user.submit(back));

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
