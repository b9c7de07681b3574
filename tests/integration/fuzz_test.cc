/**
 * @file
 * Randomized whole-system fuzz: two processes, shared and private
 * regions, a mapped file, and a stream of random memif operations
 * (valid moves, invalid requests, racing touches) under every race
 * policy. After each run the entire machine is checked for
 * consistency: every request accounted for, no frame leaked, every
 * mapping's reverse map intact, all data readable.
 */
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "check/reference_model.h"
#include "dma/engine.h"
#include "memif/device.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/process.h"
#include "os/tmpfs.h"
#include "sim/random.h"

namespace memif::core {
namespace {

/** Frame accounting + rmap + PTE coherence across the whole machine. */
void
check_machine_consistency(os::Kernel &kernel,
                          std::vector<os::Process *> &procs)
{
    mem::PhysicalMemory &pm = kernel.phys();
    // 1. Buddy accounting matches the allocated flags.
    for (mem::NodeId n = 0; n < pm.node_count(); ++n) {
        std::uint64_t allocated = 0;
        for (mem::Pfn p = pm.node(n).base_pfn();
             p < pm.node(n).base_pfn() + pm.node(n).num_frames(); ++p)
            if (pm.node(n).frame(p).allocated) ++allocated;
        ASSERT_EQ(allocated,
                  pm.node(n).num_frames() - pm.node(n).free_frames())
            << "node " << n;
    }
    // 2. Every present PTE points at an allocated frame whose rmap
    //    chain contains exactly that mapping.
    for (os::Process *proc : procs) {
        vm::AddressSpace &as = proc->as();
        for (vm::VAddr probe = 0x1000'0000ull; probe < 0x2000'0000ull;
             probe += 4096) {
            vm::Vma *vma = as.find_vma(probe);
            if (!vma) continue;
            probe = vma->end() - 4096;  // skip to vma end after checking
            for (std::uint64_t i = 0; i < vma->num_pages(); ++i) {
                const vm::Pte pte = vma->pte(i);
                if (!pte.present) continue;
                const mem::PageFrame &frame = pm.frame(pte.pfn);
                ASSERT_TRUE(frame.allocated);
                bool found = false;
                for (const mem::RmapEntry &re : frame.rmaps)
                    if (re.owner == &as &&
                        re.vaddr == vma->page_vaddr(i) &&
                        re.kind == mem::RmapKind::kAddressSpace)
                        found = true;
                ASSERT_TRUE(found) << "missing rmap";
            }
        }
    }
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, RandomOperationMixStaysConsistent)
{
    sim::Rng rng(GetParam());
    os::Kernel kernel;
    os::Process &a = kernel.create_process();
    os::Process &b = kernel.create_process();
    std::vector<os::Process *> procs{&a, &b};

    const RacePolicy policy = static_cast<RacePolicy>(rng.next_below(3));
    MemifConfig cfg;
    cfg.race_policy = policy;
    cfg.allow_file_backed = rng.next_below(2) == 1;
    MemifDevice dev(kernel, a, cfg);
    MemifUser user(dev);

    os::TmpFs fs(kernel);
    os::TmpFs::File *file = fs.create("/tmp/fuzz", 16);

    // Regions: private anon (2 sizes), a shared anon region, the file.
    struct Region {
        vm::VAddr base;
        std::uint32_t pages;
        bool file_backed;
    };
    std::vector<Region> regions;
    regions.push_back({a.mmap(32 * 4096, vm::PageSize::k4K), 32, false});
    regions.push_back({a.mmap(8 * 65536, vm::PageSize::k64K), 8, false});
    {
        const vm::VAddr shared = a.mmap(16 * 4096, vm::PageSize::k4K);
        b.as().mmap_shared(*a.as().find_vma(shared));
        regions.push_back({shared, 16, false});
    }
    regions.push_back({a.as().mmap_file(*file, 0, 16), 16, true});
    for (const Region &r : regions) ASSERT_NE(r.base, 0u);

    std::uint32_t submitted = 0, completed = 0;
    std::map<MovError, int> errors;

    auto driver = [&]() -> sim::Task {
        for (int step = 0; step < 160; ++step) {
            const std::uint64_t dice = rng.next_below(100);
            if (dice < 45) {
                // Submit a migration of a random sub-range.
                const Region &r = regions[rng.next_below(regions.size())];
                const std::uint32_t idx = user.alloc_request();
                if (idx == kNoRequest) continue;
                MovReq &req = user.request(idx);
                req.op = MovOp::kMigrate;
                const std::uint32_t n = 1 + static_cast<std::uint32_t>(
                                                rng.next_below(r.pages));
                const std::uint32_t off = static_cast<std::uint32_t>(
                    rng.next_below(r.pages - n + 1));
                const vm::Vma *vma = a.as().find_vma(r.base);
                req.src_base =
                    r.base + off * vm::page_bytes(vma->page_size());
                req.num_pages = n;
                req.dst_node = rng.next_below(2) == 0
                                   ? kernel.fast_node()
                                   : kernel.slow_node();
                ++submitted;
                co_await user.submit(idx);
            } else if (dice < 60) {
                // Submit a replication between two private regions.
                const std::uint32_t idx = user.alloc_request();
                if (idx == kNoRequest) continue;
                MovReq &req = user.request(idx);
                req.op = MovOp::kReplicate;
                req.src_base = regions[0].base;
                req.dst_base = regions[2].base;
                req.num_pages = static_cast<std::uint32_t>(
                    1 + rng.next_below(16));
                ++submitted;
                co_await user.submit(idx);
            } else if (dice < 70) {
                // Deliberately malformed request.
                const std::uint32_t idx = user.alloc_request();
                if (idx == kNoRequest) continue;
                MovReq &req = user.request(idx);
                req.op = MovOp::kMigrate;
                req.src_base = 0xDEAD0000 + rng.next_below(1 << 20);
                req.num_pages = static_cast<std::uint32_t>(
                    rng.next_below(600));
                req.dst_node = static_cast<std::uint32_t>(
                    rng.next_below(4));
                ++submitted;
                co_await user.submit(idx);
            } else if (dice < 85) {
                // Touch memory, possibly racing an in-flight move.
                const Region &r = regions[rng.next_below(regions.size())];
                const vm::Vma *vma = a.as().find_vma(r.base);
                const vm::VAddr va =
                    r.base + rng.next_below(r.pages) *
                                 vm::page_bytes(vma->page_size());
                os::TouchOutcome out;
                co_await a.touch(va, rng.next_below(2) == 1, &out);
            } else {
                // Drain completions.
                for (;;) {
                    const std::uint32_t idx = user.retrieve_completed();
                    if (idx == kNoRequest) break;
                    ++errors[user.request(idx).error];
                    user.free_request(idx);
                    ++completed;
                }
            }
            co_await sim::Delay{kernel.eq(),
                                sim::microseconds(rng.next_below(60))};
        }
        // Final drain.
        while (completed < submitted) {
            const std::uint32_t idx = user.retrieve_completed();
            if (idx == kNoRequest) {
                co_await user.poll();
                continue;
            }
            ++errors[user.request(idx).error];
            user.free_request(idx);
            ++completed;
        }
    };
    auto task = driver();
    kernel.run();
    ASSERT_TRUE(task.done());
    task.rethrow_if_failed();

    // Every submitted request was answered; the device quiesced.
    EXPECT_EQ(completed, submitted);
    EXPECT_TRUE(dev.idle());
    // Only explainable errors occurred.
    for (const auto &[err, count] : errors) {
        const bool expected =
            err == MovError::kNone || err == MovError::kBadAddress ||
            err == MovError::kBadRequest || err == MovError::kBadNode ||
            err == MovError::kNoMemory || err == MovError::kRace ||
            err == MovError::kAborted || err == MovError::kBusy ||
            err == MovError::kFileBacked;
        EXPECT_TRUE(expected) << "error " << static_cast<int>(err);
    }
    // The whole machine is still coherent.
    check_machine_consistency(kernel, procs);
    // All data still readable through every region.
    std::vector<std::uint8_t> buf;
    for (const Region &r : regions) {
        const vm::Vma *vma = a.as().find_vma(r.base);
        buf.resize(r.pages * vm::page_bytes(vma->page_size()));
        EXPECT_TRUE(a.as().read(r.base, buf.data(), buf.size()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---------------------------------------------------------------------------
// Fault-randomized stress: the same kind of random operation mix, but with
// every DMA fault site armed at a low probability. The machine must absorb
// TC errors, stuck transfers, lost interrupts and allocation failures and
// still deliver a terminal status for every request, keep destinations
// all-or-nothing, quiesce, leak no frames, and replay bit-identically under
// the same seed.
// ---------------------------------------------------------------------------

using check::pat_byte;

void
fill_pattern(os::Process &p, vm::VAddr base, std::uint64_t bytes,
             std::uint8_t pattern)
{
    std::vector<std::uint8_t> buf(bytes);
    check::fill_pattern(pattern, buf);
    ASSERT_TRUE(p.as().write(base, buf.data(), bytes));
}

bool
matches_pattern(os::Process &p, vm::VAddr base, std::uint64_t bytes,
                std::uint8_t pattern)
{
    std::vector<std::uint8_t> buf(bytes);
    if (!p.as().read(base, buf.data(), bytes)) return false;
    for (std::uint64_t i = 0; i < bytes; ++i)
        if (buf[i] != pat_byte(pattern, i)) return false;
    return true;
}

/** Everything observable about one fault-fuzz run, for replay comparison. */
struct FaultRunSummary {
    sim::SimTime end_time = 0;
    std::uint32_t submitted = 0;
    std::uint32_t completed = 0;
    std::map<MovError, int> errors;
    std::uint64_t dma_errors = 0;
    std::uint64_t dma_retries = 0;
    std::uint64_t fallback_copies = 0;
    std::uint64_t watchdog_timeouts = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t outstanding = 0;

    bool operator==(const FaultRunSummary &) const = default;
};

void
run_fault_fuzz(std::uint64_t seed, FaultRunSummary *out)
{
    sim::Rng rng(seed);
    os::Kernel kernel;
    kernel.faults().seed(seed * 0x9E3779B97F4A7C15ull + 1);
    kernel.faults().arm_probability(dma::kFaultTcError, 0.08);
    kernel.faults().arm_probability(dma::kFaultStuck, 0.05);
    kernel.faults().arm_probability(dma::kFaultLostIrq, 0.04);
    kernel.faults().arm_probability(kFaultAllocFail, 0.03);

    os::Process &a = kernel.create_process();
    std::vector<os::Process *> procs{&a};

    MemifConfig cfg;
    cfg.race_policy = static_cast<RacePolicy>(rng.next_below(3));
    cfg.cpu_copy_fallback = rng.next_below(4) != 0;  // mostly on
    const std::uint64_t thresholds[] = {0, 16 * 1024, 512 * 1024};
    cfg.poll_threshold_bytes = thresholds[rng.next_below(3)];
    MemifDevice dev(kernel, a, cfg);
    MemifUser user(dev);

    // Private anonymous regions only, each with a distinct byte pattern,
    // so all-or-nothing can be checked exactly: migrations never change
    // content, and each scratch page holds either its own pattern or the
    // replication source's — never a partial mix.
    struct Region {
        vm::VAddr base;
        std::uint32_t pages;
        std::uint64_t page_bytes;
        std::uint8_t pattern;
    };
    std::vector<Region> regions;
    regions.push_back({a.mmap(32 * 4096, vm::PageSize::k4K), 32, 4096, 11});
    regions.push_back(
        {a.mmap(8 * 65536, vm::PageSize::k64K), 8, 65536, 57});
    const Region scratch{a.mmap(32 * 4096, vm::PageSize::k4K), 32, 4096,
                         101};
    regions.push_back(scratch);
    for (const Region &r : regions) ASSERT_NE(r.base, 0u);
    for (const Region &r : regions)
        fill_pattern(a, r.base, r.pages * r.page_bytes, r.pattern);

    // Every page is populated now; from here on the frame count may only
    // fluctuate transiently while a migration holds old + new frames.
    const std::uint64_t baseline = kernel.phys().outstanding_pages();

    std::uint32_t submitted = 0, completed = 0;
    std::map<MovError, int> errors;

    auto drain = [&]() {
        for (;;) {
            const std::uint32_t idx = user.retrieve_completed();
            if (idx == kNoRequest) break;
            const MovStatus st = user.request(idx).load_status();
            EXPECT_TRUE(st == MovStatus::kDone || st == MovStatus::kFailed)
                << "non-terminal status " << static_cast<int>(st);
            ++errors[user.request(idx).error];
            user.free_request(idx);
            ++completed;
        }
    };

    auto driver = [&]() -> sim::Task {
        for (int step = 0; step < 150; ++step) {
            const std::uint64_t dice = rng.next_below(100);
            if (dice < 50) {
                // Migrate a random sub-range of a random region.
                const Region &r = regions[rng.next_below(regions.size())];
                const std::uint32_t idx = user.alloc_request();
                if (idx == kNoRequest) continue;
                MovReq &req = user.request(idx);
                req.op = MovOp::kMigrate;
                const std::uint32_t n = 1 + static_cast<std::uint32_t>(
                                                rng.next_below(r.pages));
                const std::uint32_t off = static_cast<std::uint32_t>(
                    rng.next_below(r.pages - n + 1));
                req.src_base = r.base + off * r.page_bytes;
                req.num_pages = n;
                req.dst_node = rng.next_below(2) == 0
                                   ? kernel.fast_node()
                                   : kernel.slow_node();
                ++submitted;
                co_await user.submit(idx);
            } else if (dice < 65) {
                // Replicate a prefix of region 0 into the scratch region.
                const std::uint32_t idx = user.alloc_request();
                if (idx == kNoRequest) continue;
                MovReq &req = user.request(idx);
                req.op = MovOp::kReplicate;
                req.src_base = regions[0].base;
                req.dst_base = scratch.base;
                req.num_pages = static_cast<std::uint32_t>(
                    1 + rng.next_below(scratch.pages));
                ++submitted;
                co_await user.submit(idx);
            } else if (dice < 75) {
                // Deliberately malformed request.
                const std::uint32_t idx = user.alloc_request();
                if (idx == kNoRequest) continue;
                MovReq &req = user.request(idx);
                req.op = MovOp::kMigrate;
                req.src_base = 0xDEAD0000 + rng.next_below(1 << 20);
                req.num_pages = static_cast<std::uint32_t>(
                    rng.next_below(600));
                req.dst_node = static_cast<std::uint32_t>(
                    rng.next_below(4));
                ++submitted;
                co_await user.submit(idx);
            } else {
                drain();
            }
            co_await sim::Delay{kernel.eq(),
                                sim::microseconds(rng.next_below(60))};
        }
        while (completed < submitted) {
            const std::uint32_t before = completed;
            drain();
            if (completed == before) co_await user.poll();
        }
    };
    auto task = driver();
    kernel.run();
    ASSERT_TRUE(task.done());
    task.rethrow_if_failed();

    // Every request reached a terminal state and the device quiesced.
    ASSERT_EQ(completed, submitted);
    EXPECT_TRUE(dev.idle());
    // Only explainable errors occurred: validation failures, injected
    // allocation failures, and unrecoverable DMA outcomes.
    for (const auto &[err, count] : errors) {
        const bool expected =
            err == MovError::kNone || err == MovError::kBadAddress ||
            err == MovError::kBadRequest || err == MovError::kBadNode ||
            err == MovError::kNoMemory || err == MovError::kBusy ||
            err == MovError::kDmaError || err == MovError::kTimeout;
        EXPECT_TRUE(expected) << "error " << static_cast<int>(err);
    }
    // No frame leaked: rollbacks, retries and fallbacks all returned to
    // exactly the pre-run footprint.
    EXPECT_EQ(kernel.phys().outstanding_pages(), baseline);
    check_machine_consistency(kernel, procs);

    // All-or-nothing data: migrations preserve content bit-exactly...
    EXPECT_TRUE(matches_pattern(a, regions[0].base,
                                regions[0].pages * regions[0].page_bytes,
                                regions[0].pattern));
    EXPECT_TRUE(matches_pattern(a, regions[1].base,
                                regions[1].pages * regions[1].page_bytes,
                                regions[1].pattern));
    // ...and each scratch page holds either its original pattern or the
    // replication source's page, never a torn mixture.
    for (std::uint32_t i = 0; i < scratch.pages; ++i) {
        const std::uint64_t off = i * scratch.page_bytes;
        const bool own = matches_pattern(a, scratch.base + off,
                                         scratch.page_bytes,
                                         static_cast<std::uint8_t>(
                                             pat_byte(scratch.pattern, off)));
        const bool src = matches_pattern(
            a, scratch.base + off, scratch.page_bytes,
            static_cast<std::uint8_t>(pat_byte(regions[0].pattern, off)));
        EXPECT_TRUE(own || src) << "torn scratch page " << i;
    }

    const DeviceStats &st = dev.stats();
    *out = FaultRunSummary{.end_time = kernel.eq().now(),
                           .submitted = submitted,
                           .completed = completed,
                           .errors = errors,
                           .dma_errors = st.dma_errors,
                           .dma_retries = st.dma_retries,
                           .fallback_copies = st.fallback_copies,
                           .watchdog_timeouts = st.watchdog_timeouts,
                           .rollbacks = st.rollbacks,
                           .outstanding =
                               kernel.phys().outstanding_pages()};
}

class FaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, RecoversFromRandomFaultsAndReplaysDeterministically)
{
    FaultRunSummary first, second;
    ASSERT_NO_FATAL_FAILURE(run_fault_fuzz(GetParam(), &first));
    ASSERT_NO_FATAL_FAILURE(run_fault_fuzz(GetParam(), &second));

    // The armed probabilities actually bite on most seeds; at minimum the
    // run must have exercised the recovery machinery or survived cleanly.
    EXPECT_GT(first.submitted, 0u);

    // Same seed => bit-identical virtual time, stats and error histogram.
    EXPECT_EQ(first.end_time, second.end_time);
    EXPECT_EQ(first.submitted, second.submitted);
    EXPECT_EQ(first.completed, second.completed);
    EXPECT_EQ(first.dma_errors, second.dma_errors);
    EXPECT_EQ(first.dma_retries, second.dma_retries);
    EXPECT_EQ(first.fallback_copies, second.fallback_copies);
    EXPECT_EQ(first.watchdog_timeouts, second.watchdog_timeouts);
    EXPECT_EQ(first.rollbacks, second.rollbacks);
    EXPECT_TRUE(first.errors == second.errors);
    EXPECT_TRUE(first == second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz,
                         ::testing::Values(7, 19, 23, 42, 77, 1009));

}  // namespace
}  // namespace memif::core
