/**
 * @file
 * Related-work comparison (§7): three ways to get a 4 MB working set
 * into fast memory before computing over it four times.
 *
 *   eager  — Linux migrate_pages(): the app blocks while the CPU
 *            copies everything, then computes at fast speed.
 *   lazy   — Goglin-style deferred migration: arming is instant, but
 *            the first compute pass pays a full per-page migration at
 *            every fault ("defer migration without addressing the
 *            major inefficiency").
 *   memif  — asynchronous DMA migration: the request returns in
 *            microseconds, the engine moves the data while the CPU is
 *            free, and compute starts on the completion notification.
 *
 * Reported: how long the app was blocked by the request, when the data
 * was fully fast-resident, total wall time for request + 4 passes, and
 * the CPU consumed. BENCH_related_lazy.json holds each as the series
 * "<strategy>-<column>", at x = pages moved.
 */
#include <cstdio>
#include <string>

#include "harness.h"
#include "memif/user_api.h"
#include "os/page_migration.h"

namespace memif::bench {
namespace {

constexpr std::uint64_t kPages = 1024;  // 4 MB of 4 KB pages
constexpr int kPasses = 4;
constexpr double kFastRate = 3.2e9;   // streaming compute over SRAM
constexpr double kSlowRate = 2.37e9;  // over DDR (triad-like)

struct Outcome {
    double request_us = 0;    ///< app blocked in the request call
    double resident_us = 0;   ///< all pages fast, from t0
    double total_ms = 0;      ///< request + 4 compute passes
    double cpu_ms = 0;
};

/** One streaming pass; pages compute at their current node's rate. */
sim::Task
compute_pass(TestBed &bed, vm::VAddr base, bool faults_allowed)
{
    vm::Vma *vma = bed.proc.as().find_vma(base);
    for (std::uint64_t i = 0; i < kPages; ++i) {
        if (faults_allowed) {
            os::TouchOutcome out;
            co_await bed.proc.touch(vma->page_vaddr(i), true, &out);
        }
        const bool fast = bed.kernel.phys().node_of(vma->pte(i).pfn) ==
                          bed.kernel.fast_node();
        const double rate = fast ? kFastRate : kSlowRate;
        co_await bed.kernel.cpu().busy(
            sim::ExecContext::kUser, sim::Op::kOther,
            static_cast<sim::Duration>(4096.0 / rate * 1e9));
    }
}

Outcome
run_eager()
{
    TestBed bed;
    const vm::VAddr base = bed.proc.mmap(kPages * 4096, vm::PageSize::k4K);
    Outcome o;
    auto app = [&]() -> sim::Task {
        os::MigrationResult res;
        co_await os::migrate_pages_sync(bed.proc, base, kPages,
                                        bed.kernel.fast_node(), &res);
        o.request_us = sim::to_us(bed.kernel.eq().now());
        o.resident_us = o.request_us;
        for (int p = 0; p < kPasses; ++p)
            co_await compute_pass(bed, base, false);
    };
    auto t = app();
    bed.kernel.run();
    o.total_ms = sim::to_ms(bed.kernel.eq().now());
    o.cpu_ms = sim::to_ms(bed.kernel.cpu().accounting().total);
    return o;
}

Outcome
run_lazy()
{
    TestBed bed;
    const vm::VAddr base = bed.proc.mmap(kPages * 4096, vm::PageSize::k4K);
    Outcome o;
    auto app = [&]() -> sim::Task {
        os::MigrationResult res;
        co_await os::mbind_lazy(bed.proc, base, kPages,
                                bed.kernel.fast_node(), &res);
        o.request_us = sim::to_us(bed.kernel.eq().now());
        for (int p = 0; p < kPasses; ++p)
            co_await compute_pass(bed, base, /*faults_allowed=*/true);
    };
    auto t = app();
    bed.kernel.run();
    // Residency completes when the first pass has faulted every page.
    o.resident_us = o.request_us;  // refined below: end of pass 1
    o.total_ms = sim::to_ms(bed.kernel.eq().now());
    o.cpu_ms = sim::to_ms(bed.kernel.cpu().accounting().total);
    // Pass 1 duration dominates the residency point; report it as the
    // time after which every page had migrated.
    o.resident_us = 1e3 * o.total_ms -
                    3.0 * (kPages * 4096.0 / kFastRate * 1e6);
    return o;
}

Outcome
run_memif()
{
    TestBed bed;
    const vm::VAddr base = bed.proc.mmap(kPages * 4096, vm::PageSize::k4K);
    Outcome o;
    auto app = [&]() -> sim::Task {
        // One request covers 512 pages: submit two.
        for (int half = 0; half < 2; ++half) {
            const std::uint32_t idx = bed.user.alloc_request();
            core::MovReq &req = bed.user.request(idx);
            req.op = core::MovOp::kMigrate;
            req.src_base = base + static_cast<vm::VAddr>(half) * 512 * 4096;
            req.num_pages = 512;
            req.dst_node = bed.kernel.fast_node();
            co_await bed.user.submit(idx);
        }
        o.request_us = sim::to_us(bed.kernel.eq().now());
        // The CPU is free here — a real app computes on other data.
        // Sleep for the notifications, then compute at full speed.
        unsigned done = 0;
        while (done < 2) {
            const std::uint32_t idx = bed.user.retrieve_completed();
            if (idx == core::kNoRequest) {
                co_await bed.user.poll();
                continue;
            }
            bed.user.free_request(idx);
            ++done;
        }
        o.resident_us = sim::to_us(bed.kernel.eq().now());
        for (int p = 0; p < kPasses; ++p)
            co_await compute_pass(bed, base, false);
    };
    auto t = app();
    bed.kernel.run();
    o.total_ms = sim::to_ms(bed.kernel.eq().now());
    o.cpu_ms = sim::to_ms(bed.kernel.cpu().accounting().total);
    return o;
}

void
row(BenchReport &report, const std::string &name, const Outcome &o)
{
    std::printf("%-8s %12.1f %13.1f %10.2f %8.2f\n", name.c_str(),
                o.request_us, o.resident_us, o.total_ms, o.cpu_ms);
    const auto x = static_cast<double>(kPages);
    report.add(name + "-blocked_us", x, o.request_us);
    report.add(name + "-resident_us", x, o.resident_us);
    report.add(name + "-total_ms", x, o.total_ms);
    report.add(name + "-cpu_ms", x, o.cpu_ms);
}

}  // namespace
}  // namespace memif::bench

int
main()
{
    using namespace memif::bench;
    BenchReport report("related_lazy");
    header("Related work (\xc2\xa7" "7): eager vs lazy vs memif — "
           "move 4 MB, compute 4 passes");
    std::printf("%-8s %12s %13s %10s %8s\n", "strategy", "blocked_us",
                "resident_us", "total_ms", "cpu_ms");
    rule();
    row(report, "eager", run_eager());
    row(report, "lazy", run_lazy());
    row(report, "memif", run_memif());
    rule();
    std::printf(
        "\neager blocks the app for the whole CPU copy; lazy returns\n"
        "instantly but the first pass crawls through per-page faults\n"
        "(same total work, deferred); memif returns at the first DMA\n"
        "trigger, the engine moves the data off-CPU, and both total\n"
        "time and total CPU drop.\n");
    return report.write() ? 0 : 1;
}
