/**
 * @file
 * Figure 8 reproduction: sustained memory-move throughput across page
 * granularities (4 KB / 64 KB / 2 MB) and request sizes, comparing:
 *
 *   migspeed   — continuous Linux NUMA migration (the numactl utility)
 *   memif-mig  — a stream of memif migration requests
 *   memif-rep  — a stream of memif replication requests
 *
 * Requests ping-pong regions between the slow and fast nodes so the
 * 6 MB SRAM never fills.
 *
 * Paper claims: except at one 4 KB page per request, memif beats
 * migspeed by >= 40% (small pages) up to ~3x (large pages), and
 * replication outruns migration (no VM management).
 *
 * A final section compares the paper-default memif against the
 * pipelined configuration (SG coalescing + multi-TC dispatch + batched
 * TLB shootdown) on the 4 KB migration stream — the levers are off in
 * the paper tables above, which therefore keep their exact numbers.
 */
#include <cstdio>

#include "harness.h"

namespace memif::bench {
namespace {

double
memif_gbps(core::MemifConfig mc, core::MovOp op, vm::PageSize ps,
           std::uint32_t pages, std::uint32_t requests)
{
    TestBed bed(mc);
    RequestPlan plan{.op = op,
                     .page_size = ps,
                     .pages_per_request = pages,
                     .num_requests = requests};
    return run_memif_stream(bed, plan).gb_per_sec();
}

double
memif_gbps(core::MovOp op, vm::PageSize ps, std::uint32_t pages,
           std::uint32_t requests)
{
    return memif_gbps(core::MemifConfig{}, op, ps, pages, requests);
}

double
linux_gbps(vm::PageSize ps, std::uint32_t pages, std::uint32_t requests)
{
    TestBed bed;
    RequestPlan plan{.op = core::MovOp::kMigrate,
                     .page_size = ps,
                     .pages_per_request = pages,
                     .num_requests = requests};
    return run_linux_stream(bed, plan, 1).gb_per_sec();
}

std::uint32_t
requests_for(vm::PageSize ps, std::uint32_t pages, std::uint64_t target_bytes)
{
    const std::uint64_t req_bytes = vm::page_bytes(ps) * pages;
    auto requests = static_cast<std::uint32_t>(target_bytes / req_bytes);
    if (requests < 8) requests = 8;
    if (requests > 2048) requests = 2048;
    return requests;
}

void
sweep(BenchReport &report, vm::PageSize ps, const char *label,
      const std::vector<std::uint32_t> &page_counts,
      std::uint64_t target_bytes)
{
    std::printf("\n--- page size %s ---\n", label);
    std::printf("%6s %10s %10s %10s %12s %12s\n", "pages", "migspeed",
                "memif-mig", "memif-rep", "mig/migspd", "rep/migspd");
    rule();
    for (const std::uint32_t pages : page_counts) {
        const std::uint32_t requests = requests_for(ps, pages, target_bytes);
        const double lin = linux_gbps(ps, pages, requests);
        const double mig =
            memif_gbps(core::MovOp::kMigrate, ps, pages, requests);
        const double rep =
            memif_gbps(core::MovOp::kReplicate, ps, pages, requests);
        std::printf("%6u %9.2f %10.2f %10.2f %11.2fx %11.2fx\n", pages, lin,
                    mig, rep, mig / lin, rep / lin);
        report.add(std::string("migspeed-") + label, pages, lin);
        report.add(std::string("memif-mig-") + label, pages, mig);
        report.add(std::string("memif-rep-") + label, pages, rep);
    }
}

void
pipelined_sweep(BenchReport &report,
                const std::vector<std::uint32_t> &page_counts,
                std::uint64_t target_bytes)
{
    std::printf("\n--- memif-pipelined (4KB migration): coalescing + "
                "multi-TC + batched shootdown ---\n");
    std::printf("%6s %10s %10s %10s\n", "pages", "memif-mig", "memif-pip",
                "speedup");
    rule();
    for (const std::uint32_t pages : page_counts) {
        const std::uint32_t requests =
            requests_for(vm::PageSize::k4K, pages, target_bytes);
        const double mig = memif_gbps(core::MovOp::kMigrate,
                                      vm::PageSize::k4K, pages, requests);
        const double pip =
            memif_gbps(core::MemifConfig::pipelined(), core::MovOp::kMigrate,
                       vm::PageSize::k4K, pages, requests);
        std::printf("%6u %9.2f %10.2f %9.2fx\n", pages, mig, pip, pip / mig);
        report.add("memif-pip-4KB", pages, pip);
        report.add("pip-speedup-4KB", pages, pip / mig);
    }
    // The levers must pay off wherever a request spans enough pages to
    // pipeline: >= 1.25x the paper default at every point from 16 pages.
    report.gate({.series = "pip-speedup-4KB", .x_min = 16, .min = 1.25});
}

}  // namespace
}  // namespace memif::bench

int
main()
{
    using namespace memif::bench;
    BenchReport report("fig8_throughput");
    header("Figure 8: memory-move throughput (GB/s) vs pages per request");
    const std::uint64_t target =
        quick_mode() ? (4ull << 20) : (64ull << 20);  // bytes moved per cell
    sweep(report, memif::vm::PageSize::k4K, "4KB", {1, 4, 16, 64, 256},
          target);
    sweep(report, memif::vm::PageSize::k64K, "64KB", {1, 4, 16, 64}, target);
    sweep(report, memif::vm::PageSize::k2M, "2MB", {1, 2}, target);
    std::printf(
        "\npaper: memif >= 1.4x migspeed for small pages (except 1x4KB),\n"
        "up to ~3x for large pages; replication >= migration throughput.\n");
    pipelined_sweep(report, {4, 16, 64, 256}, target);
    return report.write() ? 0 : 1;
}
