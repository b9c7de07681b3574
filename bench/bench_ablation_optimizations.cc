/**
 * @file
 * Ablation of the §5 driver optimizations, isolating each Table 1
 * "Optimized" column against its baseline:
 *
 *   - gang page lookup (§5.1) vs per-page walks
 *   - descriptor-chain reuse + parameter caching (§5.3) vs full
 *     reconfiguration
 *   - race detection (§5.2) vs Linux-style prevention (extra PTE+TLB
 *     work and no interrupt-context release) vs proceed-and-recover
 *   - interrupt-vs-poll threshold (§5.4)
 */
#include <cstdio>

#include "harness.h"
#include "sim/cpu.h"

namespace memif::bench {
namespace {

StreamOutcome
run(core::MemifConfig mc, os::KernelConfig kc, std::uint32_t pages,
    std::uint32_t requests, core::MovOp op = core::MovOp::kMigrate)
{
    TestBed bed(mc, kc);
    RequestPlan plan{.op = op,
                     .page_size = vm::PageSize::k4K,
                     .pages_per_request = pages,
                     .num_requests = requests};
    return run_memif_stream(bed, plan);
}

void
row(const char *name, const StreamOutcome &out, BenchReport *report = nullptr)
{
    double mean_lat = 0;
    for (const RequestTiming &t : out.timings)
        mean_lat += sim::to_us(t.latency());
    mean_lat /= static_cast<double>(out.timings.size());
    std::printf("%-26s %9.2f %11.1f %12.1f %10.1f\n", name,
                out.gb_per_sec(), mean_lat, sim::to_us(out.cpu.total),
                sim::to_us(out.cpu.op(sim::Op::kPrep)));
    if (report) {
        report->add(std::string(name) + ":gbps", 0, out.gb_per_sec());
        report->add(std::string(name) + ":cpu_us", 0,
                    sim::to_us(out.cpu.total));
    }
}

/**
 * One pipelined-dispatch lever in isolation: run the migration stream
 * under @p mc and print the device counters that attribute the gain —
 * SG entries actually emitted vs descriptor writes saved (coalescing),
 * distinct TCs dispatched to (multi-TC), and ranged TLB flushes
 * (batched shootdown).
 */
void
lever_row(BenchReport &report, const char *name, core::MemifConfig mc,
          std::uint32_t pages, std::uint32_t requests)
{
    TestBed bed(mc, {});
    RequestPlan plan{.op = core::MovOp::kMigrate,
                     .page_size = vm::PageSize::k4K,
                     .pages_per_request = pages,
                     .num_requests = requests};
    const StreamOutcome out = run_memif_stream(bed, plan);
    row(name, out, &report);
    const core::DeviceStats &st = bed.dev.stats();
    unsigned tcs_used = 0;
    for (const std::uint64_t n : st.tc_dispatches) tcs_used += n != 0;
    std::printf("  sg_entries=%llu desc_writes_saved=%llu "
                "ranged_tlb_flushes=%llu tcs_used=%u\n",
                static_cast<unsigned long long>(st.sg_entries_emitted),
                static_cast<unsigned long long>(st.descriptor_writes_saved),
                static_cast<unsigned long long>(st.ranged_tlb_flushes),
                tcs_used);
    report.add(std::string(name) + ":desc_writes_saved", 0,
               static_cast<double>(st.descriptor_writes_saved));
    report.add(std::string(name) + ":ranged_tlb_flushes", 0,
               static_cast<double>(st.ranged_tlb_flushes));
    report.add(std::string(name) + ":tcs_used", 0, tcs_used);
}

}  // namespace
}  // namespace memif::bench

int
main()
{
    using namespace memif::bench;
    using memif::core::MemifConfig;
    using memif::core::RacePolicy;
    using memif::os::KernelConfig;

    BenchReport report("ablation_optimizations");
    header("Ablations: the Section 5 optimizations in isolation");
    std::printf("workload: 64 migration requests x 64 x 4KB pages\n\n");
    std::printf("%-26s %9s %11s %12s %10s\n", "configuration", "GB/s",
                "mean_lat_us", "cpu_total_us", "prep_us");
    rule();

    const std::uint32_t pages = 64, requests = 64;

    // 5.1: gang lookup.
    {
        MemifConfig on{}, off{};
        off.gang_lookup = false;
        row("gang lookup ON  (memif)", run(on, {}, pages, requests));
        row("gang lookup OFF", run(off, {}, pages, requests));
    }
    rule('-');
    // 5.3: descriptor reuse + parameter caching.
    {
        KernelConfig cold{};
        cold.dma_options.reuse_descriptors = false;
        row("desc reuse ON  (memif)", run({}, {}, pages, requests));
        row("desc reuse OFF", run({}, cold, pages, requests));
    }
    rule('-');
    // 5.2: race policy.
    {
        MemifConfig detect{}, recover{}, prevent{};
        recover.race_policy = RacePolicy::kRecover;
        prevent.race_policy = RacePolicy::kPrevent;
        row("race detect (memif)", run(detect, {}, pages, requests));
        row("race recover", run(recover, {}, pages, requests));
        row("race prevent (Linux-ish)", run(prevent, {}, pages, requests));
    }
    rule('-');
    // 5.4: interrupt-vs-poll threshold.
    {
        MemifConfig always_poll{}, never_poll{};
        always_poll.poll_threshold_bytes = ~std::uint64_t{0};
        never_poll.poll_threshold_bytes = 0;
        row("hybrid 512KB (memif)", run({}, {}, pages, requests));
        row("always poll", run(always_poll, {}, pages, requests));
        row("always interrupt", run(never_poll, {}, pages, requests));
    }
    rule();
    // Pipelined-dispatch levers (off in every row above and in all the
    // paper figures): each in isolation, then combined, with the device
    // counters attributing the gain per lever.
    std::printf("\npipelined-dispatch levers (64 x 64 x 4KB migrations):\n");
    std::printf("%-26s %9s %11s %12s %10s\n", "configuration", "GB/s",
                "mean_lat_us", "cpu_total_us", "prep_us");
    rule();
    {
        MemifConfig base{}, co{}, tc{}, fl{};
        co.sg_coalescing = true;
        tc.multi_tc_dispatch = true;
        fl.batched_tlb_shootdown = true;
        lever_row(report, "paper default", base, pages, requests);
        lever_row(report, "+ sg coalescing", co, pages, requests);
        lever_row(report, "+ multi-TC dispatch", tc, pages, requests);
        lever_row(report, "+ batched shootdown", fl, pages, requests);
        lever_row(report, "pipelined (all three)",
                  MemifConfig::pipelined(), pages, requests);
    }
    rule();
    std::printf("\nexpected: each OFF/alternative row costs more CPU and/or"
                " throughput\nthan the memif default above it.\n");
    return 0;
}
