/**
 * @file
 * Figure 7 reproduction: per-request completion latency for a sequence
 * of eight migration requests, each covering sixteen 4 KB pages.
 *
 *   Linux-b1 / Linux-b4 / Linux-b8 — NUMA migration syscalls batching
 *       1, 4 or 8 requests per syscall: batching amortizes overhead but
 *       delays every batched request to the syscall's return.
 *   memif — all eight submitted asynchronously; one ioctl total; each
 *       notification arrives soon after its own request completes.
 *
 * Paper claim: memif reduces latency by up to 63% while needing no
 * batching.
 */
#include <cmath>
#include <cstdio>
#include <string_view>

#include "harness.h"

int
main()
{
    using namespace memif::bench;
    BenchReport report("fig7_latency");
    header("Figure 7: latency of 8 migration requests (16 x 4KB pages each)");

    const RequestPlan plan{.op = memif::core::MovOp::kMigrate,
                           .page_size = memif::vm::PageSize::k4K,
                           .pages_per_request = 16,
                           .num_requests = 8};

    struct Series {
        const char *name;
        std::vector<double> us;
        std::uint64_t kicks = 0;
    };
    std::vector<Series> series;

    static const char *kLinuxNames[] = {"Linux-b1", "Linux-b4", "Linux-b8"};
    const std::uint32_t kBatches[] = {1, 4, 8};
    for (int i = 0; i < 3; ++i) {
        TestBed bed;
        const StreamOutcome out = run_linux_stream(bed, plan, kBatches[i]);
        Series s{.name = kLinuxNames[i], .us = {}, .kicks = 0};
        for (const RequestTiming &t : out.timings)
            s.us.push_back(memif::sim::to_us(t.latency()));
        series.push_back(std::move(s));
    }
    {
        TestBed bed;
        const StreamOutcome out = run_memif_stream(bed, plan);
        Series s{.name = "memif", .us = {}, .kicks = bed.user.stats().kicks};
        for (const RequestTiming &t : out.timings)
            s.us.push_back(memif::sim::to_us(t.latency()));
        series.push_back(std::move(s));
    }

    std::printf("%-10s", "request#");
    for (int i = 0; i < 8; ++i) std::printf(" %8d", i + 1);
    std::printf(" %9s\n", "mean_us");
    rule();
    double memif_mean = 0, best_linux_mean = 1e30;
    for (const Series &s : series) {
        double sum = 0;
        std::printf("%-10s", s.name);
        for (std::size_t i = 0; i < s.us.size(); ++i) {
            const double v = s.us[i];
            std::printf(" %8.1f", v);
            sum += v;
            report.add(s.name, static_cast<double>(i + 1), v);
        }
        const double mean = sum / static_cast<double>(s.us.size());
        std::printf(" %9.1f\n", mean);
        if (std::string(s.name) == "memif")
            memif_mean = mean;
        else if (mean < best_linux_mean)
            best_linux_mean = mean;
    }
    rule();
    std::printf(
        "memif mean latency reduction vs best Linux config: %.0f%% "
        "(paper: up to 63%%)\n",
        100.0 * (1.0 - memif_mean / best_linux_mean));
    std::printf("memif syscalls (kick ioctls) for all 8 requests: %llu "
                "(paper: one)\n",
                static_cast<unsigned long long>(series.back().kicks));

    // ---- Small-request streams: completion batching -------------------
    // Streams of small requests are dominated by the per-request
    // completion tax (one IRQ + one wakeup + Release/Notify each), not
    // copy bandwidth. These cells run with the kernel contexts
    // serialized on one driver core — the regime where that tax sits on
    // the critical path — and compare the paper default, the PR 2
    // pipelined levers, and the moderated (completion-batching) levers.
    // The legacy cells above keep the default free-overlap CPU model,
    // so their timelines are untouched.
    header("Fig. 7 extension: small-request streams, one driver core");

    struct StreamCell {
        const char *name;
        std::uint32_t pages_per_request;
        std::uint32_t num_requests;
    };
    const std::uint32_t shrink = quick_mode() ? 4 : 1;
    const StreamCell cells[] = {
        {"256x4KB", 1, 256 / shrink},
        {"64x16KB", 4, 64 / shrink},
    };
    struct StreamCfg {
        const char *name;
        memif::core::MemifConfig mc;
    };
    const StreamCfg cfgs[] = {
        {"default", memif::core::MemifConfig{}},
        {"pipelined", memif::core::MemifConfig::pipelined()},
        {"moderated", memif::core::MemifConfig::moderated()},
        {"scaled", memif::core::MemifConfig::scaled()},
    };

    std::printf("%-10s %-10s %10s %9s %9s %9s %9s\n", "stream", "config",
                "elapsed_us", "GB/s", "irqs/req", "wake/req", "drains");
    rule();
    for (const StreamCell &cell : cells) {
        // NaN until the config runs, and NaN fails every gate.
        double pip_gbps = NAN, pip_tax = NAN, mod_gbps = NAN, mod_tax = NAN;
        for (const StreamCfg &cfg : cfgs) {
            memif::os::KernelConfig kc;
            kc.single_driver_core = true;
            TestBed bed(cfg.mc, kc);
            const RequestPlan sp{.op = memif::core::MovOp::kMigrate,
                                 .page_size = memif::vm::PageSize::k4K,
                                 .pages_per_request = cell.pages_per_request,
                                 .num_requests = cell.num_requests};
            const StreamOutcome out = run_memif_stream(bed, sp);
            const auto &es = bed.kernel.dma_engine().stats();
            const auto &ds = bed.dev.stats();
            const double n = static_cast<double>(cell.num_requests);
            const double irqs_per_req =
                static_cast<double>(es.interrupts_raised) / n;
            const double wakes_per_req =
                static_cast<double>(ds.kthread_wakeups) / n;
            std::printf("%-10s %-10s %10.1f %9.2f %9.2f %9.2f %9llu\n",
                        cell.name, cfg.name,
                        memif::sim::to_us(out.elapsed), out.gb_per_sec(),
                        irqs_per_req, wakes_per_req,
                        static_cast<unsigned long long>(
                            ds.completion_drains));
            const std::string sname =
                std::string("stream-") + cell.name + "-" + cfg.name;
            report.add(sname, 1, out.gb_per_sec());
            report.add(sname, 2, irqs_per_req);
            report.add(sname, 3, wakes_per_req);
            const std::string_view which = cfg.name;
            if (which == "pipelined") {
                pip_gbps = out.gb_per_sec();
                pip_tax = irqs_per_req + wakes_per_req;
            } else if (which == "moderated") {
                mod_gbps = out.gb_per_sec();
                mod_tax = irqs_per_req + wakes_per_req;
            }
        }
        // x = KB per request. The tax is (irqs + wakeups) per request.
        const double kb = 4.0 * cell.pages_per_request;
        report.add("moderated-speedup", kb, mod_gbps / pip_gbps);
        report.add("moderated-tax-ratio", kb,
                   pip_tax ? mod_tax / pip_tax : 0.0);
    }
    // Completion batching must pay off over pipelined in every cell. The
    // 4 KB stream is pure completion tax, so moderation buys more there
    // than at 16 KB; both bounds hold with margin in quick mode (1.37x /
    // 1.18x measured) and full mode (1.40x / 1.22x). The moderated tax
    // must stay at most half of pipelined's.
    report.gate({.series = "moderated-speedup", .x = 4, .min = 1.30});
    report.gate({.series = "moderated-speedup", .x = 16, .min = 1.15});
    report.gate(
        {.series = "moderated-tax-ratio", .max = 0.5, .min_points = 2});
    return report.write() ? 0 : 1;
}
