/**
 * @file
 * Ablation of the fault-injection framework and DMA error recovery:
 *
 *   1. Overhead proof: arming every fault site at probability zero must
 *      leave the virtual timeline bit-identical to running with the
 *      framework disabled — the recovery machinery (watchdogs, status
 *      tracking) is free on the happy path.
 *   2. Rate sweeps over the three DMA fault sites (TC bus error, lost
 *      completion interrupt, stuck transfer), each under the paper-
 *      default config (small requests polled by the kernel thread) and
 *      under MemifConfig::strided() (every lever on: interrupt-driven,
 *      moderated, drained and reaped completions). As the per-chain
 *      error or hang probability rises, throughput degrades from full
 *      EDMA3 speed towards the CPU byte-copy floor (p=1.0: every
 *      attempt fails, retries exhaust, and the driver falls back to
 *      memcpy for every request); a lost interrupt costs a deadline.
 *
 * Writes BENCH_fault_recovery.json: per (config, site) the elapsed
 * virtual time, retries, fallbacks and watchdog timeouts against the
 * fault rate. The sweep is deterministic, so the committed quick-mode
 * artifact pins the recovery ladder's virtual timeline.
 */
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "dma/engine.h"
#include "harness.h"

namespace memif::bench {
namespace {

constexpr std::uint32_t kPages = 64;

std::uint32_t
num_requests()
{
    return quick_mode() ? 16 : 64;
}

struct Cell {
    StreamOutcome out;
    core::DeviceStats stats;
};

Cell
run(const core::MemifConfig &mc, std::string_view site, double rate,
    bool arm_all_at_zero = false)
{
    TestBed bed(mc);
    sim::FaultInjector &faults = bed.kernel.faults();
    if (arm_all_at_zero) {
        faults.arm_probability(dma::kFaultTcError, 0.0);
        faults.arm_probability(dma::kFaultLostIrq, 0.0);
        faults.arm_probability(dma::kFaultStuck, 0.0);
        faults.arm_probability(core::kFaultAllocFail, 0.0);
    } else if (rate > 0.0) {
        faults.arm_probability(site, rate);
    }
    RequestPlan plan{.op = core::MovOp::kMigrate,
                     .page_size = vm::PageSize::k4K,
                     .pages_per_request = kPages,
                     .num_requests = num_requests()};
    Cell c;
    c.out = run_memif_stream(bed, plan);
    c.stats = bed.dev.stats();
    return c;
}

void
print_row(const char *label, const Cell &c)
{
    std::printf("%-22s %8llu %8llu %9llu %9llu %12.1f %8.2f\n", label,
                static_cast<unsigned long long>(c.stats.dma_errors),
                static_cast<unsigned long long>(c.stats.dma_retries),
                static_cast<unsigned long long>(c.stats.fallback_copies),
                static_cast<unsigned long long>(c.stats.watchdog_timeouts),
                sim::to_us(c.out.elapsed), c.out.gb_per_sec());
}

void
print_columns(const char *first)
{
    std::printf("%-22s %8s %8s %9s %9s %12s %8s\n", first, "errors",
                "retries", "fallbacks", "timeouts", "elapsed_us", "GB/s");
    rule();
}

}  // namespace
}  // namespace memif::bench

int
main()
{
    using namespace memif::bench;
    namespace core = memif::core;
    namespace dma = memif::dma;

    header("Fault recovery: injection overhead and degradation to the "
           "CPU-copy floor");
    std::printf("workload: %u migration requests x %u x 4KB pages "
                "(ping-pong slow<->fast)\n\n",
                num_requests(), kPages);

    // 1. Zero-fault overhead: the armed-at-zero timeline must be
    //    bit-identical to the unarmed one.
    print_columns("configuration");
    const Cell base = run(core::MemifConfig{}, {}, 0.0);
    print_row("framework disabled", base);
    const Cell armed = run(core::MemifConfig{}, {}, 0.0,
                           /*arm_all_at_zero=*/true);
    print_row("all sites armed, p=0", armed);
    std::printf("\nzero-fault overhead: %s\n",
                armed.out.elapsed == base.out.elapsed
                    ? "NONE (timelines bit-identical)"
                    : "NON-ZERO (REGRESSION: recovery machinery is "
                      "not free)");

    // 2. Throughput vs injected fault rate, per site and config.
    struct NamedConfig {
        const char *name;
        core::MemifConfig mc;
    };
    const NamedConfig configs[] = {
        {"default", core::MemifConfig{}},
        {"strided", core::MemifConfig::strided()},
    };
    struct Site {
        const char *name;
        std::string_view id;
    };
    const Site sites[] = {
        {"tc_error", dma::kFaultTcError},
        {"lost_irq", dma::kFaultLostIrq},
        {"stuck", dma::kFaultStuck},
    };
    const std::vector<double> rates =
        quick_mode() ? std::vector<double>{0.0, 0.1, 0.5, 1.0}
                     : std::vector<double>{0.0,  0.001, 0.01, 0.05,
                                           0.1,  0.2,   1.0};

    BenchReport report("fault_recovery");
    for (const NamedConfig &nc : configs) {
        for (const Site &s : sites) {
            std::printf("\n");
            header(std::string("Throughput vs injected ") + s.name +
                   " rate, " + nc.name + " config");
            print_columns("rate");
            const std::string key = std::string(nc.name) + "." + s.name;
            for (const double p : rates) {
                const Cell c = run(nc.mc, s.id, p);
                char label[32];
                std::snprintf(label, sizeof label, "p = %.3f%s", p,
                              p >= 1.0 ? "  (floor)" : "");
                print_row(label, c);
                report.add(key + ".elapsed_us", p,
                           memif::sim::to_us(c.out.elapsed));
                report.add(key + ".retries", p,
                           static_cast<double>(c.stats.dma_retries));
                report.add(key + ".fallbacks", p,
                           static_cast<double>(c.stats.fallback_copies));
                report.add(key + ".timeouts", p,
                           static_cast<double>(c.stats.watchdog_timeouts));
            }
            rule();
        }
    }
    std::printf("\nexpected: under the default config GB/s falls with the"
                " tc_error and stuck\nrates to the CPU byte-copy floor at"
                " p=1.0 (every chain exhausts its retries);\na lost interrupt"
                " only costs a deadline's wait. Under strided() the\n"
                "interrupt-context fallback copies of concurrent flights"
                " overlap (this\nmachine does not serialize kernel contexts"
                " on one driver core), so its\ntc_error p=1.0 row is no"
                " floor.\n");
    return 0;
}
