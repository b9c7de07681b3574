/**
 * @file
 * Submission-path scaling: the two regimes the PR 4 levers target.
 *
 * Section 1 — deposit scaling. The same migration stream submitted from
 * 1, 2 or 4 simulated CPUs, through the classic single shared staging
 * queue and through per-CPU submission rings. Submission is user-side
 * and advances no virtual time, so the metric is the kUser CPU
 * accounting delta around the submit calls: per-deposit cost, and an
 * aggregate "submit scaling" factor k * T(1 CPU) / T(k CPUs) — what k
 * truly parallel submitters would sustain relative to one. Rings keep
 * every deposit contention-free, so the factor tracks k; the shared
 * queue pays a CAS-retry penalty whenever a second CPU deposits within
 * the contention window, and the factor collapses.
 *
 * Section 2 — repeated-region streams. A 256-request stream of 4 KB
 * migrations ping-ponging over only four regions: after one lap, every
 * translation the driver needs is one it computed a moment ago. The
 * scaled() config (gang translation cache + bulk frame allocation +
 * rings) against moderated() measures the tentpole speedup; the
 * xlate-hit ratio must clear 0.9.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace memif;
using namespace memif::bench;

constexpr std::uint32_t kWindow = 8;  ///< in-flight regions, section 1

struct DepositOutcome {
    sim::Duration submit_user_ns = 0;  ///< kUser time inside submit()
    std::uint64_t retries = 0;         ///< shared-queue CAS retries
    std::uint64_t ring_submits = 0;    ///< deposits that went via rings
};

/**
 * Run @p num_requests 4 KB migrations, deposited round-robin from
 * @p ncpu user handles in bursts of kWindow back-to-back submissions
 * (the worst case for the shared queue: every deposit of a burst lands
 * at the same virtual instant).
 */
DepositOutcome
run_deposit_stream(TestBed &bed, std::uint32_t ncpu,
                   std::uint32_t num_requests)
{
    std::vector<std::unique_ptr<core::MemifUser>> users;
    for (std::uint32_t c = 0; c < ncpu; ++c)
        users.push_back(std::make_unique<core::MemifUser>(bed.dev, c));

    const std::uint64_t req_bytes = vm::page_bytes(vm::PageSize::k4K);
    struct Region {
        vm::VAddr base = 0;
        bool on_fast = false;
    };
    std::vector<Region> regions(kWindow);
    for (Region &r : regions) {
        r.base = bed.proc.mmap(req_bytes, vm::PageSize::k4K);
        MEMIF_ASSERT(r.base != 0, "slow node exhausted");
    }

    DepositOutcome out;
    auto driver = [&]() -> sim::Task {
        std::uint32_t done = 0;
        std::uint32_t next = 0;
        while (done < num_requests) {
            const std::uint32_t burst =
                std::min(kWindow, num_requests - done);
            for (std::uint32_t i = 0; i < burst; ++i, ++next) {
                Region &r = regions[i];
                core::MemifUser &u = *users[next % ncpu];
                const std::uint32_t idx = u.alloc_request();
                MEMIF_ASSERT(idx != core::kNoRequest);
                core::MovReq &req = u.request(idx);
                req.op = core::MovOp::kMigrate;
                req.src_base = r.base;
                req.num_pages = 1;
                req.dst_node = r.on_fast ? bed.kernel.slow_node()
                                         : bed.kernel.fast_node();
                r.on_fast = !r.on_fast;
                const sim::CpuAccounting before =
                    bed.kernel.cpu().snapshot();
                co_await u.submit(idx);
                out.submit_user_ns +=
                    bed.kernel.cpu().snapshot().since(before).by_context
                        [static_cast<std::size_t>(sim::ExecContext::kUser)];
            }
            for (std::uint32_t i = 0; i < burst;) {
                const std::uint32_t idx = users[0]->retrieve_completed();
                if (idx == core::kNoRequest) {
                    co_await users[0]->poll();
                    continue;
                }
                core::MovReq &req = users[0]->request(idx);
                MEMIF_ASSERT(req.succeeded(), "deposit stream failed (%u)",
                             static_cast<unsigned>(req.error));
                users[0]->free_request(idx);
                ++i;
            }
            done += burst;
        }
    };
    auto task = driver();
    bed.kernel.run();
    task.rethrow_if_failed();
    MEMIF_ASSERT(task.done(), "deposit stream did not finish");

    const core::DeviceStats &ds = bed.dev.stats();
    out.retries = ds.shared_submit_retries;
    for (std::uint64_t n : ds.ring_submits) out.ring_submits += n;
    for (Region &r : regions) bed.proc.as().munmap(r.base);
    return out;
}

}  // namespace

int
main()
{
    BenchReport report("submission_scaling");
    const std::uint32_t shrink = quick_mode() ? 4 : 1;

    // ---- Section 1: deposit scaling, shared queue vs per-CPU rings ----
    header("Submission scaling: deposits from 1/2/4 CPUs");
    const std::uint32_t kDeposits = 256 / shrink;
    std::printf("%-8s %-8s %12s %12s %10s %10s\n", "path", "cpus",
                "ns/deposit", "scaling", "retries", "ring_subs");
    rule();
    struct Mode {
        const char *name;
        bool rings;
    };
    const Mode modes[] = {{"shared", false}, {"rings", true}};
    for (const Mode &m : modes) {
        double t1 = 0;  // 1-CPU total submit time for this path
        for (const std::uint32_t ncpu : {1u, 2u, 4u}) {
            core::MemifConfig mc = core::MemifConfig::moderated();
            mc.percpu_rings = m.rings;
            os::KernelConfig kc;
            kc.single_driver_core = true;
            TestBed bed(mc, kc);
            const DepositOutcome out =
                run_deposit_stream(bed, ncpu, kDeposits);
            const double total = static_cast<double>(out.submit_user_ns);
            if (ncpu == 1) t1 = total;
            // k truly parallel submitters each spend total/k of their
            // own time: aggregate throughput relative to one CPU.
            const double scaling = ncpu * t1 / total;
            std::printf("%-8s %-8u %12.1f %12.2f %10llu %10llu\n", m.name,
                        ncpu, total / kDeposits, scaling,
                        static_cast<unsigned long long>(out.retries),
                        static_cast<unsigned long long>(out.ring_submits));
            report.add(std::string("submit-scaling-") + m.name,
                       static_cast<double>(ncpu), scaling);
            report.add(std::string("deposit-ns-") + m.name,
                       static_cast<double>(ncpu), total / kDeposits);
        }
    }
    // 4 submitting CPUs over per-CPU rings must sustain >= 2x the 1-CPU
    // deposit throughput (measured 3.82x full / 3.40x quick).
    report.gate({.series = "submit-scaling-rings", .x = 1});
    report.gate({.series = "submit-scaling-rings", .x = 4, .min = 2.0});

    // ---- Section 2: repeated-region stream, moderated vs scaled -------
    header("Repeated-region 256x4KB stream: moderated vs scaled");
    const RequestPlan plan{.op = core::MovOp::kMigrate,
                           .page_size = vm::PageSize::k4K,
                           .pages_per_request = 1,
                           .num_requests = 256 / shrink,
                           .window_override = 4};
    struct Cfg {
        const char *name;
        core::MemifConfig mc;
    };
    const Cfg cfgs[] = {
        {"moderated", core::MemifConfig::moderated()},
        {"scaled", core::MemifConfig::scaled()},
    };
    std::printf("%-10s %10s %9s %9s %9s %9s %9s\n", "config", "elapsed_us",
                "GB/s", "hit%", "prefetch", "bulk", "spills");
    rule();
    double gbps_moderated = 0, gbps_scaled = 0, hit_ratio = 0;
    for (const Cfg &cfg : cfgs) {
        os::KernelConfig kc;
        kc.single_driver_core = true;
        TestBed bed(cfg.mc, kc);
        const StreamOutcome out = run_memif_stream(bed, plan);
        const core::DeviceStats &ds = bed.dev.stats();
        const double pages = static_cast<double>(plan.num_requests) *
                             plan.pages_per_request;
        const double ratio = static_cast<double>(ds.xlate_hits) / pages;
        std::printf("%-10s %10.1f %9.2f %9.1f %9llu %9llu %9llu\n",
                    cfg.name, sim::to_us(out.elapsed), out.gb_per_sec(),
                    100.0 * ratio,
                    static_cast<unsigned long long>(
                        ds.xlate_gang_prefetched),
                    static_cast<unsigned long long>(ds.bulk_allocs),
                    static_cast<unsigned long long>(ds.magazine_spills));
        report.add(std::string("stream-256x4KB-") + cfg.name, 1,
                   out.gb_per_sec());
        if (std::string(cfg.name) == "scaled") {
            gbps_scaled = out.gb_per_sec();
            hit_ratio = ratio;
        } else {
            gbps_moderated = out.gb_per_sec();
        }
    }
    report.add("xlate-hit-ratio", 1, hit_ratio);
    report.add("scaled-speedup", 1, gbps_scaled / gbps_moderated);
    // The scaled() levers must beat moderated() by >= 1.20x (measured
    // 1.23x full / 1.21x quick) with the translation cache serving >= 90%
    // of the stream's pages (measured 0.984 full / 0.938 quick).
    report.gate({.series = "scaled-speedup", .x = 1, .min = 1.20});
    report.gate({.series = "xlate-hit-ratio", .x = 1, .min = 0.90});
    rule();
    std::printf("scaled vs moderated: %.2fx   xlate hit ratio: %.3f "
                "(gates: >= 1.20x, >= 0.90)\n",
                gbps_scaled / gbps_moderated, hit_ratio);
    return report.write() ? 0 : 1;
}
