/**
 * @file
 * Multi-tenant service layer under overload: per-tenant latency
 * percentiles and throughput fairness as the tenant count scales
 * (1 / 4 / 16 / 64 equal-weight tenants, each keeping a window of
 * migrations in flight — roughly twice what the device can serve), and
 * a 4:1 weighted pair whose observed bandwidth split must track the
 * configured WRR weights.
 *
 * Every tenant is a separate process (its own address space) bound to
 * the device via an ASID. Admission-control bounces (kNoSpace) are
 * retried after the driver's retry-after hint, the way a real client
 * would; they are counted, not dropped.
 *
 * JSON series (BENCH_multitenant.json, gated by bench_multitenant's
 * BenchReport gates):
 *   p50_us / p99_us     aggregate request latency vs tenant count
 *   throughput_gbps     aggregate goodput vs tenant count
 *   fairness            max/min per-tenant throughput vs tenant count
 *                       (<= 2.0 at 16 equal-weight tenants)
 *   weighted_split      observed 4:1 pair bandwidth ratio at x=4
 */
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"
#include "sim/sync.h"

namespace memif::bench {
namespace {

constexpr std::uint32_t kPagesPerReq = 4;      // 16 KB per request
constexpr std::uint32_t kWindowPerTenant = 3;  // in-flight per tenant

std::uint32_t
requests_per_tenant()
{
    return quick_mode() ? 6 : 24;
}

/** Latency percentile (sorted copy; p in [0, 100]). */
double
percentile_us(std::vector<sim::Duration> lat, double p)
{
    if (lat.empty()) return 0.0;
    std::sort(lat.begin(), lat.end());
    const std::size_t i = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(lat.size() - 1) + 0.5);
    return sim::to_us(lat[std::min(i, lat.size() - 1)]);
}

struct TenantOutcome {
    std::uint64_t bytes = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;  ///< kNoSpace bounces (retried)
    sim::SimTime last_complete = 0;
    std::vector<sim::Duration> latencies;
};

struct MtOutcome {
    std::vector<TenantOutcome> tenants;
    sim::Duration elapsed = 0;
    std::uint64_t bytes = 0;
    /** Bytes the slower tenant had completed when the faster one
     *  finished (weighted-pair runs; 0 elsewhere). */
    std::uint64_t laggard_bytes_at_first_finish = 0;
    /** Tenant that drained its stream first (-1 = not recorded). */
    std::int32_t first_to_finish = -1;

    double
    gb_per_sec() const
    {
        return sim::gb_per_sec(bytes, elapsed);
    }

    /** Max/min per-tenant throughput (bytes over own completion span). */
    double
    fairness() const
    {
        double lo = 0.0, hi = 0.0;
        bool first = true;
        for (const TenantOutcome &t : tenants) {
            if (t.last_complete == 0) return 1e9;  // starved
            const double gbps =
                sim::gb_per_sec(t.bytes, t.last_complete);
            if (first) {
                lo = hi = gbps;
                first = false;
            } else {
                lo = std::min(lo, gbps);
                hi = std::max(hi, gbps);
            }
        }
        return lo > 0.0 ? hi / lo : 1e9;
    }
};

/**
 * Run @p weights.size() tenants concurrently, each migrating its own
 * regions slow<->fast with @p window requests in flight, through one
 * central driver that submits per-tenant and drains the shared
 * completion queues (completions arrive tagged with their ASID).
 */
MtOutcome
run_tenants(const std::vector<std::uint32_t> &weights,
            std::uint32_t window, std::uint32_t nreq,
            bool print_device_stats = false)
{
    const auto ntenants = static_cast<std::uint32_t>(weights.size());
    const std::uint64_t req_bytes = std::uint64_t{kPagesPerReq} * 4096;

    core::MemifConfig cfg = core::MemifConfig::tenanted();
    os::Kernel kernel;
    os::Process &owner = kernel.create_process();
    core::MemifDevice dev(kernel, owner, cfg);

    std::vector<os::Process *> procs{&owner};
    std::vector<std::unique_ptr<core::MemifUser>> users;
    users.push_back(std::make_unique<core::MemifUser>(dev, 0, 0));
    dev.set_tenant_weight(0, weights[0]);
    for (std::uint32_t t = 1; t < ntenants; ++t) {
        os::Process &p = kernel.create_process();
        const std::uint32_t asid = dev.register_tenant(p, weights[t]);
        MEMIF_ASSERT(asid == t, "unexpected asid");
        procs.push_back(&p);
        users.push_back(std::make_unique<core::MemifUser>(dev, t, t));
    }

    // Per-tenant ping-pong regions (tenant-private address spaces).
    struct Region {
        vm::VAddr base = 0;
        bool on_fast = false;
    };
    std::vector<std::vector<Region>> regions(ntenants);
    for (std::uint32_t t = 0; t < ntenants; ++t) {
        regions[t].resize(window);
        for (Region &r : regions[t]) {
            r.base = procs[t]->mmap(req_bytes, vm::PageSize::k4K);
            MEMIF_ASSERT(r.base != 0, "slow node exhausted");
        }
    }

    MtOutcome out;
    out.tenants.resize(ntenants);
    std::vector<std::uint32_t> submitted(ntenants, 0);
    std::vector<std::vector<sim::SimTime>> first_submit(ntenants);
    for (auto &v : first_submit) v.resize(nreq, 0);
    std::uint64_t total_completed = 0;
    const std::uint64_t total_requests =
        std::uint64_t{ntenants} * nreq;
    const sim::SimTime t0 = kernel.eq().now();

    auto submit_one = [&](std::uint32_t t,
                          std::uint32_t region_idx) -> sim::Task {
        Region &r = regions[t][region_idx];
        core::MemifUser &u = *users[t];
        const std::uint32_t idx = u.alloc_request();
        MEMIF_ASSERT(idx != core::kNoRequest, "request slots exhausted");
        core::MovReq &req = u.request(idx);
        const std::uint32_t req_no = submitted[t]++;
        req.op = core::MovOp::kMigrate;
        req.src_base = r.base;
        req.num_pages = kPagesPerReq;
        req.dst_node =
            r.on_fast ? kernel.slow_node() : kernel.fast_node();
        r.on_fast = !r.on_fast;
        req.user_tag = (std::uint64_t{t} << 48) |
                       (std::uint64_t{req_no} << 16) | region_idx;
        first_submit[t][req_no] = kernel.eq().now();
        co_await u.submit(idx);
    };

    auto driver = [&]() -> sim::Task {
        // Interleave the initial windows so no tenant gets a head
        // start on the submission queues.
        for (std::uint32_t w = 0; w < window; ++w)
            for (std::uint32_t t = 0; t < ntenants; ++t)
                if (submitted[t] < nreq) co_await submit_one(t, w);

        core::MemifUser &drain = *users[0];
        while (total_completed < total_requests) {
            const std::uint32_t idx = drain.retrieve_completed();
            if (idx == core::kNoRequest) {
                co_await drain.poll();
                continue;
            }
            core::MovReq &req = drain.request(idx);
            const auto t =
                static_cast<std::uint32_t>(req.user_tag >> 48);
            const auto req_no = static_cast<std::uint32_t>(
                (req.user_tag >> 16) & 0xFFFFFFFF);
            const auto region_idx =
                static_cast<std::uint32_t>(req.user_tag & 0xFFFF);
            TenantOutcome &to = out.tenants[t];
            if (req.load_status() == core::MovStatus::kFailed &&
                req.error == core::MovError::kNoSpace) {
                // Admission backpressure: honor the hint and retry
                // through the owning tenant's handle. A zero hint
                // marks a permanently over-quota request — the bench
                // never submits one, so treat it as a setup bug.
                assert(req.retry_after_us != 0 &&
                       "bench request permanently over quota");
                ++to.rejected;
                const std::uint32_t us = req.retry_after_us;
                co_await sim::Delay{kernel.eq(),
                                    sim::microseconds(us)};
                co_await users[t]->submit(idx);
                continue;
            }
            MEMIF_ASSERT(req.succeeded(), "bench request failed (%u)",
                         static_cast<unsigned>(req.error));
            to.latencies.push_back(req.complete_time -
                                   first_submit[t][req_no]);
            to.bytes += req_bytes;
            to.last_complete = req.complete_time;
            ++to.completed;
            ++total_completed;
            drain.free_request(idx);
            if (to.completed == nreq && out.first_to_finish < 0 &&
                ntenants == 2) {
                out.first_to_finish = static_cast<std::int32_t>(t);
                out.laggard_bytes_at_first_finish =
                    out.tenants[1 - t].bytes;
            }
            if (submitted[t] < nreq)
                co_await submit_one(t, region_idx);
        }
    };
    auto task = driver();
    kernel.run();
    task.rethrow_if_failed();
    MEMIF_ASSERT(task.done(), "multitenant stream did not finish");

    out.elapsed = kernel.eq().now() - t0;
    out.bytes = req_bytes * total_requests;
    if (print_device_stats) {
        std::printf("\n");
        dev.print_stats(stdout);
    }
    return out;
}

}  // namespace
}  // namespace memif::bench

int
main()
{
    using namespace memif::bench;

    BenchReport report("multitenant");
    const std::uint32_t nreq = requests_per_tenant();

    header("Multi-tenant overload: per-tenant latency and fairness vs "
           "tenant count");
    std::printf("workload: %u migrations x %u x 4KB pages per tenant, "
                "window %u in flight each\n\n",
                nreq, kPagesPerReq, kWindowPerTenant);
    std::printf("%8s %10s %10s %12s %10s %10s\n", "tenants", "p50_us",
                "p99_us", "agg_GB/s", "fairness", "rejected");
    rule();

    for (const std::uint32_t n : {1u, 4u, 16u, 64u}) {
        const std::vector<std::uint32_t> weights(n, 1);
        const MtOutcome out =
            run_tenants(weights, kWindowPerTenant, nreq,
                        /*print_device_stats=*/n == 16);
        std::vector<memif::sim::Duration> all;
        std::uint64_t rejected = 0;
        for (const TenantOutcome &t : out.tenants) {
            all.insert(all.end(), t.latencies.begin(),
                       t.latencies.end());
            rejected += t.rejected;
        }
        const double p50 = percentile_us(all, 50.0);
        const double p99 = percentile_us(all, 99.0);
        const double fair = out.fairness();
        std::printf("%8u %10.1f %10.1f %12.2f %10.2f %10llu\n", n, p50,
                    p99, out.gb_per_sec(), fair,
                    static_cast<unsigned long long>(rejected));
        report.add("p50_us", n, p50);
        report.add("p99_us", n, p99);
        report.add("throughput_gbps", n, out.gb_per_sec());
        report.add("fairness", n, fair);
    }
    // The WRR dispatcher must keep 16 equal-weight tenants within 2x of
    // each other.
    report.gate({.series = "fairness", .x = 16, .max = 2.0});
    rule();
    std::printf("\nexpected: every tenant makes progress at every count "
                "(fairness stays near 1,\ngated <= 2.0 at 16 tenants); "
                "p99 grows with contention but stays bounded.\n\n");

    header("Weighted pair: 4:1 WRR weights -> ~4:1 bandwidth split");
    {
        // Two tenants cannot overload the device at the sweep's small
        // window (the engines drain both before WRR ever has to pick a
        // loser), so the pair runs deep windows and a longer stream:
        // ~24 requests in flight against a device that saturates near
        // 12, with enough work that the light tenant is still queueing
        // when the heavy one finishes.
        const MtOutcome out = run_tenants({4, 1}, 12, 4 * nreq);
        const TenantOutcome &heavy = out.tenants[0];
        const std::uint64_t laggard =
            out.laggard_bytes_at_first_finish
                ? out.laggard_bytes_at_first_finish
                : 1;
        // Share of bytes completed while BOTH tenants still competed:
        // the heavy tenant's full load against what the light one had
        // finished at that moment.
        const double split = out.first_to_finish == 0
                                 ? static_cast<double>(heavy.bytes) /
                                       static_cast<double>(laggard)
                                 : 1.0;
        std::printf("heavy tenant (w=4): %7.2f MB moved\n",
                    static_cast<double>(heavy.bytes) / (1 << 20));
        std::printf("light tenant (w=1): %7.2f MB at heavy's finish\n",
                    static_cast<double>(laggard) / (1 << 20));
        std::printf("observed split: %.2f : 1 (configured 4 : 1)\n",
                    split);
        report.add("weighted_split", 4.0, split);
        // A 4:1 weight pair must split bandwidth roughly 4:1 while both
        // still compete.
        report.gate(
            {.series = "weighted_split", .x = 4, .min = 3.0, .max = 5.0});
    }
    return report.write() ? 0 : 1;
}
