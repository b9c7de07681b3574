/**
 * @file
 * Managed mode (hot-page tracking + migration daemon) against static
 * placement, under fast-node oversubscription.
 *
 * Each cell runs a skewed access loop over a working set sized at
 * 1.5x / 2x / 4x the 6 MB fast node: a hot region swept every pass
 * plus a cold region touched in a slow rotation. Every page access is
 * priced by the node its backing frame lives on *right now*
 * (page_bytes / node bandwidth + a fixed per-access overhead), so
 * placement — not DMA throughput — is what the cell measures. Two
 * mixes: "stream" (sequential hot sweep, read-mostly) and
 * "data_intensive" (strided hot sweep, write-heavy, more cold
 * traffic).
 *
 *   static-worst  everything on DDR; the SRAM sits idle.
 *   static-best   the hot region pre-placed on SRAM by construction
 *                 (an oracle that knew the access pattern up front).
 *   managed       everything starts on DDR; the scan kthread and the
 *                 migration daemon must discover the hot set and move
 *                 it — measured after a warmup window, under both
 *                 placement policies (aging, EWMA).
 *
 * Gated by bench_managed's BenchReport gates: at 2x oversubscription
 * the better managed policy reaches >= 1.3x static-worst and >= 0.70x
 * static-best throughput on at least one mix.  The static-best bound
 * is loose on purpose: the oracle pays no discovery ramp or sampling
 * tax and packs leftover SRAM with cold pages the daemon deliberately
 * never promotes.
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

using namespace memif;
using namespace memif::bench;

constexpr std::uint64_t kPageBytes = 4096;
/** 6 MB SRAM / 4 KB. */
constexpr std::uint32_t kFastPages = 1536;

struct Shape {
    std::uint32_t hot_pages;
    std::uint32_t sweeps_per_epoch;
    std::uint32_t warmup_epochs;
    std::uint32_t measure_epochs;
};

Shape
shape()
{
    if (quick_mode()) return Shape{384, 4, 8, 8};
    return Shape{768, 4, 10, 16};
}

struct Mix {
    const char *name;
    bool strided_hot;        ///< stride the hot sweep (cache-hostile)
    double hot_write_ratio;  ///< fraction of hot accesses that write
    std::uint32_t cold_rotation;  ///< 1/N of the cold region per sweep
};

constexpr Mix kMixes[] = {
    {"stream", false, 0.0, 16},
    {"data_intensive", true, 0.5, 8},
};

enum class Placement { kWorst, kBest, kManaged };

struct CellOutcome {
    sim::Duration elapsed = 0;   ///< measured epochs only (post warmup)
    std::uint64_t bytes = 0;     ///< bytes accessed in measured epochs
    core::DeviceStats stats{};
    std::uint64_t ping_pongs = 0;

    double gb_per_sec() const { return sim::gb_per_sec(bytes, elapsed); }
};

/**
 * One cell: map hot+cold regions, run warmup + measured access epochs,
 * pricing each access by current residency. Managed cells hand both
 * regions to the daemon and let it figure out which one is hot.
 */
CellOutcome
run_cell(const Mix &mix, std::uint32_t ws_pages, Placement place,
         core::MigratePolicy policy)
{
    const Shape sh = shape();
    core::MemifConfig mc = place == Placement::kManaged
                               ? core::MemifConfig::managed()
                               : core::MemifConfig::mmu_aware();
    if (place == Placement::kManaged) {
        mc.heat.policy = policy;
        // The cell's hot set is hundreds of pages; the default trickle
        // budget would spend the whole run converging.
        mc.migrate_pages_per_epoch = 512;
        // One scan window must cover at least a full hot sweep
        // (~0.3-0.9 ms here), so every genuinely hot bucket samples
        // accessed every single epoch and classification is stable.
        mc.heat_scan_interval = sim::microseconds(1000);
        // Two consecutive accessed epochs to promote (0x80 >> 1 | 0x80):
        // the cold rotation touches each cold page once per cycle and
        // must never trigger a promotion off that single touch.
        mc.heat.aging_promote_threshold = 0xC0;
        // Settle fast and sleep long: the hot set is steady by
        // construction, so two matching epochs are enough to put a
        // bucket to sleep, and a long dormancy cap keeps probes (and
        // the access-flag traps their re-arms cause) out of the
        // measured window.
        mc.heat_settle_epochs = 2;
        mc.heat_dormant_cap = 64;
    }
    TestBed bed(mc);
    os::Kernel &k = bed.kernel;
    const mem::NodeId slow = k.slow_node();
    const mem::NodeId fast = k.fast_node();
    const double slow_bw = k.phys().node(slow).bandwidth_bps();
    const double fast_bw = k.phys().node(fast).bandwidth_bps();
    const std::uint32_t hot = sh.hot_pages;
    const std::uint32_t cold = ws_pages - hot;

    const vm::VAddr hot_base =
        bed.proc.mmap(std::uint64_t{hot} * kPageBytes, vm::PageSize::k4K,
                      place == Placement::kBest ? fast : slow);
    const vm::VAddr cold_base = bed.proc.mmap(
        std::uint64_t{cold} * kPageBytes, vm::PageSize::k4K, slow);
    MEMIF_ASSERT(hot_base != 0 && cold_base != 0, "working set mmap failed");
    if (place == Placement::kManaged) {
        MEMIF_ASSERT(bed.dev.manage_region(hot_base), "manage hot");
        MEMIF_ASSERT(bed.dev.manage_region(cold_base), "manage cold");
    }
    const vm::Vma *hot_vma = bed.proc.as().find_vma(hot_base);
    const vm::Vma *cold_vma = bed.proc.as().find_vma(cold_base);

    // Price one access by where the page lives right now. Mid-move
    // (migration PTE) pages are priced at the slow rate — the CPU is
    // about to stall on them anyway.
    auto access_cost = [&](const vm::Vma *vma, std::uint32_t page) {
        const vm::Pte pte = vma->pte(page);
        const bool on_fast =
            pte.present && !pte.migration &&
            k.phys().node_of(pte.pfn) == fast;
        const double bw = on_fast ? fast_bw : slow_bw;
        return static_cast<sim::Duration>(
                   static_cast<double>(kPageBytes) * 1e9 / bw) +
               150;  // fixed per-access overhead (ns)
    };

    CellOutcome out;
    std::uint32_t cold_cursor = 0;
    sim::SimTime measure_start = 0;
    auto driver = [&]() -> sim::Task {
        for (std::uint32_t e = 0; e < sh.warmup_epochs + sh.measure_epochs;
             ++e) {
            if (e == sh.warmup_epochs) measure_start = k.eq().now();
            const bool measuring = e >= sh.warmup_epochs;
            for (std::uint32_t s = 0; s < sh.sweeps_per_epoch; ++s) {
                std::uint64_t bytes = 0;
                // Pay for accesses in small batches rather than one
                // lump per sweep: the scanner samples PTEs on a fixed
                // interval, and clustering every touch at the sweep's
                // start makes alternate scan windows see everything /
                // nothing, flapping the classification.
                sim::Duration pending = 0;
                std::uint32_t pending_pages = 0;
                // Hot sweep: every hot page once per sweep.
                for (std::uint32_t i = 0; i < hot; ++i) {
                    const std::uint32_t p =
                        mix.strided_hot ? (i * 17) % hot : i;
                    const bool write =
                        mix.hot_write_ratio > 0.0 &&
                        (i % 100) <
                            static_cast<std::uint32_t>(
                                mix.hot_write_ratio * 100.0);
                    os::TouchOutcome t;
                    co_await bed.proc.touch(
                        hot_base + std::uint64_t{p} * kPageBytes, write,
                        &t);
                    pending += access_cost(hot_vma, p);
                    bytes += kPageBytes;
                    if (++pending_pages == 16) {
                        co_await sim::Delay{k.eq(), pending};
                        pending = 0;
                        pending_pages = 0;
                    }
                }
                // Cold rotation: the next 1/N of the cold region.
                const std::uint32_t chunk =
                    std::max<std::uint32_t>(cold / mix.cold_rotation, 1);
                for (std::uint32_t i = 0; i < chunk; ++i) {
                    const std::uint32_t p = (cold_cursor + i) % cold;
                    os::TouchOutcome t;
                    co_await bed.proc.touch(
                        cold_base + std::uint64_t{p} * kPageBytes, false,
                        &t);
                    pending += access_cost(cold_vma, p);
                    bytes += kPageBytes;
                    if (++pending_pages == 16) {
                        co_await sim::Delay{k.eq(), pending};
                        pending = 0;
                        pending_pages = 0;
                    }
                }
                cold_cursor = (cold_cursor + chunk) % cold;
                if (pending > 0) co_await sim::Delay{k.eq(), pending};
                if (measuring) out.bytes += bytes;
            }
        }
        // Stamp elapsed before the daemon's tail (idle-decay demotions
        // after the app stops) runs the clock further.
        out.elapsed = k.eq().now() - measure_start;
    };
    auto task = driver();
    k.run();
    task.rethrow_if_failed();
    MEMIF_ASSERT(task.done(), "access loop did not finish");
    out.stats = bed.dev.stats();
    out.ping_pongs = bed.dev.heat_ping_pongs();
    return out;
}

const char *
policy_name(core::MigratePolicy p)
{
    return p == core::MigratePolicy::kAging ? "aging" : "ewma";
}

}  // namespace

int
main()
{
    BenchReport report("managed");
    const struct {
        double factor;
        std::uint32_t ws_pages;
    } sizes[] = {{1.5, kFastPages * 3 / 2},
                 {2.0, kFastPages * 2},
                 {4.0, kFastPages * 4}};

    header("Managed mode vs static placement under oversubscription");
    std::printf("%-15s %5s %-14s %8s %9s %6s %6s %5s %5s %9s %9s\n",
                "mix", "ws", "placement", "GB/s", "elapsed_ms", "promo",
                "demo", "drop", "flap", "vs_worst", "vs_best");
    rule();
    for (const Mix &mix : kMixes) {
        for (const auto &sz : sizes) {
            const CellOutcome worst = run_cell(
                mix, sz.ws_pages, Placement::kWorst,
                core::MigratePolicy::kAging);
            const CellOutcome best = run_cell(
                mix, sz.ws_pages, Placement::kBest,
                core::MigratePolicy::kAging);
            auto row = [&](const char *name, const CellOutcome &c,
                           bool managed) {
                const double vs_worst =
                    c.gb_per_sec() / worst.gb_per_sec();
                const double vs_best = c.gb_per_sec() / best.gb_per_sec();
                std::printf(
                    "%-15s %4.1fx %-14s %8.2f %9.1f %6llu %6llu %5llu "
                    "%5llu %8.2fx %8.2fx\n",
                    mix.name, sz.factor, name, c.gb_per_sec(),
                    sim::to_us(c.elapsed) / 1000.0,
                    static_cast<unsigned long long>(
                        c.stats.promotions_completed),
                    static_cast<unsigned long long>(
                        c.stats.demotions_completed),
                    static_cast<unsigned long long>(
                        c.stats.daemon_movs_dropped),
                    static_cast<unsigned long long>(c.ping_pongs),
                    vs_worst, vs_best);
                std::string series =
                    std::string(mix.name) + "-" + name;
                report.add(series, sz.factor, c.gb_per_sec());
                if (managed) {
                    report.add(std::string(mix.name) + "-" + name +
                                   "-vs-worst",
                               sz.factor, vs_worst);
                    report.add(std::string(mix.name) + "-" + name +
                                   "-vs-best",
                               sz.factor, vs_best);
                }
            };
            row("static-worst", worst, false);
            row("static-best", best, false);
            double best_vs_worst = 0.0, best_vs_best = 0.0;
            for (const core::MigratePolicy pol :
                 {core::MigratePolicy::kAging, core::MigratePolicy::kEwma}) {
                const CellOutcome m = run_cell(mix, sz.ws_pages,
                                               Placement::kManaged, pol);
                row((std::string("managed-") + policy_name(pol)).c_str(),
                    m, true);
                best_vs_worst = std::max(
                    best_vs_worst, m.gb_per_sec() / worst.gb_per_sec());
                best_vs_best = std::max(
                    best_vs_best, m.gb_per_sec() / best.gb_per_sec());
            }
            report.add(std::string(mix.name) + "-managed-vs-worst",
                       sz.factor, best_vs_worst);
            report.add(std::string(mix.name) + "-managed-vs-best",
                       sz.factor, best_vs_best);
            rule();
        }
    }
    // The daemon starts from an all-on-DDR placement and must discover
    // and move the hot set: at 2x oversubscription the better policy has
    // to clearly beat leaving everything on DDR. The static-best bound is
    // looser because that oracle is strictly stronger than any sampler
    // can be (see the file comment). Measured: managed reaches 0.77-0.91x
    // of it at 2x; gate at 0.70 with margin. Quick mode shrinks only the
    // epochs, not the 2x row. Both mixes must report the 2x point.
    std::vector<std::vector<Gate>> some_mix;
    for (const Mix &mix : kMixes) {
        const std::string worst = std::string(mix.name) + "-managed-vs-worst";
        const std::string best = std::string(mix.name) + "-managed-vs-best";
        report.gate({.series = worst, .x = 2.0});
        report.gate({.series = best, .x = 2.0});
        some_mix.push_back({{.series = worst, .x = 2.0, .min = 1.3},
                            {.series = best, .x = 2.0, .min = 0.70}});
    }
    report.any_of(std::move(some_mix));
    std::printf("gates: at 2x oversubscription, best managed policy >= "
                "1.3x static-worst and >= 0.70x static-best on at least "
                "one mix\n");
    return report.write() ? 0 : 1;
}
