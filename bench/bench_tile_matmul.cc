/**
 * @file
 * Tile-staging matmul: the 2D-descriptor (strided_dma) case study.
 *
 * C[M x N] = A[M x K] * B[K x N], T x T tiles staged from DDR into
 * scratchpad SRAM before each multiply step. Two questions:
 *
 *  - interface cost: staging a pitched tile as ONE strided request vs
 *    the pre-PR-10 workaround of one flat request per row (T requests,
 *    T completions) vs the CPU packing tiles itself;
 *  - overlap: with double buffering, how much of the staging DMA hides
 *    behind the multiply of the previous tile pair.
 *
 * The compute is real float arithmetic over the staged backing bytes;
 * every strategy must produce the identical checksum, which is the
 * end-to-end proof that pitched descriptors deliver byte-exact tiles.
 *
 * Gated by bench_tile_matmul's BenchReport gates: at T = 64, staging-only
 * strided throughput >= 1.3x per-row flat, double-buffered overlap
 * ratio >= 0.5, and every checksum-match point == 1.
 */
#include <cstdio>
#include <vector>

#include "harness.h"
#include "memif/memif.h"
#include "sim/log.h"
#include "workloads/tile_matmul.h"

namespace {

using namespace memif;
using namespace memif::bench;
namespace wl = memif::workloads;

struct CellOutcome {
    wl::TileMatmulResult r;
    core::DeviceStats stats;
};

/**
 * One fresh machine per cell (regions would otherwise accumulate
 * across runs). The device runs the strided preset minus the levers
 * that add nondeterministic traffic to a single-application bench:
 * no tenant admission, no migration daemon, no far tier — and with
 * SVA routing off, since the scratchpad staging buffers are pinned
 * up front, which also exercises the genuine 2D descriptor path
 * (SVA streams carry strided rows as per-row translation slots).
 */
CellOutcome
run_cell(const wl::TileMatmulConfig &mm)
{
    core::MemifConfig mc = core::MemifConfig::strided();
    mc.multi_tenant = false;
    mc.auto_migrate = false;
    mc.tiered_memory = false;
    mc.pipelined_eviction = false;
    mc.sva_dma = false;
    mc.xlate_prefetch_ahead = false;
    TestBed bed(mc);
    core::RegisterDeviceFile("/dev/memif0", bed.dev);
    const int fd = core::MemifOpen("/dev/memif0");
    MEMIF_ASSERT(fd >= 0, "MemifOpen failed");

    CellOutcome out;
    auto task = wl::run_tile_matmul(bed.kernel, bed.proc, fd, mm, &out.r);
    bed.kernel.run();
    task.rethrow_if_failed();
    MEMIF_ASSERT(task.done(), "tile_matmul did not finish");
    out.stats = bed.dev.stats();

    core::MemifClose(fd);
    core::UnregisterDeviceFile("/dev/memif0");
    return out;
}

}  // namespace

int
main()
{
    BenchReport report("tile_matmul");

    const bool quick = quick_mode();
    const std::uint32_t dim = quick ? 128 : 256;
    const std::vector<std::uint32_t> tiles =
        quick ? std::vector<std::uint32_t>{64}
              : std::vector<std::uint32_t>{32, 64};

    header("Tile staging throughput (no compute): strided vs per-row");
    std::printf("%6s %10s %12s %12s %9s %9s %8s\n", "tile", "reqs(s/p)",
                "strided_MBs", "per_row_MBs", "speedup", "2D_descs",
                "match");
    rule();
    for (const std::uint32_t t : tiles) {
        wl::TileMatmulConfig mm;
        mm.m = mm.n = mm.k = dim;
        mm.tile = t;
        mm.compute = false;
        mm.double_buffer = false;

        mm.staging = wl::TileStaging::kStrided;
        const CellOutcome s = run_cell(mm);
        mm.staging = wl::TileStaging::kPerRowFlat;
        const CellOutcome p = run_cell(mm);

        const double speedup =
            s.r.staging_mb_per_sec() / p.r.staging_mb_per_sec();
        const bool match = s.r.checksum == p.r.checksum;
        std::printf("%4ux%-3u %4llu/%-5llu %12.1f %12.1f %8.2fx %9llu %8s\n",
                    t, t,
                    static_cast<unsigned long long>(
                        s.r.requests_submitted),
                    static_cast<unsigned long long>(
                        p.r.requests_submitted),
                    s.r.staging_mb_per_sec(), p.r.staging_mb_per_sec(),
                    speedup,
                    static_cast<unsigned long long>(
                        s.stats.strided_descriptors),
                    match ? "match" : "MISMATCH");
        report.add("staging-strided-mbps", t, s.r.staging_mb_per_sec());
        report.add("staging-per-row-mbps", t, p.r.staging_mb_per_sec());
        report.add("strided-speedup", t, speedup);
        report.add("staging-checksum-match", t, match ? 1.0 : 0.0);
    }
    // One pitched request per 64x64 tile vs 64 flat rows x 2 tiles per
    // step: measured 17.9x full / 17.7x quick, gated at 1.3x with margin.
    // The checksums compare the bytes each strategy staged and must agree
    // exactly (1 means match).
    report.gate({.series = "strided-speedup", .x = 64, .min = 1.3});
    report.gate({.series = "staging-checksum-match", .min = 1, .max = 1});
    rule();

    header("Full matmul: staged compute, double buffering, CPU baseline");
    std::printf("%6s %12s %12s %12s %9s %8s\n", "tile", "strided_ms",
                "no_db_ms", "cpu_copy_ms", "overlap", "match");
    rule();
    for (const std::uint32_t t : tiles) {
        wl::TileMatmulConfig mm;
        mm.m = mm.n = mm.k = dim;
        mm.tile = t;

        mm.staging = wl::TileStaging::kStrided;
        mm.double_buffer = true;
        const CellOutcome db = run_cell(mm);
        mm.double_buffer = false;
        const CellOutcome nd = run_cell(mm);
        mm.staging = wl::TileStaging::kCpuCopy;
        const CellOutcome cpu = run_cell(mm);

        const bool match = db.r.checksum == nd.r.checksum &&
                           db.r.checksum == cpu.r.checksum;
        std::printf("%4ux%-3u %12.2f %12.2f %12.2f %9.2f %8s\n", t, t,
                    sim::to_ms(db.r.elapsed), sim::to_ms(nd.r.elapsed),
                    sim::to_ms(cpu.r.elapsed), db.r.overlap_ratio(),
                    match ? "match" : "MISMATCH");
        report.add("matmul-strided-db-ms", t, sim::to_ms(db.r.elapsed));
        report.add("matmul-strided-ms", t, sim::to_ms(nd.r.elapsed));
        report.add("matmul-cpu-copy-ms", t, sim::to_ms(cpu.r.elapsed));
        report.add("overlap", t, db.r.overlap_ratio());
        report.add("compute-checksum-match", t, match ? 1.0 : 0.0);
    }
    // Double-buffered overlap measured 0.79 full / 0.68 quick; gate 0.5.
    report.gate({.series = "overlap", .x = 64, .min = 0.5});
    report.gate({.series = "compute-checksum-match", .min = 1, .max = 1});
    rule();
    std::printf("gates: staging strided >= 1.3x per-row flat at 64x64 "
                "tiles; double-buffered overlap >= 0.5; every checksum "
                "column must read match\n");
    return report.write() ? 0 : 1;
}
