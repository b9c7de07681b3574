/**
 * @file
 * Section 2.2 reproduction: the motivating measurements of Linux page
 * migration.
 *
 *   - migrating 1500 4 KB pages with one syscall: the paper measured
 *     0.30 GB/s on the ARM platform (all observed throughputs < 10% of
 *     memory bandwidth);
 *   - per-page cost ~15 us, of which only ~4 us is the byte copy;
 *   - batching more pages per syscall barely helps (the x86 numbers in
 *     the paper move from 0.66 to only 1.41 GB/s at a million pages).
 *
 * BENCH_sec2_linux_migration.json holds the printed numbers, x = pages
 * per syscall, and gates the paper's "< 10% of memory bandwidth".
 */
#include <cstdio>

#include "harness.h"
#include "os/page_migration.h"
#include "sim/cpu.h"

int
main()
{
    using namespace memif::bench;
    namespace os = memif::os;
    namespace sim = memif::sim;

    BenchReport report("sec2_linux_migration");
    constexpr double kSlowBandwidthGbps = 6.2;

    header("Section 2.2: Linux page migration is CPU-bound and slow");

    {
        TestBed bed;
        const std::uint64_t npages = 1500;
        const memif::vm::VAddr base =
            bed.proc.mmap(npages * 4096, memif::vm::PageSize::k4K);
        os::MigrationResult res;
        const sim::CpuAccounting before = bed.kernel.cpu().snapshot();
        bed.kernel.spawn(os::migrate_pages_sync(bed.proc, base, npages,
                                                bed.kernel.fast_node(),
                                                &res));
        bed.kernel.run();
        const sim::CpuAccounting cpu =
            bed.kernel.cpu().snapshot().since(before);

        const double gbps = sim::gb_per_sec(res.bytes_moved, res.completed_at);
        const double us_page =
            sim::to_us(res.completed_at) / static_cast<double>(npages);
        const double copy_us =
            sim::to_us(cpu.op(sim::Op::kCopy)) / static_cast<double>(npages);
        const double bw_pct = 100.0 * gbps / kSlowBandwidthGbps;
        const double cpu_pct = 100.0 * static_cast<double>(cpu.total) /
                               static_cast<double>(res.completed_at);
        const auto x = static_cast<double>(npages);
        report.add("throughput-gbps", x, gbps);
        report.add("slow-bw-pct", x, bw_pct);
        report.add("per-page-us", x, us_page);
        report.add("copy-us-per-page", x, copy_us);
        report.add("cpu-bound-pct", x, cpu_pct);
        std::printf("migrate 1500 x 4KB pages, one syscall:\n");
        std::printf("  throughput           %6.2f GB/s   (paper: 0.30)\n",
                    gbps);
        std::printf("  %% of slow-mem bw     %6.1f %%      (paper: <10%%)\n",
                    bw_pct);
        std::printf("  per-page total       %6.2f us     (paper: ~15)\n",
                    us_page);
        std::printf("  per-page byte copy   %6.2f us     (paper: ~4)\n",
                    copy_us);
        std::printf("  CPU-bound fraction   %6.1f %%      (all work on CPU)\n",
                    cpu_pct);
    }

    std::printf("\nbatching pages into one syscall (amortization limit):\n");
    std::printf("%10s %12s\n", "pages", "GB/s");
    rule('-', 24);
    for (const std::uint64_t npages : {1ull, 16ull, 128ull, 1500ull}) {
        TestBed bed;
        const memif::vm::VAddr base =
            bed.proc.mmap(npages * 4096, memif::vm::PageSize::k4K);
        os::MigrationResult res;
        bed.kernel.spawn(os::migrate_pages_sync(bed.proc, base, npages,
                                                bed.kernel.fast_node(),
                                                &res));
        bed.kernel.run();
        const double gbps = sim::gb_per_sec(res.bytes_moved, res.completed_at);
        std::printf("%10llu %12.2f\n",
                    static_cast<unsigned long long>(npages), gbps);
        report.add("batch-gbps", static_cast<double>(npages), gbps);
    }
    std::printf("\nbatching amortizes only the per-syscall cost; the\n"
                "per-page kernel work and the CPU copy remain.\n");

    // Paper §2.2: every observed throughput is under 10% of the memory
    // bandwidth, however many pages one syscall carries.
    report.gate({.series = "slow-bw-pct", .max = 10});
    report.gate({.series = "batch-gbps",
                 .max = 0.1 * kSlowBandwidthGbps,
                 .min_points = 4});
    return report.write() ? 0 : 1;
}
