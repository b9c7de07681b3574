/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses.
 *
 * These binaries measure *virtual* time on the simulated KeyStone II —
 * each prints the rows/series of one table or figure from the paper's
 * evaluation (§6). They are deterministic; run them directly:
 *
 *     build/bench/bench_fig6_breakdown
 *
 * (google-benchmark is used only where host time is the right metric:
 * the lock-free queue microbenchmark.)
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "memif/device.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/page_migration.h"
#include "os/process.h"
#include "sim/types.h"
#include "vm/vma.h"

namespace memif::bench {

/** One simulated machine + process + opened memif instance. */
struct TestBed {
    os::Kernel kernel;
    os::Process &proc;
    core::MemifDevice dev;
    core::MemifUser user;

    explicit TestBed(core::MemifConfig mc = {}, os::KernelConfig kc = {})
        : kernel(kc),
          proc(kernel.create_process()),
          dev(kernel, proc, mc),
          user(dev)
    {
    }
};

/** Description of a stream of identical requests. */
struct RequestPlan {
    core::MovOp op = core::MovOp::kMigrate;
    vm::PageSize page_size = vm::PageSize::k4K;
    std::uint32_t pages_per_request = 16;
    std::uint32_t num_requests = 1;
    /** Nonzero: use exactly this many ping-pong regions instead of the
     *  SRAM-budget auto window (still clamped to num_requests). Fewer
     *  regions = more repeat traffic per region, which is what the
     *  translation-cache cells want to exercise. */
    std::uint32_t window_override = 0;
};

/** Timing of one completed request. */
struct RequestTiming {
    sim::SimTime submitted = 0;
    sim::SimTime completed = 0;
    sim::Duration latency() const { return completed - submitted; }
};

/** Outcome of a memif request stream. */
struct StreamOutcome {
    std::vector<RequestTiming> timings;
    sim::Duration elapsed = 0;
    std::uint64_t bytes = 0;
    sim::CpuAccounting cpu;  ///< CPU cost of exactly this stream

    double
    gb_per_sec() const
    {
        return sim::gb_per_sec(bytes, elapsed);
    }
};

/**
 * Submit @p plan.num_requests memif requests back to back (without
 * waiting in between — the asynchronous usage the paper advocates) and
 * collect per-request completion times.
 *
 * Migration requests ping-pong between the slow and fast node so the
 * scarce 6 MB SRAM never fills: even requests move slow->fast, odd
 * requests move the same region fast->slow. Replication copies between
 * two slow-node regions sized like the request. The regions are mapped
 * once per call.
 */
StreamOutcome run_memif_stream(TestBed &bed, const RequestPlan &plan);

/**
 * The same workload through Linux page migration, batching
 * @p requests_per_syscall requests into each migrate call (Fig. 7's
 * batch parameter). Ping-pongs like run_memif_stream.
 */
StreamOutcome run_linux_stream(TestBed &bed, const RequestPlan &plan,
                               std::uint32_t requests_per_syscall);

/** printf a horizontal rule. */
void rule(char c = '-', int width = 78);

/** printf a section header. */
void header(const std::string &title);

/**
 * True when MEMIF_BENCH_QUICK is set in the environment: benches shrink
 * the bytes moved per cell so the CI smoke job finishes in seconds. The
 * tables keep their shape (same rows, same series) at lower statistical
 * weight; without the variable nothing changes.
 */
bool quick_mode();

/**
 * One claim a bench makes about one of its series. The gate selects the
 * points at exactly `x` when that is set, else every point with
 * x >= `x_min`; each selected y must lie in [`min`, `max`] (NaN never
 * does), and at least `min_points` points must be selected, so a
 * missing series or an empty selection fails.
 */
struct Gate {
    std::string series;
    std::optional<double> x = std::nullopt;
    double x_min = -std::numeric_limits<double>::infinity();
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    std::size_t min_points = 1;
};

/**
 * Machine-readable companion to a bench's stdout tables: named (x, y)
 * series written to BENCH_<name>.json in the working directory, plus
 * the gates the bench declares on them. The bench exits with write()'s
 * verdict, so a run that breaks one of its claims fails on its own.
 *
 * JSON shape: {"name": ..., "series": {"<series>": [[x, y], ...], ...},
 *              "gates": [{<gate fields>, "points": n, "pass": b}
 *                        | {"any_of": [[<gate>, ...], ...], "pass": b}]}
 */
class BenchReport {
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}
    ~BenchReport() { write(); }
    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    /** Append one point; series appear in first-touch order. */
    void add(const std::string &series, double x, double y);

    /** Declare a claim that holds when @p g does. */
    void
    gate(Gate g)
    {
        claims_.push_back(Claim{std::vector<Gate>{std::move(g)}});
    }

    /** Declare a claim that holds when every gate of at least one of
     *  @p alternatives does. */
    void
    any_of(std::vector<std::vector<Gate>> alternatives)
    {
        claims_.push_back(std::move(alternatives));
    }

    /**
     * Evaluate every gate, print each failing point to stderr and write
     * BENCH_<name>.json (a read-only cwd skips only the file). Returns
     * true when every claim holds. Idempotent; the destructor calls it.
     */
    bool write();

  private:
    struct Series {
        std::string name;
        std::vector<std::pair<double, double>> points;
    };
    /** Alternatives, each a set of gates that must all hold. */
    using Claim = std::vector<std::vector<Gate>>;

    /** Evaluate @p g: append its "gates" entry to @p json and a line
     *  per failing point to @p why. */
    bool holds(const Gate &g, std::string &json, std::string &why) const;

    std::string name_;
    std::vector<Series> series_;
    std::vector<Claim> claims_;
    bool written_ = false;
    bool pass_ = false;
};

}  // namespace memif::bench
