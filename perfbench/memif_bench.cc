/**
 * @file
 * memif_bench: the repository's end-to-end benchmark. One command runs
 * one workload for a host-time budget, checks every output byte, and
 * prints every end-to-end and per-layer metric, each with its unit, as
 * one JSON object on the last line of stdout:
 *
 *     memif_bench --workload small_migrate --seed 7 --seconds 20 \
 *                 [--trace trace.json]
 *
 * A run is a sequence of *rounds*. A round builds fresh simulated
 * machines, replays the workload the seed describes, and checks the
 * bytes it moved. Virtual-time metrics (the modelled KeyStone II) come
 * from the first round, and every later round must reproduce them bit
 * for bit. Host-time metrics (the simulator's own speed) are medians
 * over the untraced rounds. With --trace, untraced and traced rounds
 * alternate: traced rounds turn on kernel.tracer(), fold its records
 * into the stage ledger, write a Chrome trace of the first requests,
 * and must agree exactly with the untraced rounds.
 *
 * Every layer is read from outside, through public calls only: CPU
 * accounting snapshots, device/engine/user stats, the event counter,
 * the tracer, and the differential checker's entry points.
 *
 * MEMIF_BENCH_QUICK shrinks every round (self-test size).
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "check/differential.h"
#include "check/workload.h"
#include "harness.h"
#include "sim/random.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace memif::perfbench {
namespace {

using bench::TestBed;
using core::MemifConfig;
using core::MemifUser;
using core::MovError;
using core::MovOp;
using core::MovReq;
using core::MovStatus;
using sim::Duration;
using sim::SimTime;
using sim::TracePoint;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kPage4K = 4096;
constexpr std::uint64_t kPage64K = 65536;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Round sizes shrink by this factor under MEMIF_BENCH_QUICK. */
std::uint64_t
sized(std::uint64_t full)
{
    return bench::quick_mode() ? std::max<std::uint64_t>(full / 50, 200)
                               : full;
}

// ---------------------------------------------------------------------
// Small helpers: digests, percentiles, seeded patterns, medians.
// ---------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
fnv(const std::uint8_t *p, std::size_t n, std::uint64_t h = kFnvOffset)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Fold one 64-bit value into an FNV digest. */
std::uint64_t
fnv_fold(std::uint64_t h, std::uint64_t v)
{
    return fnv(reinterpret_cast<const std::uint8_t *>(&v), sizeof v, h);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
template <class T>
T
percentile(std::vector<T> v, double q)
{
    if (v.empty()) return T{};
    const auto n = static_cast<double>(v.size());
    auto k = static_cast<std::size_t>(std::ceil(q * n));
    k = std::clamp<std::size_t>(k, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::vector<std::uint8_t>
pattern(std::uint64_t key, std::uint64_t bytes)
{
    std::vector<std::uint8_t> out(bytes);
    sim::Rng rng(key);
    for (std::uint64_t i = 0; i < bytes; i += 8) {
        const std::uint64_t w = rng.next();
        std::memcpy(out.data() + i, &w, std::min<std::uint64_t>(8, bytes - i));
    }
    return out;
}

/** Exponential inter-arrival gap (ns) for a Poisson stream of @p rate
 *  requests per virtual second. */
Duration
exp_gap(sim::Rng &rng, double rate)
{
    const double u = rng.next_double();
    return static_cast<Duration>(-std::log1p(-u) / rate * 1e9);
}

/** A mapped region plus the bytes it must hold when the run ends. */
struct Region {
    os::Process *proc = nullptr;
    vm::VAddr base = 0;
    std::vector<std::uint8_t> expect;
};

Region
map_region(os::Process &proc, std::uint64_t bytes, vm::PageSize ps,
           mem::NodeId node, std::uint64_t key)
{
    Region g{&proc, proc.mmap(bytes, ps, node), pattern(key, bytes)};
    if (g.base == 0 || !proc.as().write(g.base, g.expect.data(), bytes))
        throw std::runtime_error("region setup failed (node exhausted)");
    return g;
}

/** Fold the region's live bytes into @p digest; true when their FNV
 *  digest equals that of the expected bytes. */
bool
region_intact(const Region &g, std::uint64_t *digest)
{
    std::vector<std::uint8_t> got(g.expect.size());
    if (!g.proc->as().read(g.base, got.data(), got.size())) return false;
    const std::uint64_t h = fnv(got.data(), got.size());
    *digest = fnv_fold(*digest, h);
    return h == fnv(g.expect.data(), g.expect.size());
}

void
reset_geometry(MovReq &req)
{
    req.dst_base = 0;
    req.dst_node = 0;
    req.rows = 0;
    req.row_bytes = 0;
    req.src_pitch = 0;
    req.dst_pitch = 0;
    req.gather_list = 0;
}

// ---------------------------------------------------------------------
// The stage ledger: folds kernel.tracer() records into per-request
// stage durations and writes a Chrome trace of the first requests.
// ---------------------------------------------------------------------

enum Stage : std::uint8_t {
    kQueueWait,
    kPrep,
    kRemap,
    kDmaConfig,
    kTrigger,
    kDmaCopy,
    kDelivery,
    kRelease,
    kNotify,
    kUntraced,
    kNumStages,
};

constexpr std::array<const char *, kNumStages> kStageNames = {
    "queue_wait", "prep",    "remap",   "dma_config", "trigger",
    "dma_copy",   "completion_delivery", "release", "notify", "untraced"};

/** Points on the paper path (submit -> 5:notify). Recovery and
 *  housekeeping points are skipped; the time around them lands in the
 *  span that encloses it, or in `untraced`. */
bool
on_paper_path(TracePoint p)
{
    switch (p) {
        case TracePoint::kSubmit:
        case TracePoint::kServeBegin:
        case TracePoint::kPrepDone:
        case TracePoint::kRemapDone:
        case TracePoint::kDmaConfigDone:
        case TracePoint::kDmaStart:
        case TracePoint::kDmaComplete:
        case TracePoint::kIrqEnter:
        case TracePoint::kReleaseDone:
        case TracePoint::kNotifyDone:
            return true;
        default:
            return false;
    }
}

/** The stage an interval between two consecutive paper-path points
 *  belongs to; anything off the canonical order is untraced. */
Stage
stage_between(TracePoint prev, TracePoint cur)
{
    using P = TracePoint;
    switch (cur) {
        case P::kServeBegin:
            return prev == P::kSubmit ? kQueueWait : kUntraced;
        case P::kPrepDone:
            return prev == P::kServeBegin ? kPrep : kUntraced;
        case P::kRemapDone:
            return prev == P::kPrepDone ? kRemap : kUntraced;
        case P::kDmaConfigDone:
            return prev == P::kRemapDone || prev == P::kPrepDone
                       ? kDmaConfig
                       : kUntraced;
        case P::kDmaStart:
            return prev == P::kDmaConfigDone ? kTrigger : kUntraced;
        case P::kDmaComplete:
            return prev == P::kDmaStart ? kDmaCopy : kUntraced;
        case P::kIrqEnter:
            return prev == P::kDmaComplete ? kDelivery : kUntraced;
        case P::kReleaseDone:
            return prev == P::kIrqEnter || prev == P::kDmaComplete
                       ? kRelease
                       : kUntraced;
        case P::kNotifyDone:
            return prev == P::kReleaseDone ? kNotify : kUntraced;
        default:
            return kUntraced;
    }
}

class Ledger {
  public:
    /** Requests (by benchmark id) written to the Chrome trace. */
    static constexpr std::uint64_t kChromeRequests = 2000;
    /** Tracer records are folded (and the buffer cleared) this often. */
    static constexpr std::uint32_t kFoldEvery = 1024;

    explicit Ledger(sim::Tracer &tracer) : tracer_(&tracer)
    {
        tracer_->clear();
        tracer_->enable();
    }
    Ledger(const Ledger &) = delete;
    Ledger &operator=(const Ledger &) = delete;

    /** Request @p id is about to be submitted from slot @p slot for the
     *  first time (admission retries of the same id do not re-bind). */
    void
    bind(std::uint32_t slot, std::uint64_t id)
    {
        if (slot >= pending_.size()) pending_.resize(slot + 1);
        pending_[slot].push_back(id);
    }

    /** Benchmark-side span around a library call, in virtual time. */
    void
    span(const char *name, std::uint64_t id, SimTime b, SimTime e)
    {
        if (id < kChromeRequests) chrome_event(name, 2, id, b, e);
    }

    /** The benchmark retrieved request @p id; @p latency is what its
     *  MovReq timestamps say (complete_time - submit_time). */
    void
    retrieved(std::uint64_t id, SimTime at, Duration latency)
    {
        if (id < kChromeRequests) chrome_event("retrieve_completed", 2, id,
                                               at, at);
        if (id >= measured_.size()) measured_.resize(id + 1, kUnset);
        measured_[id] = latency;
        if (++since_fold_ >= kFoldEvery) fold();
    }

    /** Consume every buffered tracer record, then clear the buffer. */
    void
    fold()
    {
        since_fold_ = 0;
        if (!tracer_) return;
        for (const sim::TraceRecord &rec : tracer_->records()) {
            if (rec.req == sim::TraceRecord::kNoTraceReq ||
                !on_paper_path(rec.point))
                continue;
            if (rec.req >= open_.size()) open_.resize(rec.req + 1);
            Open &o = open_[rec.req];
            if (rec.point == TracePoint::kSubmit) {
                if (rec.req >= pending_.size() || pending_[rec.req].empty())
                    continue;  // not a benchmark request
                o = Open{};
                o.live = true;
                o.id = pending_[rec.req].front();
                pending_[rec.req].pop_front();
                o.last = rec.point;
                o.last_t = o.start = rec.time;
                continue;
            }
            if (!o.live) continue;
            const Stage s = stage_between(o.last, rec.point);
            o.d[s] += rec.time - o.last_t;
            if (o.id < kChromeRequests && rec.time > o.last_t)
                chrome_event(kStageNames[s], 1, o.id, o.last_t, rec.time);
            o.last = rec.point;
            o.last_t = rec.time;
            if (rec.point == TracePoint::kNotifyDone) close(o);
        }
        tracer_->clear();
    }

    /** Fold what is left, stop tracing, and detach from the tracer (the
     *  ledger outlives the machine it traced). */
    void
    finish()
    {
        fold();
        tracer_->disable();
        tracer_ = nullptr;
    }

    const std::vector<std::uint32_t> &
    durations(Stage s) const
    {
        return dur_[s];
    }

    /**
     * The ledger agrees with the MovReq timestamps: every retrieved
     * request was closed by its 5:notify record, and its traced span
     * (submit -> 5:notify, the sum of its stages) equals its latency.
     */
    std::string
    check() const
    {
        std::uint64_t missing = 0, mismatched = 0;
        for (std::size_t id = 0; id < measured_.size(); ++id) {
            if (measured_[id] == kUnset) continue;
            if (id >= traced_.size() || traced_[id] == kUnset)
                ++missing;
            else if (traced_[id] != measured_[id])
                ++mismatched;
        }
        if (missing == 0 && mismatched == 0) return {};
        return "stage ledger: " + std::to_string(missing) +
               " requests untraced, " + std::to_string(mismatched) +
               " with stage sums != latency";
    }

    /** Chrome trace-event JSON (loads in Perfetto / chrome://tracing). */
    std::string
    chrome_json() const
    {
        std::string out =
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
            "\"args\":{\"name\":\"memif stages (virtual time)\"}},\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
            "\"args\":{\"name\":\"benchmark calls (virtual time)\"}}";
        out += chrome_;
        out += "\n]}\n";
        return out;
    }

  private:
    static constexpr Duration kUnset = ~Duration{0};

    struct Open {
        bool live = false;
        std::uint64_t id = 0;
        TracePoint last = TracePoint::kSubmit;
        SimTime start = 0;
        SimTime last_t = 0;
        std::array<Duration, kNumStages> d{};
    };

    void
    close(Open &o)
    {
        for (std::size_t s = 0; s < kNumStages; ++s)
            dur_[s].push_back(static_cast<std::uint32_t>(o.d[s]));
        if (o.id >= traced_.size()) traced_.resize(o.id + 1, kUnset);
        traced_[o.id] = o.last_t - o.start;
        o.live = false;
    }

    void
    chrome_event(const char *name, int pid, std::uint64_t id, SimTime b,
                 SimTime e)
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                      "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"req\":%llu}}",
                      name, pid, static_cast<unsigned long long>(id),
                      sim::to_us(b), sim::to_us(e - b),
                      static_cast<unsigned long long>(id));
        chrome_ += buf;
    }

    sim::Tracer *tracer_;  ///< null once finished
    std::vector<std::deque<std::uint64_t>> pending_;  // per request slot
    std::vector<Open> open_;                          // per request slot
    std::array<std::vector<std::uint32_t>, kNumStages> dur_;
    std::vector<Duration> measured_;  // by request id
    std::vector<Duration> traced_;    // by request id
    std::string chrome_;
    std::uint32_t since_fold_ = 0;
};

// ---------------------------------------------------------------------
// What a round produces.
// ---------------------------------------------------------------------

/** Virtual-time outcome of a round: identical for a given seed. */
struct Virtual {
    std::uint64_t attempted = 0;  ///< requests that reached a terminal status
    std::uint64_t failed = 0;     ///< ... other than kDone (or refused for good)
    std::uint64_t bytes = 0;      ///< payload bytes moved by kDone requests
    Duration elapsed = 0;         ///< first submit -> last completion
    Duration lat_p50 = 0;
    Duration lat_p999 = 0;
    Duration cpu = 0;             ///< simulated CPU, all contexts
    /** Request rate served (kreq per virtual second): completions per
     *  second for a closed loop; for the open loop, the highest offered
     *  rate on the SLO ladder that meets the SLO. */
    double rate_kreq_s = 0;
    std::uint64_t content = kFnvOffset;  ///< digest of the final bytes

    bool operator==(const Virtual &) const = default;
};

/** Counters read off one simulated machine, through public calls. */
struct MachineStats {
    core::DeviceStats dev{};
    dma::EngineStats eng{};
    core::UserStats user{};        ///< summed over the machine's handles
    sim::CpuAccounting cpu{};      ///< over the measured interval
    std::uint64_t tlb_flushes = 0; ///< page + ranged, all address spaces
    std::uint64_t events = 0;      ///< DES events in the measured interval
    Duration max_slot_wait = 0;    ///< worst tenant submit->service wait
    std::uint64_t requests = 0;
    Duration elapsed = 0;
};

/** Host-time split of the checker workload. */
struct CheckTimes {
    double generate_s = 0;
    std::vector<double> replay_s;  ///< per preset, presets() order
    std::uint64_t seeds = 0;
    std::uint64_t replays = 0;
    std::uint64_t movs = 0;
};

struct Round {
    Virtual v;
    std::string error;            ///< first correctness failure; "" = ok
    std::vector<double> setup_s;  ///< host seconds per machine set up
    double run_host_s = 0;        ///< host seconds in kernel.run()
    std::uint64_t host_requests = 0;  ///< requests simulated in that time
    std::vector<MachineStats> machines;
    Duration late_p999 = 0;       ///< open loop: generator lateness
    CheckTimes check;
    std::unique_ptr<Ledger> ledger;  ///< traced rounds only

    /** Record a correctness failure (the first one is kept). */
    void
    fail(const std::string &why)
    {
        if (error.empty()) error = why;
    }
};

/** Run the simulation and time it on the host. */
void
run_timed(os::Kernel &k, Round &r)
{
    const auto t0 = Clock::now();
    k.run();
    r.run_host_s += seconds_since(t0);
}

MachineStats
read_machine(TestBed &bed, const std::vector<MemifUser *> &users,
             const std::vector<os::Process *> &procs,
             const sim::CpuAccounting &cpu0, std::uint64_t events0)
{
    MachineStats m;
    m.dev = bed.dev.stats();
    m.eng = bed.kernel.dma_engine().stats();
    for (const MemifUser *u : users) {
        const core::UserStats &s = u->stats();
        m.user.submits += s.submits;
        m.user.kicks += s.kicks;
        m.user.polls += s.polls;
        m.user.completions += s.completions;
        m.user.rejected += s.rejected;
    }
    m.cpu = bed.kernel.cpu().snapshot().since(cpu0);
    for (os::Process *p : procs) {
        const vm::VmStats &vs = p->as().stats();
        m.tlb_flushes += vs.tlb_page_flushes + vs.tlb_range_flushes;
    }
    m.events = bed.kernel.eq().events_executed() - events0;
    for (std::uint32_t t = 0; t < bed.dev.num_tenants(); ++t)
        m.max_slot_wait =
            std::max(m.max_slot_wait, bed.dev.tenant_stats(t).max_slot_wait);
    return m;
}

// ---------------------------------------------------------------------
// Closed loop shared by small_migrate and large_replicate: one app keeps
// `window` requests in flight; each completion frees its slot for the
// next request.
// ---------------------------------------------------------------------

struct ClosedLoop {
    std::uint32_t window = 1;
    std::uint64_t total = 0;
    /** Fill a fresh request for @p slot; returns its payload bytes. */
    std::function<std::uint64_t(std::uint32_t slot, MovReq &req)> issue;
    /** A request of @p slot reached a terminal status. */
    std::function<void(std::uint32_t slot, bool ok)> done;
};

void
run_closed_loop(TestBed &bed, const ClosedLoop &loop, Round &r)
{
    Ledger *ledger = r.ledger.get();
    MemifUser &user = bed.user;
    sim::EventQueue &eq = bed.kernel.eq();
    std::vector<Duration> lat;
    lat.reserve(loop.total);
    std::vector<std::uint64_t> slot_bytes(loop.window, 0);
    std::uint64_t submitted = 0;
    SimTime last_done = 0;
    const SimTime t0 = eq.now();

    // user_tag = request id << 8 | window slot.
    auto submit = [&](std::uint32_t idx, bool first) -> sim::Task {
        const std::uint64_t id = user.request(idx).user_tag >> 8;
        if (ledger && first) ledger->bind(idx, id);
        const SimTime b = eq.now();
        co_await user.submit(idx);
        if (ledger) ledger->span("submit", id, b, eq.now());
    };
    auto fresh = [&](std::uint32_t slot) -> sim::Task {
        const std::uint32_t idx = user.alloc_request();
        if (idx == core::kNoRequest)
            throw std::runtime_error("request slots exhausted");
        MovReq &req = user.request(idx);
        reset_geometry(req);
        slot_bytes[slot] = loop.issue(slot, req);
        req.user_tag = (submitted++ << 8) | slot;
        co_await submit(idx, true);
    };
    auto driver = [&]() -> sim::Task {
        for (std::uint32_t w = 0; w < loop.window && submitted < loop.total;
             ++w)
            co_await fresh(w);
        std::uint64_t completed = 0;
        SimTime poll_b = 0;
        bool polled = false;
        while (completed < loop.total) {
            const std::uint32_t idx = user.retrieve_completed();
            if (idx == core::kNoRequest) {
                poll_b = eq.now();
                polled = true;
                co_await user.poll();
                continue;
            }
            MovReq &req = user.request(idx);
            const std::uint64_t id = req.user_tag >> 8;
            const auto slot = static_cast<std::uint32_t>(req.user_tag & 0xFF);
            if (ledger && polled) ledger->span("poll", id, poll_b, eq.now());
            polled = false;
            const MovStatus st = req.load_status();
            if (st == MovStatus::kFailed && req.error == MovError::kNoSpace &&
                req.retry_after_us != 0) {
                // Admission backpressure: honour the hint, resubmit.
                co_await sim::Delay{eq, sim::microseconds(req.retry_after_us)};
                co_await submit(idx, false);
                continue;
            }
            const bool ok = st == MovStatus::kDone;
            ++r.v.attempted;
            if (ok) {
                lat.push_back(req.complete_time - req.submit_time);
                r.v.bytes += slot_bytes[slot];
                last_done = std::max<SimTime>(last_done, req.complete_time);
            } else {
                ++r.v.failed;
            }
            if (ledger)
                ledger->retrieved(id, eq.now(),
                                  req.complete_time - req.submit_time);
            loop.done(slot, ok);
            user.free_request(idx);
            ++completed;
            if (submitted < loop.total) co_await fresh(slot);
        }
    };

    const sim::CpuAccounting cpu0 = bed.kernel.cpu().snapshot();
    const std::uint64_t ev0 = eq.events_executed();
    auto task = driver();
    run_timed(bed.kernel, r);
    task.rethrow_if_failed();
    if (!task.done()) r.fail("closed loop did not finish (lost wakeup?)");
    if (ledger) ledger->finish();

    MachineStats m = read_machine(bed, {&user}, {&bed.proc}, cpu0, ev0);
    m.requests = r.v.attempted;
    m.elapsed = last_done - t0;
    r.v.elapsed = m.elapsed;
    r.v.cpu = m.cpu.total;
    r.v.lat_p50 = percentile(lat, 0.50);
    r.v.lat_p999 = percentile(lat, 0.999);
    r.v.rate_kreq_s = static_cast<double>(lat.size()) /
                      sim::to_sec(m.elapsed) / 1e3;
    r.host_requests += r.v.attempted;
    r.machines.push_back(m);
}

// ---------------------------------------------------------------------
// small_migrate: the paper's asynchronous stream of small migrations.
// ---------------------------------------------------------------------

constexpr std::array<std::uint32_t, 5> kSmallPages = {1, 2, 4, 8, 16};
constexpr std::uint32_t kSmallWindow = 8;
constexpr std::uint64_t kSmallRequests = 400'000;

Round
run_small_migrate(std::uint64_t seed, bool traced)
{
    Round r;
    const auto s0 = Clock::now();
    os::KernelConfig kc;
    kc.single_driver_core = true;
    TestBed bed(MemifConfig::strided(), kc);
    // One region per (window slot, size class), so a slot never has two
    // moves on one region and every size ping-pongs on its own pages.
    struct Unit {
        Region g;
        bool on_fast = false;
    };
    std::vector<Unit> units;
    for (std::uint32_t w = 0; w < kSmallWindow; ++w)
        for (std::uint32_t c = 0; c < kSmallPages.size(); ++c)
            units.push_back({map_region(bed.proc, kSmallPages[c] * kPage4K,
                                        vm::PageSize::k4K,
                                        bed.kernel.slow_node(),
                                        seed * 1000 + units.size())});
    r.setup_s.push_back(seconds_since(s0));
    if (traced) r.ledger = std::make_unique<Ledger>(bed.kernel.tracer());

    sim::Rng rng(seed);
    std::vector<std::uint32_t> slot_unit(kSmallWindow, 0);
    ClosedLoop loop;
    loop.window = kSmallWindow;
    loop.total = sized(kSmallRequests);
    loop.issue = [&](std::uint32_t slot, MovReq &req) {
        const auto c = static_cast<std::uint32_t>(
            rng.next_below(kSmallPages.size()));
        slot_unit[slot] = slot * kSmallPages.size() + c;
        Unit &u = units[slot_unit[slot]];
        req.op = MovOp::kMigrate;
        req.src_base = u.g.base;
        req.num_pages = kSmallPages[c];
        req.dst_node =
            u.on_fast ? bed.kernel.slow_node() : bed.kernel.fast_node();
        return std::uint64_t{kSmallPages[c]} * kPage4K;
    };
    loop.done = [&](std::uint32_t slot, bool ok) {
        if (ok) units[slot_unit[slot]].on_fast ^= true;
    };
    run_closed_loop(bed, loop, r);

    for (const Unit &u : units)
        if (!region_intact(u.g, &r.v.content))
            r.fail("small_migrate: a migrated region lost its bytes");
    return r;
}

// ---------------------------------------------------------------------
// large_replicate: DMA-copy-bound replications slow -> fast.
// ---------------------------------------------------------------------

/** Request sizes are drawn uniformly from 512 KB to 2 MB in 4 KB
 *  pages. With two requests in flight on six TCs nothing queues, so a
 *  request's latency is a function of its size; a fine size grid keeps
 *  the latency percentiles off a single size's plateau. */
constexpr std::uint32_t kLargeMinPages = 128;
constexpr std::uint32_t kLargeMaxPages = 512;
constexpr std::uint32_t kLargeWindow = 2;
constexpr std::uint32_t kLargeSources = 3;
constexpr std::uint64_t kLargeRequests = 24'000;

Round
run_large_replicate(std::uint64_t seed, bool traced)
{
    Round r;
    const auto s0 = Clock::now();
    TestBed bed(MemifConfig::strided());
    const std::uint64_t span = kLargeMaxPages * kPage4K;
    std::vector<Region> src, dst;
    for (std::uint32_t s = 0; s < kLargeSources; ++s)
        src.push_back(map_region(bed.proc, span, vm::PageSize::k4K,
                                 bed.kernel.slow_node(), seed * 1000 + s));
    for (std::uint32_t w = 0; w < kLargeWindow; ++w)
        dst.push_back(map_region(bed.proc, span, vm::PageSize::k4K,
                                 bed.kernel.fast_node(),
                                 seed * 1000 + 100 + w));
    r.setup_s.push_back(seconds_since(s0));
    if (traced) r.ledger = std::make_unique<Ledger>(bed.kernel.tracer());

    // Which source last wrote each destination page (-1: none yet);
    // the expected destination bytes are built from it at the end.
    std::vector<std::vector<int>> wrote(
        kLargeWindow, std::vector<int>(kLargeMaxPages, -1));
    struct Pending {
        std::uint32_t src = 0, pages = 0;
    };
    std::vector<Pending> pending(kLargeWindow);
    sim::Rng rng(seed);
    ClosedLoop loop;
    loop.window = kLargeWindow;
    loop.total = sized(kLargeRequests);
    loop.issue = [&](std::uint32_t slot, MovReq &req) {
        Pending &p = pending[slot];
        p.pages = kLargeMinPages + static_cast<std::uint32_t>(rng.next_below(
                                       kLargeMaxPages - kLargeMinPages + 1));
        p.src = static_cast<std::uint32_t>(rng.next_below(kLargeSources));
        req.op = MovOp::kReplicate;
        req.src_base = src[p.src].base;
        req.dst_base = dst[slot].base;
        req.num_pages = p.pages;
        return std::uint64_t{p.pages} * kPage4K;
    };
    loop.done = [&](std::uint32_t slot, bool ok) {
        if (!ok) return;
        for (std::uint32_t i = 0; i < pending[slot].pages; ++i)
            wrote[slot][i] = static_cast<int>(pending[slot].src);
    };
    run_closed_loop(bed, loop, r);

    for (std::uint32_t w = 0; w < kLargeWindow; ++w) {
        for (std::uint32_t i = 0; i < kLargeMaxPages; ++i)
            if (wrote[w][i] >= 0)
                std::memcpy(dst[w].expect.data() + i * kPage4K,
                            src[wrote[w][i]].expect.data() + i * kPage4K,
                            kPage4K);
        if (!region_intact(dst[w], &r.v.content))
            r.fail("large_replicate: destination differs from its source");
    }
    for (const Region &g : src)
        if (!region_intact(g, &r.v.content))
            r.fail("large_replicate: a source region changed");
    return r;
}

// ---------------------------------------------------------------------
// tenant_mix: open-loop multi-tenant service on a three-tier machine.
// ---------------------------------------------------------------------

/** Offered load at ladder rung 0 (requests per virtual second): 60% of
 *  the ~68k req/s at which the backlog started to grow when the
 *  benchmark was defined. Fixed, so every later change is measured
 *  against the same offered load. */
constexpr double kTenantR0 = 40'000.0;
/** Latency limit on p99.9 for the SLO ladder (virtual us), fixed once.
 *  p99.9 is set by chained SRAM<->far moves (~630 us at R0, against a
 *  ~80 us p50), so the limit sits between the p99.9 of the 1.3x rung
 *  (at most ~880 us) and the 1.5x rung (at least ~1170 us). */
constexpr double kTenantSloUs = 1000.0;
constexpr std::array<double, 6> kLadder = {1.0, 1.15, 1.3, 1.5, 1.75, 2.0};
constexpr std::array<std::uint32_t, 4> kTenantWeights = {1, 1, 2, 4};
/** Arrivals at rung 0, which supplies every metric, and at each higher
 *  rung, which only has to pass or miss the SLO. */
constexpr std::uint64_t kTenantRequests = 120'000;
constexpr std::uint64_t kLadderRequests = 40'000;
/** Units per tenant and kind (each unit has at most one move in
 *  flight); beyond these the generator waits and runs late. */
constexpr std::uint32_t kFlatUnits = 10;
constexpr std::uint32_t kChainUnits = 4;
constexpr std::uint32_t kReplUnits = 6;
constexpr std::uint32_t kStridedUnits = 6;
constexpr std::uint32_t kFlatPages = 4;    // 4 KB pages, DDR <-> SRAM
constexpr std::uint32_t kChainPages = 16;  // 4 KB pages, SRAM <-> far
constexpr std::uint32_t kStridedSrcPages = 16;
constexpr std::uint32_t kStridedDstPages = 8;
constexpr std::uint32_t kTouchesPerSubmit = 2;

enum class Kind : std::uint8_t { kFlat, kChain, kRepl, kStrided };

struct MixUnit {
    Kind kind = Kind::kFlat;
    Region src;  ///< migrated region, or replication source
    Region dst;  ///< replication destination
    mem::NodeId at = 0;  ///< migrations: node the pages are on now
    std::uint32_t rows = 0, row_bytes = 0;
    std::uint64_t src_pitch = 0, dst_pitch = 0;
    bool busy = false;
    bool replicated = false;
};

/** One machine's run at one offered rate. */
struct MachineRun {
    Round r;                    ///< latency percentiles left to the pool
    std::vector<Duration> lat;  ///< due -> completion, kDone requests
    std::vector<Duration> late; ///< how late the generator issued each
    bool backlog_ok = false;    ///< end backlog <= 2x the mid-run backlog
};

MachineRun
run_tenant_machine(std::uint64_t seed, double rate, std::uint64_t arrivals,
                   bool traced)
{
    MachineRun out;
    Round &r = out.r;
    const auto s0 = Clock::now();
    os::KernelConfig kc;
    kc.far_bytes = 256ull << 20;
    TestBed bed(MemifConfig::strided(), kc);
    os::Kernel &k = bed.kernel;
    sim::EventQueue &eq = k.eq();

    struct Tenant {
        os::Process *proc = nullptr;
        MemifUser *user = nullptr;
        std::vector<MixUnit> units;
        std::vector<SimTime> due;
        std::unique_ptr<sim::WaitQueue> idle;
    };
    const auto ntenants = static_cast<std::uint32_t>(kTenantWeights.size());
    std::vector<std::unique_ptr<MemifUser>> handles;
    std::vector<Tenant> tenants(ntenants);
    std::vector<os::Process *> procs;
    std::vector<MemifUser *> users;
    bed.dev.set_tenant_weight(0, kTenantWeights[0]);
    for (std::uint32_t t = 0; t < ntenants; ++t) {
        Tenant &tn = tenants[t];
        if (t == 0) {
            tn.proc = &bed.proc;
            tn.user = &bed.user;
        } else {
            tn.proc = &k.create_process();
            if (bed.dev.register_tenant(*tn.proc, kTenantWeights[t]) != t)
                throw std::runtime_error("unexpected tenant asid");
            handles.push_back(std::make_unique<MemifUser>(bed.dev, t, t));
            tn.user = handles.back().get();
        }
        procs.push_back(tn.proc);
        users.push_back(tn.user);
        tn.idle = std::make_unique<sim::WaitQueue>(eq);
        std::uint64_t key = (seed * 16 + t) * 1000;
        auto add = [&](Kind kind, std::uint64_t bytes, vm::PageSize ps,
                       mem::NodeId node) -> MixUnit & {
            MixUnit u;
            u.kind = kind;
            u.at = node;
            u.src = map_region(*tn.proc, bytes, ps, node, ++key);
            tn.units.push_back(std::move(u));
            return tn.units.back();
        };
        for (std::uint32_t i = 0; i < kFlatUnits; ++i)
            add(Kind::kFlat, kFlatPages * kPage4K, vm::PageSize::k4K,
                k.slow_node());
        for (std::uint32_t i = 0; i < kChainUnits; ++i)
            add(Kind::kChain, kChainPages * kPage4K, vm::PageSize::k4K,
                i % 2 ? k.far_node() : k.fast_node());
        for (std::uint32_t i = 0; i < kReplUnits; ++i) {
            MixUnit &u = add(Kind::kRepl, kPage64K, vm::PageSize::k64K,
                          k.slow_node());
            u.dst = map_region(*tn.proc, kPage64K, vm::PageSize::k64K,
                               k.fast_node(), ++key);
        }
        for (std::uint32_t i = 0; i < kStridedUnits; ++i) {
            MixUnit &u = add(Kind::kStrided, kStridedSrcPages * kPage4K,
                          vm::PageSize::k4K, k.slow_node());
            u.dst = map_region(*tn.proc, kStridedDstPages * kPage4K,
                               vm::PageSize::k4K, k.fast_node(), ++key);
            // Rows cross source pages (pitch 2-4x the row) and the
            // destination pitch leaves a gap, so rows split at page
            // boundaries on both sides. The geometries are the same for
            // every seed, so the seed changes timing, not composition.
            static constexpr std::array<std::uint32_t, 3> kRowBytes = {
                256, 512, 1024};
            u.rows = i % 2 ? 16 : 8;
            u.row_bytes = kRowBytes[i % kRowBytes.size()];
            u.src_pitch = u.row_bytes * (2 + i % 3);
            u.dst_pitch = u.row_bytes + 64;
        }
    }
    // Seeded Poisson arrivals, the total rate split evenly over tenants.
    const std::uint64_t total = sized(arrivals);
    std::vector<SimTime> all_due;
    for (std::uint32_t t = 0; t < ntenants; ++t) {
        sim::Rng arr(seed * 104729 + t);
        SimTime at = eq.now();
        for (std::uint64_t i = t; i < total; i += ntenants) {
            at += exp_gap(arr, rate / ntenants);
            tenants[t].due.push_back(at);
            all_due.push_back(at);
        }
    }
    std::sort(all_due.begin(), all_due.end());
    r.setup_s.push_back(seconds_since(s0));
    Ledger *ledger = nullptr;
    if (traced) {
        r.ledger = std::make_unique<Ledger>(k.tracer());
        ledger = r.ledger.get();
    }

    struct Meta {
        std::uint32_t tenant = 0, unit = 0;
        SimTime due = 0;
        std::uint64_t bytes = 0;
    };
    std::vector<Meta> meta;
    meta.reserve(total);
    std::vector<Duration> &lat = out.lat, &late = out.late;
    lat.reserve(total);
    late.reserve(total);
    std::uint64_t completed = 0;
    SimTime last_done = 0;
    sim::WaitQueue slot_free(eq);
    const SimTime t0 = eq.now();

    auto pick_idle = [](Tenant &tn, sim::Rng &rng, Kind kind,
                        bool any_kind) -> MixUnit * {
        const auto n = static_cast<std::uint32_t>(tn.units.size());
        const auto start = static_cast<std::uint32_t>(rng.next_below(n));
        for (std::uint32_t i = 0; i < n; ++i) {
            MixUnit &u = tn.units[(start + i) % n];
            if (!u.busy && (any_kind || u.kind == kind)) return &u;
        }
        return nullptr;
    };
    auto submit = [&](MemifUser &u, std::uint32_t idx, bool first)
        -> sim::Task {
        const std::uint64_t id = u.request(idx).user_tag;
        if (ledger && first) ledger->bind(idx, id);
        const SimTime b = eq.now();
        co_await u.submit(idx);
        if (ledger) ledger->span("submit", id, b, eq.now());
    };
    auto resubmit = [&](std::uint32_t t, std::uint32_t idx,
                        std::uint32_t after_us) -> sim::Task {
        co_await sim::Delay{eq, sim::microseconds(after_us)};
        co_await submit(*tenants[t].user, idx, false);
    };
    auto generator = [&](std::uint32_t t) -> sim::Task {
        Tenant &tn = tenants[t];
        sim::Rng rng(seed * 31337 + t);
        for (const SimTime due : tn.due) {
            if (eq.now() < due) co_await sim::Delay{eq, due - eq.now()};
            const double u = rng.next_double();
            const Kind kind = u < 0.40   ? Kind::kFlat
                              : u < 0.55 ? Kind::kChain
                              : u < 0.80 ? Kind::kRepl
                                         : Kind::kStrided;
            MixUnit *unit = nullptr;
            while (!(unit = pick_idle(tn, rng, kind, false)))
                co_await tn.idle->wait();
            std::uint32_t idx;
            while ((idx = tn.user->alloc_request()) == core::kNoRequest)
                co_await slot_free.wait();
            late.push_back(eq.now() - due);
            MovReq &req = tn.user->request(idx);
            reset_geometry(req);
            req.src_base = unit->src.base;
            Meta m{t, static_cast<std::uint32_t>(unit - tn.units.data()), due,
                   0};
            switch (kind) {
                case Kind::kFlat:
                case Kind::kChain: {
                    const bool flat = kind == Kind::kFlat;
                    req.op = MovOp::kMigrate;
                    req.num_pages = flat ? kFlatPages : kChainPages;
                    req.dst_node = unit->at == k.fast_node()
                                       ? (flat ? k.slow_node() : k.far_node())
                                       : k.fast_node();
                    m.bytes = req.num_pages * kPage4K;
                    break;
                }
                case Kind::kRepl:
                    req.op = MovOp::kReplicate;
                    req.dst_base = unit->dst.base;
                    req.num_pages = 1;
                    m.bytes = kPage64K;
                    break;
                case Kind::kStrided:
                    req.op = MovOp::kReplicate;
                    req.dst_base = unit->dst.base;
                    req.num_pages = 0;
                    req.rows = unit->rows;
                    req.row_bytes = unit->row_bytes;
                    req.src_pitch = unit->src_pitch;
                    req.dst_pitch = unit->dst_pitch;
                    m.bytes = std::uint64_t{unit->rows} * unit->row_bytes;
                    break;
            }
            unit->busy = true;
            req.user_tag = meta.size();
            meta.push_back(m);
            co_await submit(*tn.user, idx, true);
            // CPU reads and writes on regions with no move in flight.
            for (std::uint32_t i = 0; i < kTouchesPerSubmit; ++i) {
                MixUnit *tu = pick_idle(tn, rng, kind, true);
                if (!tu) break;
                const Region &g =
                    tu->dst.base && rng.next_below(2) ? tu->dst : tu->src;
                const std::uint64_t page =
                    rng.next_below(g.expect.size() / kPage4K);
                os::TouchOutcome to;
                co_await tn.proc->touch(g.base + page * kPage4K, i % 2 == 1,
                                        &to);
            }
        }
    };
    auto reaper = [&]() -> sim::Task {
        MemifUser &drain = bed.user;
        SimTime poll_b = 0;
        bool polled = false;
        while (completed < total) {
            const std::uint32_t idx = drain.retrieve_completed();
            if (idx == core::kNoRequest) {
                poll_b = eq.now();
                polled = true;
                co_await drain.poll();
                continue;
            }
            MovReq &req = drain.request(idx);
            const std::uint64_t id = req.user_tag;
            const Meta &m = meta[id];
            if (ledger && polled) ledger->span("poll", id, poll_b, eq.now());
            polled = false;
            const MovStatus st = req.load_status();
            if (st == MovStatus::kFailed && req.error == MovError::kNoSpace &&
                req.retry_after_us != 0) {
                // Admission bounce: retry after the hint, off this path.
                k.spawn(resubmit(m.tenant, idx, req.retry_after_us));
                continue;
            }
            Tenant &tn = tenants[m.tenant];
            MixUnit &u = tn.units[m.unit];
            const bool ok = st == MovStatus::kDone;
            ++r.v.attempted;
            if (ok) {
                lat.push_back(req.complete_time - m.due);
                r.v.bytes += m.bytes;
                last_done = std::max<SimTime>(last_done, req.complete_time);
                if (req.op == MovOp::kMigrate)
                    u.at = req.dst_node;
                else
                    u.replicated = true;
            } else {
                ++r.v.failed;
            }
            if (ledger)
                ledger->retrieved(id, eq.now(),
                                  req.complete_time - req.submit_time);
            u.busy = false;
            tn.idle->notify_all();
            drain.free_request(idx);
            slot_free.notify_all();
            ++completed;
        }
    };

    // Backlog (due but not completed) at mid-run and at the last arrival.
    std::uint64_t backlog_mid = 0, backlog_end = 0;
    const std::uint64_t mid = all_due.size() / 2;
    eq.schedule_at(all_due[mid - 1],
                   [&] { backlog_mid = mid - std::min(mid, completed); });
    eq.schedule_at(all_due.back(), [&] {
        backlog_end = all_due.size() - std::min<std::uint64_t>(
                                           all_due.size(), completed);
    });

    const sim::CpuAccounting cpu0 = k.cpu().snapshot();
    const std::uint64_t ev0 = eq.events_executed();
    std::vector<sim::Task> tasks;
    for (std::uint32_t t = 0; t < ntenants; ++t)
        tasks.push_back(generator(t));
    tasks.push_back(reaper());
    run_timed(k, r);
    for (const sim::Task &t : tasks) {
        t.rethrow_if_failed();
        if (!t.done()) r.fail("tenant_mix did not finish (lost wakeup?)");
    }
    if (ledger) ledger->finish();

    MachineStats ms = read_machine(bed, users, procs, cpu0, ev0);
    ms.requests = r.v.attempted;
    ms.elapsed = last_done - t0;
    r.v.elapsed = ms.elapsed;
    r.v.cpu = ms.cpu.total;
    r.host_requests += r.v.attempted;
    r.machines.push_back(ms);
    out.backlog_ok =
        backlog_end <= 2 * std::max<std::uint64_t>(backlog_mid, 8);

    // Per-tenant byte digests: migrations keep their bytes; a replicated
    // destination must equal its source (flat) or carry its rows.
    for (std::uint32_t t = 0; t < ntenants; ++t) {
        std::uint64_t digest = kFnvOffset;
        bool ok = true;
        for (MixUnit &u : tenants[t].units) {
            if (u.replicated && u.kind == Kind::kRepl)
                u.dst.expect = u.src.expect;
            if (u.replicated && u.kind == Kind::kStrided)
                for (std::uint32_t row = 0; row < u.rows; ++row)
                    std::memcpy(u.dst.expect.data() + row * u.dst_pitch,
                                u.src.expect.data() + row * u.src_pitch,
                                u.row_bytes);
            ok &= region_intact(u.src, &digest);
            if (u.dst.base) ok &= region_intact(u.dst, &digest);
        }
        r.v.content = fnv_fold(r.v.content, digest);
        if (!ok)
            r.fail("tenant_mix: tenant " + std::to_string(t) +
                   " byte digest differs from its expected bytes");
    }
    return out;
}

/** Independent machines pooled into rung 0, so one machine's drift
 *  does not decide the round's percentiles. */
constexpr std::uint32_t kTenantMachines = 4;

struct Rung {
    Round r;
    bool pass = false;  ///< p99.9 <= SLO, nothing failed, no growing backlog
};

/** Run @p machines independent machines (sub-seeded) at @p rate, with
 *  @p arrivals split over them, and pool their latencies. */
Rung
run_tenant_rung(std::uint64_t seed, double rate, std::uint64_t arrivals,
                std::uint32_t machines, bool traced)
{
    Rung out;
    Round &r = out.r;
    std::vector<Duration> lat, late;
    bool backlog_ok = true;
    for (std::uint32_t i = 0; i < machines; ++i) {
        MachineRun m = run_tenant_machine(seed * machines + i, rate,
                                          arrivals / machines,
                                          traced && i == 0);
        r.fail(m.r.error);
        r.v.attempted += m.r.v.attempted;
        r.v.failed += m.r.v.failed;
        r.v.bytes += m.r.v.bytes;
        r.v.elapsed += m.r.v.elapsed;
        r.v.cpu += m.r.v.cpu;
        r.v.content = fnv_fold(r.v.content, m.r.v.content);
        r.setup_s.insert(r.setup_s.end(), m.r.setup_s.begin(),
                         m.r.setup_s.end());
        r.run_host_s += m.r.run_host_s;
        r.host_requests += m.r.host_requests;
        r.machines.insert(r.machines.end(), m.r.machines.begin(),
                          m.r.machines.end());
        if (m.r.ledger) r.ledger = std::move(m.r.ledger);
        lat.insert(lat.end(), m.lat.begin(), m.lat.end());
        late.insert(late.end(), m.late.begin(), m.late.end());
        backlog_ok &= m.backlog_ok;
    }
    r.v.lat_p50 = percentile(lat, 0.50);
    r.v.lat_p999 = percentile(lat, 0.999);
    r.late_p999 = percentile(late, 0.999);
    out.pass = r.error.empty() && r.v.failed == 0 &&
               sim::to_us(r.v.lat_p999) <= kTenantSloUs && backlog_ok;
    return out;
}

Round
run_tenant_mix(std::uint64_t seed, bool traced)
{
    // Rung 0 (the fixed offered load R0) supplies every metric; higher
    // rungs only decide rate_kreq_s and stop at the first miss.
    Rung base = run_tenant_rung(seed, kTenantR0, kTenantRequests,
                                bench::quick_mode() ? 1 : kTenantMachines,
                                traced);
    Round r = std::move(base.r);
    r.v.rate_kreq_s = base.pass ? kTenantR0 / 1e3 : 0.0;
    for (std::size_t i = 1; base.pass && i < kLadder.size(); ++i) {
        Rung rung = run_tenant_rung(seed, kTenantR0 * kLadder[i],
                                    kLadderRequests, 1, false);
        r.setup_s.insert(r.setup_s.end(), rung.r.setup_s.begin(),
                         rung.r.setup_s.end());
        r.fail(rung.r.error);
        if (!rung.pass) break;
        r.v.rate_kreq_s = kTenantR0 * kLadder[i] / 1e3;
    }
    return r;
}

// ---------------------------------------------------------------------
// checker_sweep: the differential checker, every preset, fixed seeds.
// ---------------------------------------------------------------------

/** Generated workloads (seeds 1..kCheckSeeds) replayed per round. */
constexpr std::uint64_t kCheckSeeds = 2;

Round
run_checker_sweep(std::uint64_t seed, bool /*traced*/)
{
    Round r;
    const auto &presets = check::presets();
    r.check.replay_s.assign(presets.size(), 0.0);
    std::vector<Duration> makespans;
    const std::uint64_t nseeds = bench::quick_mode() ? 1 : kCheckSeeds;

    // Set-up: generate the workloads, then one untimed warm-up replay
    // (first-touch of the allocator and of a machine's backing memory).
    const auto s0 = Clock::now();
    std::vector<check::Workload> workloads;
    for (std::uint64_t ws = 1; ws <= nseeds; ++ws)
        workloads.push_back(check::generate_workload(ws));
    r.check.generate_s = seconds_since(s0);
    {
        check::RunOptions warm;
        warm.config = presets.front().config;
        if (!check::run_workload(workloads.front(), warm).ok)
            r.fail("checker_sweep: warm-up replay failed");
    }
    r.setup_s.push_back(seconds_since(s0));

    for (const check::Workload &w : workloads) {
        ++r.check.seeds;
        std::uint64_t digest0 = 0;
        for (std::size_t p = 0; p < presets.size(); ++p) {
            check::RunOptions opt;
            opt.config = presets[p].config;
            // The run seed picks the same-timestamp tie-break order;
            // every schedule must still match the reference model.
            opt.schedule_seed = seed;
            const auto t0 = Clock::now();
            const check::RunResult res = check::run_workload(w, opt);
            const double host = seconds_since(t0);
            r.check.replay_s[p] += host;
            r.run_host_s += host;
            ++r.check.replays;
            r.check.movs += res.submitted;
            if (!res.ok)
                r.fail(std::string("checker_sweep: ") + presets[p].name +
                       ": " + res.failure);
            if (p == 0)
                digest0 = res.mem_digest;
            else if (res.mem_digest != digest0)
                r.fail(std::string("checker_sweep: ") + presets[p].name +
                       " final bytes differ from levers-off, workload seed " +
                       std::to_string(w.seed));
            MachineStats m;
            m.dev = res.stats;
            m.requests = res.submitted;
            m.elapsed = res.end_time;
            r.machines.push_back(m);
            r.v.attempted += res.completed;
            r.v.failed += res.submitted - res.completed;
            r.v.bytes += res.stats.bytes_moved;
            r.v.elapsed += res.end_time;
            r.v.content = fnv_fold(r.v.content, res.full_digest);
            makespans.push_back(res.end_time);
        }
    }
    // A checker request is one whole replay: its latency is the replay's
    // virtual makespan.
    r.v.lat_p50 = percentile(makespans, 0.50);
    r.v.lat_p999 = percentile(makespans, 0.999);
    r.host_requests = r.check.movs;
    return r;
}

// ---------------------------------------------------------------------
// Metrics and output.
// ---------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

class Metrics {
  public:
    void
    add(std::string name, double value, const char *unit)
    {
        if (!std::isfinite(value)) value = 0.0;
        list_.push_back({std::move(name), value, unit});
    }
    const std::vector<Metric> &list() const { return list_; }

  private:
    std::vector<Metric> list_;
};

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

void
end_to_end_metrics(Metrics &m, const Virtual &v,
                   const std::vector<Round> &plain)
{
    std::vector<double> rate, setup;
    for (const Round &r : plain) {
        rate.push_back(ratio(static_cast<double>(r.host_requests),
                             r.run_host_s));
        setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const double mb = static_cast<double>(v.bytes) / (1 << 20);
    m.add("goodput_gbps", sim::gb_per_sec(v.bytes, v.elapsed), "GB/s");
    m.add("lat_p50_us", sim::to_us(v.lat_p50), "us");
    m.add("lat_p999_us", sim::to_us(v.lat_p999), "us");
    m.add("cpu_us_per_mb", ratio(sim::to_us(v.cpu), mb), "us/MB");
    m.add("rate_kreq_s", v.rate_kreq_s, "kreq/s");
    m.add("host_req_per_s", median(rate), "1/s");
    m.add("setup_s", median(setup), "s");
    m.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
}

/** Host-time split of the differential checker (checker_sweep). */
void
checker_metrics(Metrics &m, const std::vector<Round> &plain)
{
    const Round &base = plain.front();
    const auto &presets = check::presets();
    std::vector<double> gen;
    std::vector<std::vector<double>> replay(presets.size());
    std::vector<double> spm;
    for (const Round &r : plain) {
        gen.push_back(r.check.generate_s);
        double all = r.check.generate_s;
        for (std::size_t p = 0; p < r.check.replay_s.size(); ++p) {
            replay[p].push_back(r.check.replay_s[p]);
            all += r.check.replay_s[p];
        }
        spm.push_back(ratio(static_cast<double>(r.check.seeds) * 60.0, all));
    }
    m.add("check.generate_host_s", median(gen), "s");
    for (std::size_t p = 0; p < presets.size(); ++p)
        m.add(std::string("check.replay_host_s.") + presets[p].name,
              median(replay[p]), "s");
    m.add("check.movs_per_run",
          ratio(static_cast<double>(base.check.movs),
                static_cast<double>(base.check.replays)),
          "1/run");
    std::vector<double> us_per_mov;
    for (const Round &r : plain)
        us_per_mov.push_back(
            ratio(r.run_host_s * 1e6, static_cast<double>(r.check.movs)));
    m.add("check.host_us_per_mov", median(us_per_mov), "us");
    m.add("check.seeds_per_min", median(spm), "1/min");
}

void
layer_metrics(Metrics &m, const std::vector<Round> &plain,
              const std::vector<Round> &traced)
{
    const Round &base = plain.front();
    const std::vector<MachineStats> &ms = base.machines;
    auto sum = [&](auto field) {
        double s = 0;
        for (const MachineStats &x : ms) s += static_cast<double>(x.*field);
        return s;
    };
    auto dev = [&](auto field) {
        double s = 0;
        for (const MachineStats &x : ms)
            s += static_cast<double>(x.dev.*field);
        return s;
    };
    auto eng = [&](auto field) {
        double s = 0;
        for (const MachineStats &x : ms)
            s += static_cast<double>(x.eng.*field);
        return s;
    };
    auto usr = [&](auto field) {
        double s = 0;
        for (const MachineStats &x : ms)
            s += static_cast<double>(x.user.*field);
        return s;
    };
    double cpu_us = 0;
    for (const MachineStats &x : ms) cpu_us += sim::to_us(x.cpu.total);
    auto op_frac = [&](sim::Op op) {
        double s = 0;
        for (const MachineStats &x : ms) s += sim::to_us(x.cpu.op(op));
        return ratio(s, cpu_us);
    };
    auto ctx_frac = [&](sim::ExecContext c) {
        double s = 0;
        for (const MachineStats &x : ms) s += sim::to_us(x.cpu.context(c));
        return ratio(s, cpu_us);
    };
    const double req = sum(&MachineStats::requests);
    auto per_req = [&](double x) { return ratio(x, req); };
    using D = core::DeviceStats;
    using E = dma::EngineStats;
    using U = core::UserStats;

    // Simulated CPU per request, split by Table-1 op and by execution
    // context as shares of that total (each split sums to 1).
    m.add("os.cpu_us_per_req", per_req(cpu_us), "us");
    m.add("memif.prep_cpu_frac", op_frac(sim::Op::kPrep), "ratio");
    m.add("memif.remap_cpu_frac", op_frac(sim::Op::kRemap), "ratio");
    m.add("memif.dma_config_cpu_frac", op_frac(sim::Op::kDmaConfig), "ratio");
    m.add("memif.release_cpu_frac", op_frac(sim::Op::kRelease), "ratio");
    m.add("memif.notify_cpu_frac", op_frac(sim::Op::kNotify), "ratio");
    m.add("memif.queue_cpu_frac", op_frac(sim::Op::kQueue), "ratio");
    m.add("os.sched_cpu_frac", op_frac(sim::Op::kSched), "ratio");
    m.add("os.syscall_cpu_frac", op_frac(sim::Op::kSyscall), "ratio");
    m.add("os.user_ctx_frac", ctx_frac(sim::ExecContext::kUser), "ratio");
    m.add("os.syscall_ctx_frac", ctx_frac(sim::ExecContext::kSyscall),
          "ratio");
    m.add("os.irq_ctx_frac", ctx_frac(sim::ExecContext::kIrq), "ratio");
    m.add("os.kthread_ctx_frac", ctx_frac(sim::ExecContext::kKthread),
          "ratio");
    m.add("vm.tlb_flushes_per_req", per_req(sum(&MachineStats::tlb_flushes)),
          "1/req");
    m.add("vm.xlate_hit_ratio",
          ratio(dev(&D::xlate_hits), dev(&D::xlate_hits) +
                                         dev(&D::xlate_misses)),
          "ratio");
    m.add("mem.magazine_pops_per_req", per_req(dev(&D::magazine_pops)),
          "1/req");
    m.add("mem.bulk_allocs_per_req", per_req(dev(&D::bulk_allocs)), "1/req");

    // Completion delivery.
    m.add("memif.irq_completions_per_req", per_req(dev(&D::irq_completions)),
          "1/req");
    m.add("memif.wakeups_per_req", per_req(dev(&D::kthread_wakeups)),
          "1/req");
    m.add("memif.drained_per_req", per_req(dev(&D::drained_requests)),
          "1/req");
    m.add("memif.reaped_per_req", per_req(dev(&D::reaped_completions)),
          "1/req");
    m.add("memif.polled_frac", per_req(dev(&D::polled_completions)),
          "ratio");
    m.add("dma.moderated_irq_frac",
          ratio(eng(&E::moderated_completions),
                eng(&E::transfers_completed)),
          "ratio");
    m.add("user_api.kicks_per_req", per_req(usr(&U::kicks)), "1/req");
    m.add("user_api.polls_per_req", per_req(usr(&U::polls)), "1/req");

    // DMA engine and the recovery ladder.
    double busy = 0;
    for (const MachineStats &x : ms)
        busy += ratio(static_cast<double>(x.eng.busy_time),
                      static_cast<double>(x.elapsed) *
                          dma::Edma3Engine::kNumTcs);
    m.add("dma.busy_frac", ratio(busy, static_cast<double>(ms.size())),
          "ratio");
    m.add("dma.sg_entries_per_req", per_req(dev(&D::sg_entries_emitted)),
          "1/req");
    m.add("dma.descriptor_writes_saved_frac",
          ratio(dev(&D::descriptor_writes_saved),
                dev(&D::descriptor_writes_saved) +
                    dev(&D::sg_entries_emitted)),
          "ratio");
    m.add("dma.transfers_failed", eng(&E::transfers_failed), "count");
    m.add("memif.dma_retries", dev(&D::dma_retries), "count");
    m.add("memif.fallback_copies", dev(&D::fallback_copies), "count");
    m.add("memif.watchdog_timeouts", dev(&D::watchdog_timeouts), "count");
    m.add("memif.rollbacks", dev(&D::rollbacks), "count");

    // Service layer, chains, SVA, strided.
    Duration slot_wait = 0;
    for (const MachineStats &x : ms)
        slot_wait = std::max(slot_wait, x.max_slot_wait);
    m.add("memif.admission_rejections", dev(&D::admission_rejections),
          "count");
    m.add("memif.shed_requests", dev(&D::shed_requests), "count");
    m.add("memif.wrr_dispatches_per_req", per_req(dev(&D::wrr_dispatches)),
          "1/req");
    m.add("memif.tenant_max_slot_wait_us", sim::to_us(slot_wait), "us");
    m.add("user_api.rejected_per_req", per_req(usr(&U::rejected)), "1/req");
    m.add("user_api.submit_late_p999_us", sim::to_us(base.late_p999), "us");
    const double chains = dev(&D::chained_migrations);
    m.add("memif.chained_migrations", chains, "count");
    m.add("memif.chain_batches_per_chain",
          ratio(dev(&D::chain_batches), chains), "1/chain");
    m.add("memif.hop_overlap_per_chain",
          ratio(dev(&D::hop_overlap_events), chains), "1/chain");
    m.add("memif.staging_pool_waits", dev(&D::staging_pool_waits), "count");
    double hwm = 0;
    for (const MachineStats &x : ms)
        hwm = std::max(hwm, static_cast<double>(x.dev.staging_frames_hwm));
    m.add("memif.staging_frames_hwm", hwm, "count");
    m.add("dma.gate_stall_us_per_req",
          per_req(sim::to_us(static_cast<Duration>(
              eng(&E::gate_stall_time)))),
          "us");
    m.add("dma.gated_transfers", eng(&E::gated_transfers), "count");
    const double pf = dev(&D::stream_prefetch_hits) +
                      dev(&D::stream_prefetch_late) +
                      dev(&D::stream_prefetch_wasted);
    m.add("vm.stream_prefetch_hit_ratio",
          ratio(dev(&D::stream_prefetch_hits), pf), "ratio");
    m.add("vm.sva_demand_walks_per_req", per_req(dev(&D::sva_demand_walks)),
          "1/req");
    m.add("vm.sva_retranslated", dev(&D::sva_retranslated), "count");
    m.add("vm.xlate_invalidations_per_req",
          per_req(dev(&D::xlate_invalidations)), "1/req");
    m.add("memif.strided_descriptors_per_req",
          per_req(dev(&D::strided_descriptors)), "1/req");
    m.add("memif.strided_row_splits_per_req",
          per_req(dev(&D::strided_row_splits)), "1/req");

    // The simulator itself (host time, untraced rounds).
    std::vector<double> run_s, ns_per_event, traced_s;
    for (const Round &r : plain) {
        run_s.push_back(r.run_host_s);
        double ev = 0;
        for (const MachineStats &x : r.machines)
            ev += static_cast<double>(x.events);
        ns_per_event.push_back(ratio(r.run_host_s * 1e9, ev));
    }
    for (const Round &r : traced) traced_s.push_back(r.run_host_s);
    m.add("sim.events_per_req", per_req(sum(&MachineStats::events)), "1/req");
    m.add("sim.host_ns_per_event", median(ns_per_event), "ns");
    m.add("sim.run_host_s", median(run_s), "s");
    m.add("sim.trace_overhead_frac",
          traced_s.empty() ? 0.0 : median(traced_s) / median(run_s) - 1.0,
          "ratio");

    // The differential checker (host time, checker_sweep only).
    if (base.check.replays != 0) checker_metrics(m, plain);

    // Stage ledger (virtual time, traced rounds): each stage's share of
    // the traced latency (the shares sum to 1) and its p99.9.
    const Ledger *lg = traced.empty() ? nullptr : traced.front().ledger.get();
    std::array<double, kNumStages> stage_ns{};
    double traced_ns = 0, closed = 0;
    if (lg) {
        closed = static_cast<double>(lg->durations(kQueueWait).size());
        for (std::size_t s = 0; s < kNumStages; ++s) {
            for (const std::uint32_t x : lg->durations(Stage(s)))
                stage_ns[s] += x;
            traced_ns += stage_ns[s];
        }
    }
    m.add("stage.latency_us_mean", ratio(traced_ns, closed) / 1e3, "us");
    for (std::size_t s = 0; s < kNumStages; ++s) {
        const std::string name = std::string("stage.") + kStageNames[s];
        m.add(name + "_frac", ratio(stage_ns[s], traced_ns), "ratio");
        m.add(name + "_us_p999",
              lg ? percentile(lg->durations(Stage(s)), 0.999) / 1e3 : 0.0,
              "us");
    }
}

std::string
json_escape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Command line and the round loop.
// ---------------------------------------------------------------------

struct WorkloadDef {
    const char *name;
    Round (*run)(std::uint64_t seed, bool traced);
    /** False when the workload's machines are out of reach of the
     *  tracer (the checker builds its own). */
    bool traceable;
};

constexpr std::array<WorkloadDef, 4> kWorkloads = {{
    {"small_migrate", run_small_migrate, true},
    {"large_replicate", run_large_replicate, true},
    {"tenant_mix", run_tenant_mix, true},
    {"checker_sweep", run_checker_sweep, false},
}};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: memif_bench --workload <name> --seed <n> "
                 "[--seconds <s>] [--trace <chrome.json>]\n"
                 "workloads:");
    for (const WorkloadDef &w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

int
bench_main(int argc, char **argv)
{
    std::string workload, trace_path;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (i + 1 >= argc) usage();
        const char *val = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = val;
        } else if (a == "--seed") {
            seed = std::strtoull(val, &end, 10);
            if (*end != '\0') usage();
            have_seed = true;
        } else if (a == "--seconds") {
            seconds = std::strtod(val, &end);
            if (*end != '\0' || !(seconds >= 0)) usage();
        } else if (a == "--trace") {
            trace_path = val;
        } else {
            usage();
        }
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (workload == w.name) def = &w;
    if (!def || !have_seed) usage();
    const bool tracing = !trace_path.empty() && def->traceable;

    // Alternate untraced and traced rounds until the next round would
    // overrun the budget (at least one of each kind).
    std::vector<Round> plain, traced;
    const auto start = Clock::now();
    double longest = 0;
    for (std::uint32_t i = 0;; ++i) {
        const bool want_trace = tracing && i % 2 == 1;
        const auto t0 = Clock::now();
        Round r = def->run(seed, want_trace);
        longest = std::max(longest, seconds_since(t0));
        if (want_trace) {
            if (!traced.empty()) r.ledger.reset();
            traced.push_back(std::move(r));
        } else {
            plain.push_back(std::move(r));
        }
        const bool enough = !plain.empty() && (!tracing || !traced.empty());
        if (enough && seconds_since(start) + longest > seconds) break;
    }

    // Correctness: every round checked its bytes; virtual metrics must
    // repeat bit for bit across rounds, traced or not; the stage ledger
    // must agree with the requests' own timestamps.
    const Virtual &v = plain.front().v;
    std::string error;
    std::uint64_t attempted = 0, failed = 0;
    auto note = [&](const std::string &why) {
        if (error.empty()) error = why;
    };
    for (const std::vector<Round> *set : {&plain, &traced})
        for (const Round &r : *set) {
            note(r.error);
            if (!(r.v == v))
                note(set == &traced
                         ? "traced round's virtual metrics differ from "
                           "the untraced round's"
                         : "virtual metrics differ between rounds");
            attempted += r.v.attempted;
            failed += r.v.failed;
        }
    if (tracing) note(traced.front().ledger->check());
    if (!trace_path.empty()) {
        // An untraceable workload still gets a valid (empty) trace.
        const std::string js = tracing ? traced.front().ledger->chrome_json()
                                       : "{\"traceEvents\":[]}\n";
        std::FILE *f = std::fopen(trace_path.c_str(), "w");
        if (!f || std::fwrite(js.data(), 1, js.size(), f) != js.size())
            note("cannot write " + trace_path);
        if (f) std::fclose(f);
    }

    Metrics m;
    end_to_end_metrics(m, v, plain);
    if (!trace_path.empty()) layer_metrics(m, plain, traced);

    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"rounds\":%zu,"
                "\"traced_rounds\":%zu,\"correct\":%s,\"attempted\":%llu,"
                "\"failed\":%llu,\"error\":\"%s\",\"metrics\":{",
                def->name, static_cast<unsigned long long>(seed),
                plain.size(), traced.size(), error.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                json_escape(error).c_str());
    for (std::size_t i = 0; i < m.list().size(); ++i) {
        const Metric &x = m.list()[i];
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i ? "," : "", x.name.c_str(), x.value, x.unit);
    }
    std::printf("}}\n");
    return 0;
}

}  // namespace
}  // namespace memif::perfbench

int
main(int argc, char **argv)
{
    try {
        return memif::perfbench::bench_main(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memif_bench: %s\n", e.what());
        return 1;
    }
}
