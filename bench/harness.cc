#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdlib>

#include "sim/log.h"

namespace memif::bench {

namespace {

/** Cap on simultaneously fast-resident bytes (leave SRAM headroom). */
constexpr std::uint64_t kFastBudget = 5ull << 20;

std::uint32_t
window_for(std::uint64_t request_bytes, std::uint32_t num_requests)
{
    std::uint64_t w = kFastBudget / request_bytes;
    if (w < 1) w = 1;
    if (w > 8) w = 8;
    if (w > num_requests) w = num_requests;
    return static_cast<std::uint32_t>(w);
}

/** Append printf-formatted text to @p out. */
[[gnu::format(printf, 2, 3)]] void
appendf(std::string &out, const char *fmt, ...)
{
    std::va_list ap, again;
    va_start(ap, fmt);
    va_copy(again, ap);
    const auto n =
        static_cast<std::size_t>(std::vsnprintf(nullptr, 0, fmt, ap));
    va_end(ap);
    const std::size_t at = out.size();
    out.resize(at + n + 1);
    std::vsnprintf(out.data() + at, n + 1, fmt, again);
    va_end(again);
    out.resize(at + n);
}

}  // namespace

StreamOutcome
run_memif_stream(TestBed &bed, const RequestPlan &plan)
{
    const std::uint64_t pb = vm::page_bytes(plan.page_size);
    const std::uint64_t req_bytes = pb * plan.pages_per_request;
    const std::uint32_t window =
        plan.window_override
            ? std::min(plan.window_override, plan.num_requests)
            : window_for(req_bytes, plan.num_requests);

    struct Region {
        vm::VAddr src = 0;   // slow-node home (migration ping-pongs it)
        vm::VAddr dst = 0;   // replication destination (fast node)
        bool on_fast = false;
    };
    std::vector<Region> regions(window);
    for (Region &r : regions) {
        r.src = bed.proc.mmap(req_bytes, plan.page_size);
        MEMIF_ASSERT(r.src != 0, "slow node exhausted");
        if (plan.op == core::MovOp::kReplicate) {
            r.dst = bed.proc.mmap(req_bytes, plan.page_size,
                                  bed.kernel.fast_node());
            MEMIF_ASSERT(r.dst != 0, "fast node exhausted");
        }
    }

    StreamOutcome outcome;
    outcome.timings.resize(plan.num_requests);
    const sim::CpuAccounting before = bed.kernel.cpu().snapshot();
    const sim::SimTime t0 = bed.kernel.eq().now();

    auto submit_one = [&](std::uint32_t region_idx,
                          std::uint32_t req_no) -> sim::Task {
        Region &r = regions[region_idx];
        const std::uint32_t idx = bed.user.alloc_request();
        MEMIF_ASSERT(idx != core::kNoRequest);
        core::MovReq &req = bed.user.request(idx);
        req.op = plan.op;
        req.src_base = r.src;
        req.num_pages = plan.pages_per_request;
        req.user_tag = (static_cast<std::uint64_t>(req_no) << 32) |
                       region_idx;
        if (plan.op == core::MovOp::kReplicate) {
            req.dst_base = r.dst;
        } else {
            req.dst_node = r.on_fast ? bed.kernel.slow_node()
                                     : bed.kernel.fast_node();
            r.on_fast = !r.on_fast;
        }
        co_await bed.user.submit(idx);
    };

    auto driver = [&]() -> sim::Task {
        std::uint32_t submitted = 0;
        std::uint32_t completed = 0;
        for (std::uint32_t w = 0; w < window && submitted < plan.num_requests;
             ++w) {
            co_await submit_one(w, submitted);
            ++submitted;
        }
        while (completed < plan.num_requests) {
            const std::uint32_t idx = bed.user.retrieve_completed();
            if (idx == core::kNoRequest) {
                co_await bed.user.poll();
                continue;
            }
            core::MovReq &req = bed.user.request(idx);
            MEMIF_ASSERT(req.succeeded(), "bench request failed (%u)",
                         static_cast<unsigned>(req.error));
            const auto req_no =
                static_cast<std::uint32_t>(req.user_tag >> 32);
            const auto region_idx =
                static_cast<std::uint32_t>(req.user_tag & 0xFFFFFFFF);
            outcome.timings[req_no] =
                RequestTiming{req.submit_time, req.complete_time};
            bed.user.free_request(idx);
            ++completed;
            if (submitted < plan.num_requests) {
                co_await submit_one(region_idx, submitted);
                ++submitted;
            }
        }
    };
    auto task = driver();
    bed.kernel.run();
    task.rethrow_if_failed();
    MEMIF_ASSERT(task.done(), "memif stream did not finish");

    outcome.elapsed = bed.kernel.eq().now() - t0;
    outcome.bytes = req_bytes * plan.num_requests;
    outcome.cpu = bed.kernel.cpu().snapshot().since(before);
    for (Region &r : regions) {
        bed.proc.as().munmap(r.src);
        if (r.dst) bed.proc.as().munmap(r.dst);
    }
    return outcome;
}

StreamOutcome
run_linux_stream(TestBed &bed, const RequestPlan &plan,
                 std::uint32_t requests_per_syscall)
{
    MEMIF_ASSERT(plan.op == core::MovOp::kMigrate,
                 "Linux page migration only migrates");
    const std::uint64_t pb = vm::page_bytes(plan.page_size);
    const std::uint64_t group_pages =
        std::uint64_t{plan.pages_per_request} * requests_per_syscall;
    MEMIF_ASSERT(group_pages * pb <= kFastBudget,
                 "batch exceeds fast-node capacity");

    const vm::VAddr base = bed.proc.mmap(group_pages * pb, plan.page_size);
    MEMIF_ASSERT(base != 0, "slow node exhausted");

    StreamOutcome outcome;
    outcome.timings.resize(plan.num_requests);
    const sim::CpuAccounting before = bed.kernel.cpu().snapshot();
    const sim::SimTime t0 = bed.kernel.eq().now();

    auto driver = [&]() -> sim::Task {
        bool to_fast = true;
        std::uint32_t done = 0;
        while (done < plan.num_requests) {
            const std::uint32_t in_group = std::min<std::uint32_t>(
                requests_per_syscall, plan.num_requests - done);
            os::MigrationResult res;
            co_await os::migrate_pages_sync(
                bed.proc, base,
                std::uint64_t{plan.pages_per_request} * in_group,
                to_fast ? bed.kernel.fast_node() : bed.kernel.slow_node(),
                &res);
            MEMIF_ASSERT(res.pages_failed == 0, "linux stream failed pages");
            // Every request batched into this syscall completes when the
            // syscall returns (the Fig. 7 latency behaviour).
            for (std::uint32_t i = 0; i < in_group; ++i)
                outcome.timings[done + i] =
                    RequestTiming{t0, res.completed_at};
            done += in_group;
            to_fast = !to_fast;
        }
    };
    auto task = driver();
    bed.kernel.run();
    task.rethrow_if_failed();
    MEMIF_ASSERT(task.done(), "linux stream did not finish");

    outcome.elapsed = bed.kernel.eq().now() - t0;
    outcome.bytes = std::uint64_t{plan.pages_per_request} * pb *
                    plan.num_requests;
    outcome.cpu = bed.kernel.cpu().snapshot().since(before);
    bed.proc.as().munmap(base);
    return outcome;
}

bool
quick_mode()
{
    const char *v = std::getenv("MEMIF_BENCH_QUICK");
    return v != nullptr && *v != '\0' && *v != '0';
}

void
BenchReport::add(const std::string &series, double x, double y)
{
    for (Series &s : series_) {
        if (s.name == series) {
            s.points.emplace_back(x, y);
            return;
        }
    }
    series_.push_back(Series{series, {{x, y}}});
}

bool
BenchReport::holds(const Gate &g, std::string &json, std::string &why) const
{
    std::size_t points = 0;
    bool pass = true;
    for (const Series &s : series_) {
        if (s.name != g.series) continue;
        for (const auto &[x, y] : s.points) {
            if (g.x ? x != *g.x : x < g.x_min) continue;
            ++points;
            if (y >= g.min && y <= g.max) continue;
            pass = false;
            appendf(why, "  %s at x=%.15g: %.6g outside [%.15g, %.15g]\n",
                    g.series.c_str(), x, y, g.min, g.max);
        }
    }
    if (points < g.min_points) {
        pass = false;
        appendf(why, "  %s: %zu points selected, %zu needed\n",
                g.series.c_str(), points, g.min_points);
    }
    appendf(json, "{\"series\": \"%s\"", g.series.c_str());
    if (g.x)
        appendf(json, ", \"x\": %.15g", *g.x);
    else if (std::isfinite(g.x_min))
        appendf(json, ", \"x_min\": %.15g", g.x_min);
    if (std::isfinite(g.min)) appendf(json, ", \"min\": %.15g", g.min);
    if (std::isfinite(g.max)) appendf(json, ", \"max\": %.15g", g.max);
    appendf(json,
            ", \"min_points\": %zu, \"points\": %zu, \"pass\": %s}",
            g.min_points, points, pass ? "true" : "false");
    return pass;
}

bool
BenchReport::write()
{
    if (written_) return pass_;
    written_ = true;
    pass_ = true;
    std::string gates;  // the "gates" array's entries, one per line
    for (const Claim &claim : claims_) {
        std::string json, why;
        bool pass = false;
        if (claim.size() == 1 && claim[0].size() == 1) {
            pass = holds(claim[0][0], json, why);
        } else {
            json = "{\"any_of\": [";
            for (std::size_t a = 0; a < claim.size(); ++a) {
                json += a ? ",\n      [" : "\n      [";
                bool all = true;
                for (std::size_t i = 0; i < claim[a].size(); ++i) {
                    if (i) json += ", ";
                    all = holds(claim[a][i], json, why) && all;
                }
                json += "]";
                pass = pass || all;
            }
            appendf(json, "], \"pass\": %s}", pass ? "true" : "false");
        }
        gates += (gates.empty() ? "\n    " : ",\n    ") + json;
        if (pass) continue;
        pass_ = false;
        std::fprintf(stderr, "bench %s: gate failed%s\n%s", name_.c_str(),
                     claim.size() > 1 ? " (no any_of alternative holds)"
                                      : "",
                     why.c_str());
    }

    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) return pass_;  // read-only cwd: stdout tables remain the record
    std::fprintf(f, "{\n  \"name\": \"%s\",\n  \"series\": {", name_.c_str());
    for (std::size_t i = 0; i < series_.size(); ++i) {
        const Series &s = series_[i];
        std::fprintf(f, "%s\n    \"%s\": [", i ? "," : "", s.name.c_str());
        for (std::size_t j = 0; j < s.points.size(); ++j)
            std::fprintf(f, "%s[%.17g, %.17g]", j ? ", " : "",
                         s.points[j].first, s.points[j].second);
        std::fprintf(f, "]");
    }
    std::fprintf(f, "\n  },\n  \"gates\": [%s%s]\n}\n", gates.c_str(),
                 gates.empty() ? "" : "\n  ");
    std::fclose(f);
    return pass_;
}

void
rule(char c, int width)
{
    for (int i = 0; i < width; ++i) std::putchar(c);
    std::putchar('\n');
}

void
header(const std::string &title)
{
    rule('=');
    std::printf("%s\n", title.c_str());
    rule('=');
}

}  // namespace memif::bench
