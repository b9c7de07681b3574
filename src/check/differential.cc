#include "check/differential.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <utility>

#include "dma/engine.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/task.h"

namespace memif::check {

using core::kNoRequest;
using core::MemifConfig;
using core::MemifDevice;
using core::MemifUser;
using core::MovError;
using core::MovOp;
using core::MovReq;
using core::MovStatus;

const std::vector<Preset> &
presets()
{
    static const std::vector<Preset> kPresets = {
        {"levers-off", MemifConfig{}},
        {"pipelined", MemifConfig::pipelined()},
        {"moderated", MemifConfig::moderated()},
        {"scaled", MemifConfig::scaled()},
        {"tenanted", MemifConfig::tenanted()},
        {"mmu_aware", MemifConfig::mmu_aware()},
        {"managed", MemifConfig::managed()},
        {"tiered", MemifConfig::tiered()},
        {"strided", MemifConfig::strided()},
    };
    return kPresets;
}

std::string
seed_pair(const Workload &w, const RunOptions &opt)
{
    return "(workload_seed=" + std::to_string(w.seed) +
           ", schedule_seed=" + std::to_string(opt.schedule_seed) + ")";
}

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** One FNV-1a step over a whole 64-bit word. */
void
fold_word(std::uint64_t &h, std::uint64_t w)
{
    h = (h ^ w) * kFnvPrime;
}

}  // namespace

std::uint64_t
digest_bytes(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
        std::uint64_t w;
        std::memcpy(&w, p + i, sizeof(w));
        fold_word(h, w);
    }
    for (; i < n; ++i) fold_word(h, p[i]);
    return h;
}

RunResult
run_workload(const Workload &w, const RunOptions &opt)
{
    RunResult res;
    auto fail = [&](const std::string &msg) {
        if (res.ok) {
            res.ok = false;
            res.failure = seed_pair(w, opt) + " " + msg;
        }
    };

    // Tiered presets get a machine with the third tier attached; the
    // far node's capacity comfortably holds every workload region, so
    // chained demotions only fail for injected reasons, never by
    // construction.
    os::KernelConfig kcfg;
    if (opt.config.tiered_memory) kcfg.far_bytes = 64ull << 20;
    os::Kernel kernel(kcfg);
    if (opt.schedule_seed != 0)
        kernel.eq().set_tie_break_seed(opt.schedule_seed);
    if (opt.arm_faults) {
        sim::FaultInjector &fi = kernel.faults();
        fi.seed(w.seed * 0x9E3779B97F4A7C15ull + opt.schedule_seed);
        fi.arm_probability(dma::kFaultTcError, 0.04);
        fi.arm_probability(dma::kFaultLostIrq, 0.02);
        fi.arm_probability(dma::kFaultStuck, 0.02);
        fi.arm_probability(core::kFaultAllocFail, 0.02);
    }
    if (opt.inject_undeclared_fault_nth != 0)
        kernel.faults().arm_nth(dma::kFaultTcError,
                                opt.inject_undeclared_fault_nth);

    // Multi-tenant presets give every workload tenant its own process
    // (address space) and register it with the device; otherwise all
    // regions live in the single owner process and tenancy is inert.
    const bool mt = opt.config.multi_tenant;
    const std::uint32_t ntenants =
        mt ? std::max<std::uint32_t>(w.num_tenants, 1) : 1;

    os::Process &proc = kernel.create_process();
    std::vector<os::Process *> procs{&proc};
    for (std::uint32_t t = 1; t < ntenants; ++t)
        procs.push_back(&kernel.create_process());
    auto proc_for_region = [&](std::uint32_t r) -> os::Process & {
        return mt ? *procs[w.regions[r].tenant % ntenants] : proc;
    };

    ReferenceModel model(w);
    std::vector<vm::VAddr> bases;
    std::vector<std::uint64_t> pbs;
    for (std::uint32_t ri = 0; ri < w.regions.size(); ++ri) {
        const RegionSpec &r = w.regions[ri];
        os::Process &rp = proc_for_region(ri);
        const std::uint64_t pb = vm::page_bytes(r.psize);
        const vm::VAddr base = rp.mmap(r.pages * pb, r.psize);
        if (base == 0) {
            fail("mmap failed during setup");
            return res;
        }
        // The model starts from the region's initial bytes.
        const std::vector<std::uint8_t> &initial = model.memory(ri);
        if (!rp.as().write(base, initial.data(), initial.size())) {
            fail("initial fill failed during setup");
            return res;
        }
        bases.push_back(base);
        pbs.push_back(pb);
    }

    MemifDevice dev(kernel, proc, opt.config);
    for (std::uint32_t t = 1; t < ntenants; ++t)
        if (dev.register_tenant(*procs[t]) != t) {
            fail("register_tenant returned an unexpected asid");
            return res;
        }

    // Managed preset: hand every region to the heat scanner so the
    // migration daemon's device-originated movs run concurrently with
    // the workload's own requests. Migration is placement, not
    // mutation — the reference model's byte predictions must hold
    // unchanged with the daemon active.
    if (opt.config.auto_migrate)
        for (std::uint32_t r = 0; r < w.regions.size(); ++r)
            if (!dev.manage_region(bases[r],
                                   mt ? w.regions[r].tenant % ntenants
                                      : 0)) {
                fail("manage_region failed during setup");
                return res;
            }

    // One handle per (tenant, cpu); lever off collapses to one row.
    std::vector<std::unique_ptr<MemifUser>> users;
    for (std::uint32_t t = 0; t < ntenants; ++t)
        for (std::uint32_t cpu = 0; cpu < kWorkloadCpus; ++cpu)
            users.push_back(std::make_unique<MemifUser>(dev, cpu, t));
    auto user_for = [&](std::uint32_t asid,
                        std::uint32_t cpu) -> MemifUser & {
        return *users[asid * kWorkloadCpus + cpu % kWorkloadCpus];
    };
    auto tenant_of = [&](const WorkloadOp &op) -> std::uint32_t {
        if (!mt || op.movs.empty()) return 0;
        return w.regions[op.movs.front().src_region].tenant;
    };

    const OutcomeContext ctx{opt.config.race_policy, opt.arm_faults,
                             opt.config.cpu_copy_fallback, mt,
                             opt.config.auto_migrate};
    const std::uint64_t baseline = kernel.phys().outstanding_pages();

    // Terminal (status, error) per mov id; doubles as the
    // exactly-once-completion ledger.
    struct Outcome {
        bool seen = false;
        MovStatus st = MovStatus::kFree;
        MovError err = MovError::kNone;
    };
    std::vector<Outcome> outcomes(model.num_movs());

    // Requests bounced by admission control (kFailed/kNoSpace) with a
    // positive retry-after hint: not a terminal outcome — the driver
    // loop honors retry_after_us and resubmits, so transient quota
    // pressure cannot change final memory and the exactly-once ledger
    // only ever sees real completions. A zero hint means the request
    // can never fit the quota (its frame estimate alone exceeds it);
    // that IS terminal, and the model's multi-tenant clause admits it.
    std::vector<std::uint32_t> retries;

    auto handle_completion = [&](MemifUser &u, std::uint32_t idx) {
        MovReq &req = u.request(idx);
        const std::uint64_t tag = req.user_tag;
        const MovStatus st = req.load_status();
        const MovError err = req.error;
        if (mt && st == MovStatus::kFailed &&
            err == MovError::kNoSpace && req.retry_after_us != 0) {
            ++res.rejected;
            retries.push_back(idx);
            return;
        }
        // Managed preset: an app request that collides with a daemon
        // mov in flight fails fast with kBusy. Like quota
        // backpressure, that is transient, not terminal — the daemon
        // mov completes in bounded virtual time, so wait out a short
        // copy window and resubmit.
        if (opt.config.auto_migrate && st == MovStatus::kFailed &&
            err == MovError::kBusy) {
            req.retry_after_us = 25;
            ++res.rejected;
            retries.push_back(idx);
            return;
        }
        if (tag >= outcomes.size()) {
            fail("completion with unknown user_tag " +
                 std::to_string(tag));
        } else if (outcomes[tag].seen) {
            fail("duplicate completion for mov #" + std::to_string(tag));
        } else {
            outcomes[tag] = Outcome{true, st, err};
            std::string why;
            if (!model.outcome_allowed(tag, st, err, ctx, &why))
                fail("unexpected outcome: " + why);
            model.commit(tag, st);
        }
        u.free_request(idx);
        ++res.completed;
    };

    // Resubmit every bounced request through its own tenant's handle
    // after the device's retry-after hint has elapsed.
    auto drain_retries = [&]() -> sim::Task {
        std::vector<std::uint32_t> batch = std::move(retries);
        retries.clear();
        for (const std::uint32_t idx : batch) {
            // Hint-0 rejections never land here (they are terminal),
            // so the wait below is always positive.
            MovReq &req = users[0]->request(idx);
            co_await sim::Delay{kernel.eq(),
                                sim::microseconds(req.retry_after_us)};
            co_await user_for(req.asid, req.submit_cpu).submit(idx);
        }
    };

    // Read region r's live bytes in order through a small stack buffer,
    // calling visit(offset, bytes, n) per chunk. A region-sized heap
    // buffer (up to 512 KB) would be mapped, faulted in and unmapped
    // again on every check. False when part of the region is unreadable.
    auto read_region = [&](std::uint32_t r, auto &&visit) {
        std::array<std::uint8_t, 16 << 10> chunk;
        vm::AddressSpace &as = proc_for_region(r).as();
        const std::uint64_t size = w.regions[r].pages * pbs[r];
        for (std::uint64_t off = 0; off < size; off += chunk.size()) {
            const std::uint64_t n =
                std::min<std::uint64_t>(chunk.size(), size - off);
            if (!as.read(bases[r] + off, chunk.data(), n)) return false;
            visit(off, chunk.data(), n);
        }
        return true;
    };

    // Compare live memory against the model (barriers + final check).
    auto check_memory = [&](const char *where) {
        for (std::uint32_t r = 0; r < w.regions.size(); ++r) {
            const std::vector<std::uint8_t> &want = model.memory(r);
            std::optional<std::uint64_t> off;  // first diverging byte
            std::uint8_t got = 0;
            const bool readable = read_region(
                r, [&](std::uint64_t at, const std::uint8_t *live,
                       std::uint64_t n) {
                    if (off || std::memcmp(live, &want[at], n) == 0) return;
                    std::uint64_t i = 0;
                    while (live[i] == want[at + i]) ++i;
                    off = at + i;
                    got = live[i];
                });
            if (!readable)
                fail(std::string(where) + ": region " +
                     std::to_string(r) + " unreadable");
            else if (off)
                fail(std::string(where) + ": region " + std::to_string(r) +
                     " diverges from model at byte " + std::to_string(*off) +
                     " (got " + std::to_string(got) + ", want " +
                     std::to_string(want[*off]) + ")");
        }
    };

    std::uint64_t next_tag = 0;
    auto driver = [&]() -> sim::Task {
        for (const WorkloadOp &op : w.ops) {
            if (op.delay_us != 0)
                co_await sim::Delay{kernel.eq(),
                                    sim::microseconds(op.delay_us)};
            MemifUser &u = user_for(tenant_of(op), op.cpu);
            switch (op.kind) {
                case OpKind::kMov:
                case OpKind::kMovMany: {
                    std::vector<std::uint32_t> idxs;
                    for (const MovSpec &m : op.movs) {
                        std::uint32_t idx;
                        // At capacity: drain completions until a free
                        // slot appears (the region is finite).
                        while ((idx = u.alloc_request()) == kNoRequest) {
                            const std::uint32_t done =
                                u.retrieve_completed();
                            if (done != kNoRequest)
                                handle_completion(u, done);
                            else if (!retries.empty())
                                co_await drain_retries();
                            else
                                co_await u.poll();
                        }
                        MovReq &req = u.request(idx);
                        req.op = m.op;
                        req.src_base =
                            bases[m.src_region] +
                            std::uint64_t{m.src_page} * pbs[m.src_region];
                        req.num_pages = m.num_pages;
                        // Strided geometry (zero for flat specs; the
                        // slot is recycled, so always overwrite).
                        req.rows = m.rows;
                        req.row_bytes = m.row_bytes;
                        req.src_pitch = m.src_pitch;
                        req.dst_pitch = m.dst_pitch;
                        req.gather_list = 0;
                        req.user_tag = next_tag++;
                        if (m.op == MovOp::kMigrate)
                            // Far-bound movs exist only on far-capable
                            // machines; elsewhere the flag degrades to
                            // the slow node and the workload replays
                            // identically to its pre-tiered form.
                            req.dst_node =
                                m.to_fast ? kernel.fast_node()
                                : m.to_far && kernel.has_far_node()
                                    ? kernel.far_node()
                                    : kernel.slow_node();
                        else
                            req.dst_base = bases[m.dst_region] +
                                           std::uint64_t{m.dst_page} *
                                               pbs[m.dst_region];
                        switch (m.malform) {
                            case Malform::kUnmappedSrc:
                                req.src_base = 0x7FDE'AD00'0000ull;
                                break;
                            case Malform::kBadNode:
                                req.op = MovOp::kMigrate;
                                req.dst_node = 0xBAD;
                                break;
                            case Malform::kZeroPages:
                                req.num_pages = 0;
                                break;
                            case Malform::kOverlap:
                                req.dst_base = req.src_base;
                                break;
                            case Malform::kTooManyPages:
                            case Malform::kZeroRowBytes:
                            case Malform::kPitchUnderRow:
                            case Malform::kNone:
                                break;
                        }
                        ++res.submitted;
                        idxs.push_back(idx);
                    }
                    if (op.kind == OpKind::kMov) {
                        for (const std::uint32_t idx : idxs)
                            co_await u.submit(idx);
                    } else {
                        co_await u.submit_many(idxs);
                    }
                    break;
                }
                case OpKind::kTouch: {
                    os::TouchOutcome out;
                    co_await proc_for_region(op.touch.region)
                        .touch(bases[op.touch.region] +
                                   std::uint64_t{op.touch.page} *
                                       pbs[op.touch.region],
                               op.touch.write, &out);
                    break;
                }
                case OpKind::kBarrier: {
                    while (res.completed < res.submitted) {
                        const std::uint32_t idx =
                            users[0]->retrieve_completed();
                        if (idx != kNoRequest)
                            handle_completion(*users[0], idx);
                        else if (!retries.empty())
                            co_await drain_retries();
                        else
                            co_await users[0]->poll();
                    }
                    check_memory("barrier");
                    break;
                }
            }
        }
    };
    auto task = driver();
    kernel.run();

    if (!task.done()) {
        fail("driver coroutine never finished (lost wakeup?)");
        return res;
    }
    task.rethrow_if_failed();
    res.end_time = kernel.eq().now();

    if (res.completed != res.submitted)
        fail("only " + std::to_string(res.completed) + " of " +
             std::to_string(res.submitted) + " requests completed");
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        if (!outcomes[i].seen)
            fail("mov #" + std::to_string(i) + " never completed");

    // Quiescence invariants: the workload drained everything, so the
    // driver must be back to its empty state and physical-frame
    // accounting must balance (parked magazine frames excepted).
    if (!dev.idle()) fail("device not idle after final barrier");
    std::string why;
    if (!dev.check_quiesced(&why)) fail("check_quiesced: " + why);
    const std::uint64_t outstanding = kernel.phys().outstanding_pages();
    const std::uint64_t parked = dev.magazine_pages();
    if (outstanding != baseline + parked)
        fail("frame leak: outstanding " + std::to_string(outstanding) +
             " != baseline " + std::to_string(baseline) + " + parked " +
             std::to_string(parked));

    check_memory("final");
    res.stats = dev.stats();

    // Digests (computed even for failed runs; useful in diagnostics).
    // Chunks are multiples of 8 bytes, so folding them one by one gives
    // the digest of the whole region.
    std::uint64_t mem_h = kDigestSeed;
    for (std::uint32_t r = 0; r < w.regions.size(); ++r) {
        std::uint64_t h = mem_h;
        if (read_region(r, [&](std::uint64_t, const std::uint8_t *live,
                               std::uint64_t n) {
                h = digest_bytes(h, live, n);
            }))
            mem_h = h;
    }
    res.mem_digest = mem_h;
    std::uint64_t full_h = mem_h;
    fold_word(full_h, res.end_time);
    fold_word(full_h, res.submitted);
    for (const Outcome &o : outcomes) {
        fold_word(full_h, static_cast<std::uint64_t>(o.st));
        fold_word(full_h, static_cast<std::uint64_t>(o.err));
    }
    res.full_digest = full_h;
    return res;
}

}  // namespace memif::check
