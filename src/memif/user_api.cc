#include "memif/user_api.h"

#include "sim/cost_model.h"
#include "sim/log.h"

namespace memif::core {

using lockfree::Color;
using lockfree::DequeueResult;

void
MemifUser::charge_queue_op(std::uint64_t n)
{
    dev_.kernel().cpu().charge(sim::ExecContext::kUser, sim::Op::kQueue,
                               n * dev_.kernel().costs().queue_op);
}

std::uint32_t
MemifUser::alloc_request()
{
    const DequeueResult d = region_.free_queue().dequeue();
    charge_queue_op();
    if (!d.ok) return kNoRequest;
    MovReq &req = region_.request(d.value);
    req.store_status(MovStatus::kOwned);
    req.error = MovError::kNone;
    req.clear_params();
    return d.value;
}

void
MemifUser::free_request(std::uint32_t idx)
{
    MovReq &req = region_.request(idx);
    MEMIF_ASSERT(req.load_status() != MovStatus::kFree, "double free_request");
    req.store_status(MovStatus::kFree);
    region_.free_queue().enqueue(idx);
    charge_queue_op();
}

sim::Task
MemifUser::submit(std::uint32_t idx, bool *kicked)
{
    ++stats_.submits;
    if (kicked) *kicked = false;

    MovReq &req = region_.request(idx);
    req.submit_time = dev_.kernel().eq().now();
    req.submit_cpu = cpu_id_;
    req.asid = asid_;
    // Admission control runs here, in the caller's context, before the
    // request becomes visible to the kernel: a rejected request is
    // completed as kFailed/kNoSpace immediately (with a retry-after
    // hint) and never enters a queue.
    if (!dev_.admit_request(idx)) {
        ++stats_.rejected;
        co_return;
    }
    req.store_status(MovStatus::kSubmitted);
    dev_.kernel().tracer().record(req.submit_time, sim::TracePoint::kSubmit,
                                  sim::ExecContext::kUser, idx);

    if (region_.num_rings() > 0) {
        // Per-CPU rings: deposit in OUR ring — no other CPU touches it,
        // so no contention retry can occur. The §4.4 color protocol is
        // applied per ring: blue means the kernel thread is asleep and
        // this depositor must flush, recolor red, and kick (once per
        // idle period per ring).
        const std::uint32_t r = my_ring();
        lockfree::RedBlueQueue ring = region_.ring_queue(r);
        lockfree::RedBlueQueue submission = region_.submission_queue();
        const Color color = ring.enqueue(idx);
        charge_queue_op();
        ++dev_.stats_.ring_submits[r];
        if (color != Color::kBlue) co_return;  // kernel awake
        for (;;) {
            for (;;) {
                const DequeueResult d = ring.dequeue();
                charge_queue_op();
                if (!d.ok) break;
                submission.enqueue(d.value);
                charge_queue_op();
                ++stats_.flush_moves;
            }
            const int old = ring.set_color(Color::kRed);
            charge_queue_op();
            if (old == lockfree::kColorBusy) continue;
            if (old == static_cast<int>(Color::kRed))
                co_return;  // raced: someone else kicked
            break;  // we won the blue->red flip
        }
        ++stats_.kicks;
        if (kicked) *kicked = true;
        co_await dev_.ioctl_mov_one();
        co_return;
    }

    // Classic single shared deposit path: concurrent submitters from
    // different CPUs contend on the staging queue's tail CAS.
    dev_.kernel().cpu().charge(sim::ExecContext::kUser, sim::Op::kQueue,
                               dev_.shared_submit_penalty(cpu_id_));

    lockfree::RedBlueQueue staging = region_.staging_queue();
    lockfree::RedBlueQueue submission = region_.submission_queue();

    // The §4.4 protocol, verbatim: deposit in staging; the color
    // observed atomically with the enqueue says who flushes.
    const Color color = staging.enqueue(idx);
    charge_queue_op();
    if (color != Color::kBlue) co_return;  // kernel will flush (red)

    for (;;) {
        // Flush everything from staging to submission.
        for (;;) {
            const DequeueResult d = staging.dequeue();
            charge_queue_op();
            if (!d.ok) break;
            submission.enqueue(d.value);
            charge_queue_op();
            ++stats_.flush_moves;
        }
        // Hand the queue to the kernel. Failure = someone enqueued
        // behind us: flush again.
        const int old = staging.set_color(Color::kRed);
        charge_queue_op();
        if (old == lockfree::kColorBusy) continue;
        if (old == static_cast<int>(Color::kRed)) co_return;  // raced: kicked
        break;  // we won the blue->red flip
    }

    // Exactly one thread per idle period reaches this point (§4.4).
    ++stats_.kicks;
    if (kicked) *kicked = true;
    co_await dev_.ioctl_mov_one();
}

sim::Task
MemifUser::submit_many(const std::vector<std::uint32_t> &idxs, bool *kicked)
{
    if (kicked) *kicked = false;
    if (idxs.empty()) co_return;
    stats_.submits += idxs.size();
    ++stats_.batch_submits;

    const bool rings = region_.num_rings() > 0;
    const std::uint32_t r = rings ? my_ring() : 0;
    lockfree::RedBlueQueue deposit =
        rings ? region_.ring_queue(r) : region_.staging_queue();
    lockfree::RedBlueQueue submission = region_.submission_queue();

    if (!rings)
        dev_.kernel().cpu().charge(sim::ExecContext::kUser, sim::Op::kQueue,
                                   dev_.shared_submit_penalty(cpu_id_));

    // Deposit the whole batch first; any blue observation means flush
    // responsibility landed on us (at most once for the batch).
    bool saw_blue = false;
    for (const std::uint32_t idx : idxs) {
        MovReq &req = region_.request(idx);
        req.submit_time = dev_.kernel().eq().now();
        req.submit_cpu = cpu_id_;
        req.asid = asid_;
        if (!dev_.admit_request(idx)) {
            ++stats_.rejected;
            continue;
        }
        req.store_status(MovStatus::kSubmitted);
        dev_.kernel().tracer().record(req.submit_time,
                                      sim::TracePoint::kSubmit,
                                      sim::ExecContext::kUser, idx);
        const Color color = deposit.enqueue(idx);
        charge_queue_op();
        if (rings) ++dev_.stats_.ring_submits[r];
        if (color == Color::kBlue) saw_blue = true;
    }
    if (!saw_blue) co_return;  // kernel will flush (red)

    for (;;) {
        for (;;) {
            const DequeueResult d = deposit.dequeue();
            charge_queue_op();
            if (!d.ok) break;
            submission.enqueue(d.value);
            charge_queue_op();
            ++stats_.flush_moves;
        }
        const int old = deposit.set_color(Color::kRed);
        charge_queue_op();
        if (old == lockfree::kColorBusy) continue;
        if (old == static_cast<int>(Color::kRed)) co_return;  // raced
        break;
    }

    // One crossing for the whole batch; the worker drains the rest.
    ++stats_.kicks;
    if (kicked) *kicked = true;
    co_await dev_.ioctl_mov_one();
}

std::uint32_t
MemifUser::retrieve_completed()
{
    DequeueResult d = region_.completion_ok_queue().dequeue();
    charge_queue_op();
    if (!d.ok) {
        d = region_.completion_err_queue().dequeue();
        charge_queue_op();
    }
    if (!d.ok) {
        // Nothing pending: rearm the poll event.
        dev_.completion_event().reset();
        return kNoRequest;
    }
    ++stats_.completions;
    return d.value;
}

sim::Task
MemifUser::poll()
{
    ++stats_.polls;
    os::Kernel &k = dev_.kernel();
    // poll() is a syscall: charge the crossing and sleep on the device
    // file's wait queue until a notification is (or already was) posted.
    co_await k.cpu().busy(sim::ExecContext::kSyscall, sim::Op::kSyscall,
                          k.costs().poll_syscall);
    co_await dev_.completion_event().wait();
}

}  // namespace memif::core
