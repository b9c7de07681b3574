#include "sim/event_queue.h"

#include <utility>

#include "sim/log.h"

namespace memif::sim {

EventQueue::EventId
EventQueue::schedule_at(SimTime when, Callback cb)
{
    MEMIF_ASSERT(cb != nullptr);
    if (when < now_) when = now_;  // never schedule into the past
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    Slot &s = slots_[slot];
    s.cb = std::move(cb);
    s.armed = true;
    const std::uint64_t seq = next_seq_++;
    const std::uint64_t key = fuzzing_ ? tie_rng_.next() : seq;
    heap_.push(Key{when, key, seq, slot});
    ++live_;
    return (EventId{s.generation} << 32) | slot;
}

EventQueue::EventId
EventQueue::schedule_after(Duration delay, Callback cb)
{
    return schedule_at(now_ + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    // The key stays in the heap (middle removal is not worth it);
    // skip_cancelled() discards it when it surfaces, without touching
    // the clock, and only then recycles the slot.
    const auto slot = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size()) return false;
    Slot &s = slots_[slot];
    if (!s.armed || s.generation != static_cast<std::uint32_t>(id >> 32))
        return false;
    s.armed = false;
    --live_;
    return true;
}

void
EventQueue::release_slot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.cb = nullptr;
    s.armed = false;
    ++s.generation;
    free_slots_.push_back(slot);
}

void
EventQueue::skip_cancelled()
{
    while (!heap_.empty() && !slots_[heap_.top().slot].armed) {
        const std::uint32_t slot = heap_.top().slot;
        heap_.pop();
        release_slot(slot);
    }
}

bool
EventQueue::step()
{
    skip_cancelled();
    if (heap_.empty()) return false;
    const Key top = heap_.top();
    heap_.pop();
    // Move the callback out and recycle the slot before running it, so
    // the event may schedule new events (which may reuse the slot).
    Callback cb = std::move(slots_[top.slot].cb);
    release_slot(top.slot);
    --live_;
    MEMIF_ASSERT(top.when >= now_);
    now_ = top.when;
    ++executed_;
    cb();
    return true;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
}

std::uint64_t
EventQueue::run_until(SimTime deadline)
{
    std::uint64_t n = 0;
    for (;;) {
        skip_cancelled();
        if (heap_.empty() || heap_.top().when > deadline) break;
        step();
        ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
}

}  // namespace memif::sim
