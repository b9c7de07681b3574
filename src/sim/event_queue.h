/**
 * @file
 * The discrete-event core: a virtual clock plus a priority queue of
 * timestamped callbacks.
 *
 * Ordering guarantee: events scheduled for the same instant fire in
 * FIFO order by default — each event carries a monotonically increasing
 * sequence number assigned at schedule time, and the dispatch order is
 * (timestamp, sequence). The tie-break is total and stable, so two runs
 * of the same program are event-for-event identical; nothing about the
 * dispatch order depends on heap internals, iteration order, or host
 * addresses. Code may rely on it: an event scheduled before another at
 * the same timestamp runs first.
 *
 * The schedule fuzzer (src/check) deliberately perturbs exactly — and
 * only — this tie-break: set_tie_break_seed() makes same-timestamp
 * events dispatch in a seeded pseudo-random order instead of FIFO.
 * Cross-timestamp ordering is never affected, and a given seed always
 * produces the same permutation, so any interleaving found by the
 * fuzzer replays deterministically from its seed.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/random.h"
#include "sim/types.h"

namespace memif::sim {

/**
 * A deterministic discrete-event queue with a virtual clock.
 *
 * The queue is single-threaded by design: all simulated concurrency
 * (kernel threads, interrupt handlers, DMA completions) is expressed as
 * interleaved events on one host thread.
 */
class EventQueue {
  public:
    using Callback = std::function<void()>;
    /**
     * Handle for cancelling a scheduled event: `(generation << 32) |
     * slot`. A slot is recycled once its event runs or surfaces
     * cancelled, and recycling bumps its generation, so a stale id
     * never matches the slot's next occupant.
     */
    using EventId = std::uint64_t;
    static constexpr EventId kInvalidEvent = ~EventId{0};

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current virtual time. */
    SimTime now() const { return now_; }

    /** Schedule @p cb to run at absolute virtual time @p when.
     *  @return an id usable with cancel(). */
    EventId schedule_at(SimTime when, Callback cb);

    /** Schedule @p cb to run @p delay after the current time. */
    EventId schedule_after(Duration delay, Callback cb);

    /**
     * Cancel a scheduled event. A cancelled event neither runs nor
     * advances the virtual clock — as if it were never scheduled
     * (watchdog timers disarm without stretching the simulation).
     * @return false if the event already ran, was already cancelled,
     * or never existed.
     */
    bool cancel(EventId id);

    /** True when no live (uncancelled) events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of pending live events. */
    std::size_t pending() const { return live_; }

    /**
     * Run the single earliest event, advancing the clock to its timestamp.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run events until the queue drains.
     * @return the number of events executed.
     */
    std::uint64_t run();

    /**
     * Run events with timestamps <= @p deadline; the clock ends at
     * min(deadline, time of last event) and never goes backwards.
     * @return the number of events executed.
     */
    std::uint64_t run_until(SimTime deadline);

    /** Total events executed since construction. */
    std::uint64_t events_executed() const { return executed_; }

    /**
     * Schedule-fuzzer hook: dispatch same-timestamp events in a seeded
     * pseudo-random order instead of FIFO. Each event scheduled from
     * now on draws a random tie-break key from a stream seeded with
     * @p seed (sequence number remains the final tie-break, so the
     * order stays total and a seed always reproduces the same
     * permutation). Events already in the queue keep their FIFO keys.
     * Cross-timestamp ordering is unaffected.
     */
    void
    set_tie_break_seed(std::uint64_t seed)
    {
        fuzzing_ = true;
        tie_rng_ = Rng(seed);
    }

    /** Restore the default FIFO tie-break for newly scheduled events. */
    void
    clear_tie_break()
    {
        fuzzing_ = false;
    }

    /** True while the fuzzer tie-break is active. */
    bool tie_break_fuzzed() const { return fuzzing_; }

  private:
    /**
     * Heap entry: plain data, so sifting moves 32 bytes and never a
     * callback. Dispatch order is (when, key, seq).
     */
    struct Key {
        SimTime when;
        /** Tie-break among same-timestamp events: == seq (FIFO) by
         *  default, a seeded random draw under the schedule fuzzer. */
        std::uint64_t key;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    struct Later {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when) return a.when > b.when;
            if (a.key != b.key) return a.key > b.key;
            return a.seq > b.seq;
        }
    };
    /** Callback storage, recycled through free_slots_. */
    struct Slot {
        Callback cb;
        std::uint32_t generation = 0;
        /** Scheduled and neither run nor cancelled. A cancelled event
         *  keeps its slot until its key surfaces from the heap. */
        bool armed = false;
    };

    /** Pop cancelled events off the top without advancing the clock. */
    void skip_cancelled();
    /** Return @p slot to the free list under a new generation. */
    void release_slot(std::uint32_t slot);

    std::priority_queue<Key, std::vector<Key>, Later> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    /** Scheduled-but-not-run events (excludes cancelled ones). */
    std::size_t live_ = 0;
    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    bool fuzzing_ = false;
    Rng tie_rng_;
};

}  // namespace memif::sim
