/**
 * @file
 * Synchronization primitives for simulated tasks.
 *
 *  - SimEvent:  a level-triggered completion flag (like a kernel completion
 *               or an eventfd). Tasks await it; set() wakes all waiters.
 *  - WaitQueue: an edge-triggered wait list (like a kernel wait queue).
 *               Tasks sleep on it; notify_one()/notify_all() wake them.
 *
 * All primitives are single-(host-)threaded and interact only with the
 * EventQueue; wakeups are delivered as zero-delay events so that the waker
 * finishes its current step before any woken task runs.
 */
#pragma once

#include <coroutine>
#include <deque>
#include <vector>

#include "sim/event_queue.h"
#include "sim/task.h"
#include "sim/types.h"

namespace memif::sim {

/**
 * Level-triggered event. wait() completes immediately when already set;
 * reset() rearms it.
 */
class SimEvent {
  public:
    explicit SimEvent(EventQueue &eq) : eq_(eq) {}
    SimEvent(const SimEvent &) = delete;
    SimEvent &operator=(const SimEvent &) = delete;

    /** True while the event is signalled. */
    bool is_set() const { return set_; }

    /** Signal the event, waking every waiter. */
    void
    set()
    {
        set_ = true;
        wake_all();
    }

    /** Clear the signal; future wait()s block again. */
    void reset() { set_ = false; }

    struct Awaiter {
        SimEvent &ev;
        bool await_ready() const noexcept { return ev.set_; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            ev.waiters_.push_back(Waiter{h, detail::liveness_of(h)});
        }
        void await_resume() const noexcept {}
    };

    /** Awaitable: suspend until the event is set. */
    Awaiter wait() { return Awaiter{*this}; }

    /** Number of tasks currently blocked. */
    std::size_t waiter_count() const { return waiters_.size(); }

  private:
    friend struct Awaiter;
    struct Waiter {
        std::coroutine_handle<> handle;
        detail::Liveness alive;
    };

    void
    wake_all()
    {
        // Wakeups are queued, not run: no woken task can wait() again
        // before the list is cleared, and clear() keeps the capacity
        // for the next round of waiters.
        for (const Waiter &w : waiters_)
            detail::schedule_resume(eq_, 0, w.handle, w.alive);
        waiters_.clear();
    }

    EventQueue &eq_;
    bool set_ = false;
    std::vector<Waiter> waiters_;
};

/**
 * Edge-triggered wait list. A wait() always blocks until a subsequent
 * notify; there is no memory. Use it for "sleep until kicked" patterns
 * such as kernel threads.
 */
class WaitQueue {
  public:
    explicit WaitQueue(EventQueue &eq) : eq_(eq) {}
    WaitQueue(const WaitQueue &) = delete;
    WaitQueue &operator=(const WaitQueue &) = delete;

    struct Awaiter {
        WaitQueue &wq;
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            wq.waiters_.push_back(Waiter{h, detail::liveness_of(h)});
        }
        void await_resume() const noexcept {}
    };

    /** Awaitable: sleep until notified. */
    Awaiter wait() { return Awaiter{*this}; }

    /** Wake the longest-sleeping waiter, if any. @return true if woken. */
    bool
    notify_one()
    {
        while (!waiters_.empty()) {
            const Waiter w = waiters_.front();
            waiters_.pop_front();
            if (!detail::liveness_table().alive(w.alive))
                continue;  // task died while asleep
            detail::schedule_resume(eq_, 0, w.handle, w.alive);
            return true;
        }
        return false;
    }

    /** Wake all waiters. @return the number woken. */
    std::size_t
    notify_all()
    {
        std::size_t n = 0;
        while (notify_one()) ++n;
        return n;
    }

    /** Number of tasks currently asleep. */
    std::size_t waiter_count() const { return waiters_.size(); }

  private:
    friend struct Awaiter;
    struct Waiter {
        std::coroutine_handle<> handle;
        detail::Liveness alive;
    };

    EventQueue &eq_;
    std::deque<Waiter> waiters_;
};

/**
 * Wait until ANY of @p events is set — the poll(2)/select(2) analogue
 * the paper's Figure 2 relies on ("applications can blocking wait for
 * memif notifications and other types of I/O events at the same
 * time"). Relay tasks guard each event; when the first fires, the
 * others' pending wakeups are disarmed by task-liveness guards.
 *
 * @return (via out param) the index of a set event.
 */
inline Task
wait_any(EventQueue &eq, std::vector<SimEvent *> events,
         std::size_t *which = nullptr)
{
    MEMIF_ASSERT(!events.empty(), "wait_any on nothing");
    SimEvent any(eq);
    auto relay = [](SimEvent &event, SimEvent &any_event) -> Task {
        co_await event.wait();
        any_event.set();
    };
    std::vector<Task> relays;
    relays.reserve(events.size());
    for (SimEvent *e : events) relays.push_back(relay(*e, any));
    co_await any.wait();
    if (which) {
        *which = 0;
        for (std::size_t i = 0; i < events.size(); ++i)
            if (events[i]->is_set()) {
                *which = i;
                break;
            }
    }
    // relays destroyed here; unsignalled events drop their waiters.
}

}  // namespace memif::sim
