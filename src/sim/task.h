/**
 * @file
 * C++20 coroutine tasks for the discrete-event simulator.
 *
 * A simulated "thread of control" (an application thread, a kernel thread,
 * an interrupt handler body) is written as a coroutine returning
 * sim::Task. Inside, it awaits:
 *
 *   - sim::Delay{eq, ns}      advance virtual time (optionally charging CPU)
 *   - sim::SimEvent::wait()   block until another task signals (sync.h)
 *   - another sim::Task       join a child task
 *
 * Tasks start eagerly: the coroutine body runs synchronously until its
 * first suspension point. Completion is observable through done() and by
 * co_await-ing the Task. A Task object owns the coroutine frame; destroying
 * a still-suspended Task destroys the frame (any event that would have
 * resumed it is disarmed through a liveness token, so stray callbacks in
 * the event queue are harmless).
 *
 * Liveness tokens are (slot, generation) pairs in a per-thread table: a
 * frame holds a slot for its lifetime and destroying it bumps the slot's
 * generation, so a token taken earlier no longer matches even after a
 * new frame reuses the slot. Frames come from per-thread size-classed
 * free lists. Both are thread-local, so a Task must be created, resumed
 * and destroyed on one host thread (the simulator is single-threaded).
 */
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/types.h"

namespace memif::sim {

namespace detail {

/** A Task frame's liveness token: its slot in the thread's
 *  LivenessTable and the slot's generation when the token was taken.
 *  16 bytes with a coroutine handle, so a resume capture stays inside
 *  std::function's inline buffer. */
struct Liveness {
    std::uint32_t slot;
    std::uint32_t generation;
};

/** Per-thread generation table behind the liveness tokens. */
class LivenessTable {
  public:
    /** Claim a slot for a new frame. */
    std::uint32_t
    acquire()
    {
        if (free_.empty()) {
            generation_.push_back(0);
            return static_cast<std::uint32_t>(generation_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }

    /** The frame in @p slot is gone: invalidate its tokens. */
    void
    release(std::uint32_t slot)
    {
        ++generation_[slot];
        free_.push_back(slot);
    }

    Liveness
    token(std::uint32_t slot) const
    {
        return {slot, generation_[slot]};
    }

    bool
    alive(Liveness t) const
    {
        return generation_[t.slot] == t.generation;
    }

  private:
    std::vector<std::uint32_t> generation_;
    std::vector<std::uint32_t> free_;
};

inline LivenessTable &
liveness_table()
{
    thread_local LivenessTable table;
    return table;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEMIF_SIM_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MEMIF_SIM_FRAME_POOL 0
#endif
#endif
#ifndef MEMIF_SIM_FRAME_POOL
#define MEMIF_SIM_FRAME_POOL 1
#endif

/**
 * Per-thread free lists of coroutine frames, one per 64-byte size
 * class up to 4 KB (larger frames go straight to ::operator new). A
 * freed frame is kept for the next frame of its class and never
 * returned. Under ASan/TSan every frame is a plain ::operator new, so
 * the sanitizer still sees a use-after-free of a frame.
 */
class FramePool {
  public:
    void *
    allocate(std::size_t bytes)
    {
        const std::size_t c = size_class(bytes);
        if (c >= kClasses) return ::operator new(bytes);
        if (FreeFrame *f = free_[c]) {
            free_[c] = f->next;
            return f;
        }
        return ::operator new(c * kGranule);
    }

    void
    deallocate(void *p, std::size_t bytes) noexcept
    {
        const std::size_t c = size_class(bytes);
        if (c >= kClasses) {
            ::operator delete(p);
            return;
        }
        auto *f = static_cast<FreeFrame *>(p);
        f->next = free_[c];
        free_[c] = f;
    }

  private:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kClasses = 65;  // classes 1..64
    static constexpr std::size_t
    size_class(std::size_t bytes)
    {
        return (bytes + kGranule - 1) / kGranule;
    }

    struct FreeFrame {
        FreeFrame *next;
    };
    FreeFrame *free_[kClasses] = {};
};

/** Trivially destructible, so frames freed late in thread exit still
 *  find their list. */
constinit inline thread_local FramePool frame_pool;

}  // namespace detail

/**
 * An eagerly-started, joinable coroutine task with void result.
 *
 * Move-only. Exactly one awaiter may co_await a given task.
 */
class [[nodiscard]] Task {
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type {
        /** Set once the coroutine runs to completion. */
        bool done = false;
        /** Coroutine waiting on us via co_await, if any. */
        std::coroutine_handle<> continuation;
        /** Captured exception, rethrown at the join point. */
        std::exception_ptr error;
        /** This frame's slot in the thread's LivenessTable; released
         *  (invalidating every token) when the frame is destroyed. */
        std::uint32_t live_slot = detail::liveness_table().acquire();

        promise_type() = default;
        promise_type(const promise_type &) = delete;
        promise_type &operator=(const promise_type &) = delete;
        ~promise_type() { detail::liveness_table().release(live_slot); }

#if MEMIF_SIM_FRAME_POOL
        static void *
        operator new(std::size_t bytes)
        {
            return detail::frame_pool.allocate(bytes);
        }
        static void
        operator delete(void *p, std::size_t bytes) noexcept
        {
            detail::frame_pool.deallocate(p, bytes);
        }
#endif

        Task get_return_object() { return Task{Handle::from_promise(*this)}; }
        std::suspend_never initial_suspend() noexcept { return {}; }

        struct FinalAwaiter {
            bool await_ready() noexcept { return false; }
            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                promise_type &p = h.promise();
                p.done = true;
                if (p.continuation) return p.continuation;
                return std::noop_coroutine();
            }
            void await_resume() noexcept {}
        };
        FinalAwaiter final_suspend() noexcept { return {}; }

        void return_void() {}
        void
        unhandled_exception()
        {
            error = std::current_exception();
        }
    };

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}
    Task(Task &&other) noexcept : handle_(std::exchange(other.handle_, {})) {}
    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, {});
        }
        return *this;
    }
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    ~Task() { destroy(); }

    /** True if no coroutine is attached (moved-from or default). */
    bool empty() const { return !handle_; }

    /** True once the coroutine body has run to completion. */
    bool done() const { return handle_ && handle_.promise().done; }

    /**
     * Rethrow any exception the task captured. Call after done(); joining
     * via co_await does this automatically.
     */
    void
    rethrow_if_failed() const
    {
        if (handle_ && handle_.promise().error)
            std::rethrow_exception(handle_.promise().error);
    }

    /** Awaiter: suspend the caller until this task completes. */
    struct JoinAwaiter {
        Handle handle;
        bool await_ready() const noexcept { return handle.promise().done; }
        void
        await_suspend(std::coroutine_handle<> caller) noexcept
        {
            MEMIF_ASSERT(!handle.promise().continuation,
                         "a Task may only be awaited once");
            handle.promise().continuation = caller;
        }
        void
        await_resume() const
        {
            if (handle.promise().error)
                std::rethrow_exception(handle.promise().error);
        }
    };
    JoinAwaiter
    operator co_await() const
    {
        MEMIF_ASSERT(handle_, "awaiting an empty Task");
        return JoinAwaiter{handle_};
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();  // the promise disarms pending resumes
            handle_ = {};
        }
    }

    Handle handle_;
};

/**
 * Drop the finished tasks in @p tasks, rethrowing the first failure one
 * of them stored. Unfinished tasks keep their frames in place.
 */
inline void
reap_finished(std::vector<Task> &tasks)
{
    std::erase_if(tasks, [](const Task &t) {
        if (!t.done()) return false;
        t.rethrow_if_failed();
        return true;
    });
}

namespace detail {

/**
 * Fetch the liveness token of the coroutine identified by @p h, assuming it
 * is a Task coroutine. Awaitables use this so a resume scheduled in the
 * event queue becomes a no-op if the frame has been destroyed meanwhile.
 */
inline Liveness
liveness_of(std::coroutine_handle<> h)
{
    auto typed = Task::Handle::from_address(h.address());
    return liveness_table().token(typed.promise().live_slot);
}

/** Schedule a liveness-guarded resume of @p h, identified by @p live,
 *  after @p delay. The capture is 16 trivially-copyable bytes, so
 *  std::function stores it without allocating. */
inline void
schedule_resume(EventQueue &eq, Duration delay, std::coroutine_handle<> h,
                Liveness live)
{
    eq.schedule_after(delay, [h, live] {
        if (liveness_table().alive(live)) h.resume();
    });
}

/** Schedule a liveness-guarded resume of @p h after @p delay. */
inline void
schedule_resume(EventQueue &eq, Duration delay, std::coroutine_handle<> h)
{
    schedule_resume(eq, delay, h, liveness_of(h));
}

}  // namespace detail

/**
 * Awaitable that advances virtual time by a fixed duration.
 *
 * `co_await Delay{eq, microseconds(3)};`
 */
struct Delay {
    EventQueue &eq;
    Duration amount;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<> h) const
    {
        detail::schedule_resume(eq, amount, h);
    }
    void await_resume() const noexcept {}
};

}  // namespace memif::sim
