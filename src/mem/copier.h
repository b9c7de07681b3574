/**
 * @file
 * The host-side byte copier behind every simulated copy: the DMA
 * engine's descriptors, the CPU fallback and page migration all land
 * their bytes through copy_bytes().
 *
 * A small copy is a plain memcpy on the calling thread. A span of
 * kParallelCopyMin bytes or more is cut into kCopyChunk-byte chunks
 * that the caller copies together with a small process-wide pool of
 * helper threads, and the call returns once every chunk has landed.
 *
 * The DMA engine does not wait for its large spans: post_copy() queues
 * one on the calling thread's copy lane, a bounded FIFO that one lane
 * thread drains through copy_bytes(), and returns. Every later byte
 * access waits for the lane first (wait_copies(), called by each
 * PhysicalMemory accessor), so a reader sees exactly the bytes a
 * synchronous copy would have left.
 *
 * Helpers and lane threads touch bytes and nothing else: no event
 * queue, Task, tracer or stats, so virtual time and every counter are
 * the same as with a serial memcpy (see docs/INTERNALS.md §3, "host
 * threads copy bytes, nothing else").
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace memif::mem {

/** Spans at least this long are split over the copy pool. */
inline constexpr std::size_t kParallelCopyMin = std::size_t{256} << 10;
/** Bytes one thread claims at a time from a split span. */
inline constexpr std::size_t kCopyChunk = std::size_t{64} << 10;
/** Threads that may copy one span at once, counting the caller, are
 *  min(host cores, kCopyCoreCap) - 1: one core stays free for the rest
 *  of the host (with every core copying, the gain turned erratic). */
inline constexpr unsigned kCopyCoreCap = 4;
/** Spans one copy lane holds; a post to a full lane first waits for
 *  its oldest span to land. */
inline constexpr std::size_t kLaneDepth = 8;

/**
 * Copy @p n bytes from @p src to @p dst. Spans of kParallelCopyMin or
 * more are split over the caller and the copy pool's helpers; a caller
 * that finds the pool busy with another span copies serially.
 * Overlapping ranges are copied serially with memmove.
 */
void copy_bytes(std::byte *dst, const std::byte *src, std::size_t n);

/**
 * copy_bytes() with an explicit helper count in place of the one the
 * host's core count gives (0 copies serially). Tests use it to run
 * helpers on any host; the simulator always calls the overload above.
 */
void copy_bytes(std::byte *dst, const std::byte *src, std::size_t n,
                unsigned helpers);

/** Helper threads started so far in this process (the pool starts at
 *  the first span that reaches kParallelCopyMin). */
unsigned copy_helpers_started();

/** Spans split over the pool so far in this process. */
std::uint64_t parallel_copies();

/**
 * Land @p n bytes from @p src at @p dst in order with every earlier
 * post from this thread. A span of kParallelCopyMin or more goes on
 * this thread's copy lane and the call returns at once; a smaller one
 * is copied inline while the lane is empty and queues behind it
 * otherwise. The bytes are there for this thread once wait_copies()
 * returns. Both ranges must stay valid, and untouched by anyone else,
 * until then.
 */
void post_copy(std::byte *dst, const std::byte *src, std::size_t n);

/**
 * post_copy() that, when @p wake is false, leaves a parked lane thread
 * asleep: the span then lands at the next wait_copies() or at a later
 * post that wakes the lane. Tests use it to reach a parked lane; the
 * simulator always calls the overload above.
 */
void post_copy(std::byte *dst, const std::byte *src, std::size_t n,
               bool wake);

/**
 * Return once every span this thread has posted has landed. While the
 * lane thread copies, the caller spins; a lane whose thread is parked
 * is drained by the caller itself, without waking the thread.
 */
void wait_copies();

/** Lane threads started so far in this process (one per thread that
 *  has posted a span of kParallelCopyMin or more). */
unsigned copy_lanes_started();

/** Copies queued on a lane so far in this process. */
std::uint64_t lane_posts();

/** Queued copies that a waiting thread landed itself, so far in this
 *  process. */
std::uint64_t lane_copies_by_waiters();

}  // namespace memif::mem
