/**
 * @file
 * The host-side byte copier behind every simulated copy: the DMA
 * engine's descriptors, the CPU fallback and page migration all land
 * their bytes here.
 *
 * Each simulation thread has a FIFO of posted spans. post_copy() puts a
 * span of kParallelCopyMin bytes or more on it and returns; a smaller
 * copy is a plain memcpy while the FIFO is empty and queues behind it
 * otherwise. Spans land strictly in post order: a small process-wide
 * set of copier threads, and the owner while it waits, copy the head
 * span of a FIFO in kCopyChunk-byte chunks, and the next span opens
 * only once every chunk of the head has landed. Every later byte access
 * waits first (wait_copies(), called by each PhysicalMemory accessor),
 * so a reader sees exactly the bytes a serial copy would have left.
 *
 * Copier threads touch bytes and nothing else: no event queue, Task,
 * tracer or stats, so virtual time and every counter are the same as
 * with a serial memcpy (see docs/INTERNALS.md §3, "host threads copy
 * bytes, nothing else").
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace memif::mem {

/** Spans at least this long are posted and start the copier threads. */
inline constexpr std::size_t kParallelCopyMin = std::size_t{256} << 10;
/** Bytes one thread claims at a time from a posted span. */
inline constexpr std::size_t kCopyChunk = std::size_t{64} << 10;
/** The process runs min(host cores, kCopyCoreCap) - 1 copier threads:
 *  with the simulation thread that is one core left free for the rest
 *  of the host (with every core copying, the gain turned erratic). */
inline constexpr unsigned kCopyCoreCap = 4;
/** Spans one thread's FIFO holds; a post to a full FIFO first waits
 *  for its oldest span to land. */
inline constexpr std::size_t kLaneDepth = 8;

/**
 * Land @p n bytes from @p src at @p dst in order with every earlier
 * post from this thread. A span of kParallelCopyMin or more goes on
 * this thread's FIFO and the call returns at once; a smaller one is
 * copied inline while the FIFO is empty and queues behind it otherwise.
 * The bytes are there for this thread once wait_copies() returns. Both
 * ranges must stay valid, and untouched by anyone else, until then.
 * Overlapping ranges land as memmove would leave them.
 */
void post_copy(std::byte *dst, const std::byte *src, std::size_t n);

/**
 * Return once every span this thread has posted has landed. The caller
 * copies chunks of its own head span while it waits, so with no copier
 * thread running it lands every span itself.
 */
void wait_copies();

/** Copy @p n bytes from @p src to @p dst and return once they have
 *  landed: post_copy() then wait_copies(). */
void copy_bytes(std::byte *dst, const std::byte *src, std::size_t n);

/**
 * Let at most @p n copier threads take chunks from this thread's FIFO
 * (all of them until this is called; 0 leaves every span to this
 * thread's waits). Tests use it to reach either side of the protocol on
 * any host; the simulator never calls it.
 */
void set_copier_limit(unsigned n);

/** Copier threads started so far in this process (they start at the
 *  first post of kParallelCopyMin bytes or more, from any thread). */
unsigned copiers_started();

/** Spans queued on a FIFO so far in this process. */
std::uint64_t copies_posted();

/** Spans whose last chunk a waiting owner landed, so far in this
 *  process. */
std::uint64_t copies_landed_by_waiters();

}  // namespace memif::mem
