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
 * Helpers touch bytes and nothing else: no event queue, Task, tracer
 * or stats, so virtual time and every counter are the same as with a
 * serial memcpy (see docs/INTERNALS.md §3, "host threads copy bytes,
 * nothing else").
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

}  // namespace memif::mem
