/**
 * @file
 * EDMA3-style transfer descriptors (PaRAM entries).
 *
 * The TI EDMA3 exposes an array of 512 descriptors (Table 2), each a
 * 12-parameter command describing a three-dimensional copy; descriptors
 * chain through a link field to form scatter-gather transfers
 * (paper §5.3). Descriptor memory is uncached I/O space on the real
 * part, which is why writes to it dominate configuration cost — the
 * DescriptorRam therefore counts full and partial writes so the 4x
 * reuse saving is observable.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/log.h"

namespace memif::dma {

/** Index of a PaRAM entry. */
using DescIndex = std::uint16_t;
/** Link terminator, as on the real EDMA3. */
inline constexpr DescIndex kNullLink = 0xFFFF;

/**
 * One PaRAM entry. Field names follow the EDMA3 TRM: a transfer moves
 * CCNT frames of BCNT arrays of ACNT bytes, with the four index fields
 * giving the strides between arrays/frames on each side.
 */
struct TransferDescriptor {
    std::uint32_t opt = 0;        ///< options (interrupt enable, chaining)
    std::uint64_t src = 0;        ///< source physical byte address
    std::uint16_t a_cnt = 0;      ///< bytes per array
    std::uint16_t b_cnt = 0;      ///< arrays per frame
    std::uint64_t dst = 0;        ///< destination physical byte address
    std::int32_t src_bidx = 0;    ///< source array stride
    std::int32_t dst_bidx = 0;    ///< destination array stride
    DescIndex link = kNullLink;   ///< next PaRAM entry in the chain
    std::uint16_t bcnt_rld = 0;   ///< BCNT reload value
    std::int32_t src_cidx = 0;    ///< source frame stride
    std::int32_t dst_cidx = 0;    ///< destination frame stride
    std::uint16_t c_cnt = 0;      ///< frames

    /** Total bytes this descriptor moves. */
    std::uint64_t
    total_bytes() const
    {
        return std::uint64_t{a_cnt} * b_cnt * (c_cnt ? c_cnt : 1);
    }

    /**
     * Build a descriptor that copies @p bytes of physically contiguous
     * memory, packed as ACNT x BCNT arrays so page sizes above 64 KB
     * (beyond the 16-bit ACNT) still fit a single descriptor.
     */
    static TransferDescriptor
    contiguous(std::uint64_t src, std::uint64_t dst, std::uint64_t bytes)
    {
        TransferDescriptor d;
        d.src = src;
        d.dst = dst;
        if (bytes <= 0xFFFF) {
            d.a_cnt = static_cast<std::uint16_t>(bytes);
            d.b_cnt = 1;
        } else {
            MEMIF_ASSERT(bytes % 4096 == 0, "odd large transfer size");
            d.a_cnt = 4096;
            d.b_cnt = static_cast<std::uint16_t>(bytes / 4096);
            d.src_bidx = 4096;
            d.dst_bidx = 4096;
        }
        d.c_cnt = 1;
        d.bcnt_rld = d.b_cnt;
        return d;
    }

    /**
     * Build a 2D descriptor: @p rows arrays of @p row_bytes each, the
     * source arrays @p src_pitch bytes apart and the destination
     * arrays @p dst_pitch apart (A/B-count synchronized transfer).
     * Both endpoints must be physically contiguous across the whole
     * pitched extent; callers split at page boundaries first.
     */
    static TransferDescriptor
    strided(std::uint64_t src, std::uint64_t dst, std::uint64_t row_bytes,
            std::uint32_t rows, std::uint64_t src_pitch,
            std::uint64_t dst_pitch)
    {
        MEMIF_ASSERT(row_bytes > 0 && row_bytes <= 0xFFFF,
                     "row does not fit ACNT");
        MEMIF_ASSERT(rows > 0 && rows <= 0xFFFF, "rows do not fit BCNT");
        MEMIF_ASSERT(src_pitch <= 0x7FFFFFFF && dst_pitch <= 0x7FFFFFFF,
                     "pitch does not fit BIDX");
        TransferDescriptor d;
        d.src = src;
        d.dst = dst;
        d.a_cnt = static_cast<std::uint16_t>(row_bytes);
        d.b_cnt = static_cast<std::uint16_t>(rows);
        d.src_bidx = static_cast<std::int32_t>(src_pitch);
        d.dst_bidx = static_cast<std::int32_t>(dst_pitch);
        d.c_cnt = 1;
        d.bcnt_rld = d.b_cnt;
        return d;
    }
};

/** Statistics on descriptor-memory traffic. */
struct DescriptorRamStats {
    std::uint64_t full_writes = 0;     ///< all 12 parameters written
    std::uint64_t partial_writes = 0;  ///< src/dst-only rewrites (reuse)
};

/**
 * The PaRAM array. Functional storage plus traffic counters; the time
 * cost of each write is charged by the DMA driver from the CostModel.
 */
class DescriptorRam {
  public:
    static constexpr std::uint32_t kEntries = 512;  // Table 2

    DescriptorRam() : entries_(kEntries) {}

    std::uint32_t size() const { return kEntries; }

    /** Program all 12 parameters of entry @p idx. */
    void
    write_full(DescIndex idx, const TransferDescriptor &d)
    {
        entries_.at(idx) = d;
        ++stats_.full_writes;
    }

    /** Rewrite only source/destination (+sizes) of a reused entry. */
    void
    rewrite_src_dst(DescIndex idx, std::uint64_t src, std::uint64_t dst)
    {
        TransferDescriptor &d = entries_.at(idx);
        d.src = src;
        d.dst = dst;
        ++stats_.partial_writes;
    }

    /** Update only the link field (counts as a partial write). */
    void
    rewrite_link(DescIndex idx, DescIndex link)
    {
        entries_.at(idx).link = link;
        ++stats_.partial_writes;
    }

    const TransferDescriptor &
    read(DescIndex idx) const
    {
        return entries_.at(idx);
    }

    const DescriptorRamStats &stats() const { return stats_; }

  private:
    std::vector<TransferDescriptor> entries_;
    DescriptorRamStats stats_;
};

}  // namespace memif::dma
