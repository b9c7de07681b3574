#include "os/tmpfs.h"

#include <cstring>

#include "os/kernel.h"
#include "sim/log.h"

namespace memif::os {

TmpFs::File::File(TmpFs &fs, std::string name, std::uint64_t num_pages)
    : fs_(fs), name_(std::move(name))
{
    mem::PhysicalMemory &pm = fs_.kernel().phys();
    cache_.reserve(num_pages);
    for (std::uint64_t i = 0; i < num_pages; ++i) {
        const mem::Pfn pfn = pm.allocate(fs_.kernel().slow_node(), 0);
        if (pfn == mem::kInvalidPfn)
            MEMIF_FATAL("tmpfs: slow node exhausted creating '%s'",
                        name_.c_str());
        pm.add_rmap(pfn, this, i, mem::RmapKind::kPageCache);
        cache_.push_back(pfn);
    }
}

TmpFs::File::~File()
{
    // tmpfs semantics: dropping the cache reference frees a frame only
    // when no process still maps it; otherwise the frame lives until
    // the last munmap (AddressSpace::release_vma frees it then).
    mem::PhysicalMemory &pm = fs_.kernel().phys();
    for (std::uint64_t i = 0; i < cache_.size(); ++i) {
        pm.remove_rmap(cache_[i], this, i, mem::RmapKind::kPageCache);
        if (pm.frame(cache_[i]).mapcount() == 0) pm.free(cache_[i], 0);
    }
}

bool
TmpFs::File::pwrite(std::uint64_t offset, const void *data,
                    std::uint64_t len)
{
    if (offset + len > size_bytes()) return false;
    mem::PhysicalMemory &pm = fs_.kernel().phys();
    const std::byte *src = static_cast<const std::byte *>(data);
    while (len > 0) {
        const std::uint64_t page = offset / 4096;
        const std::uint64_t in_page = 4096 - (offset % 4096);
        const std::uint64_t chunk = len < in_page ? len : in_page;
        std::memcpy(pm.span(cache_[page], 4096) + (offset % 4096), src,
                    chunk);
        offset += chunk;
        src += chunk;
        len -= chunk;
    }
    return true;
}

bool
TmpFs::File::pread(std::uint64_t offset, void *out, std::uint64_t len)
{
    if (offset + len > size_bytes()) return false;
    mem::PhysicalMemory &pm = fs_.kernel().phys();
    std::byte *dst = static_cast<std::byte *>(out);
    while (len > 0) {
        const std::uint64_t page = offset / 4096;
        const std::uint64_t in_page = 4096 - (offset % 4096);
        const std::uint64_t chunk = len < in_page ? len : in_page;
        std::memcpy(dst, pm.span(cache_[page], 4096) + (offset % 4096),
                    chunk);
        offset += chunk;
        dst += chunk;
        len -= chunk;
    }
    return true;
}

void
TmpFs::File::relocate(std::uint64_t page_index, mem::Pfn new_pfn)
{
    MEMIF_ASSERT(page_index < cache_.size(), "relocate beyond EOF");
    cache_[page_index] = new_pfn;
}

mem::Pfn
TmpFs::File::cached_pfn(std::uint64_t page_index) const
{
    if (page_index >= cache_.size()) return mem::kInvalidPfn;
    return cache_[page_index];
}

TmpFs::File *
TmpFs::create(const std::string &name, std::uint64_t num_pages)
{
    if (files_.count(name)) return nullptr;
    auto file = std::make_unique<File>(*this, name, num_pages);
    File *raw = file.get();
    files_[name] = std::move(file);
    return raw;
}

TmpFs::File *
TmpFs::open(const std::string &name)
{
    auto it = files_.find(name);
    return it == files_.end() ? nullptr : it->second.get();
}

bool
TmpFs::unlink(const std::string &name)
{
    return files_.erase(name) > 0;
}

}  // namespace memif::os
