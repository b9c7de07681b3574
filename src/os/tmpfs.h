/**
 * @file
 * A small in-memory filesystem with a page cache, so file-backed
 * mappings exist in the simulation. The paper's prototype "can only
 * move anonymous pages but not pages backed by files" (§6.7); with
 * this substrate the memif driver can faithfully *reject* file pages
 * by default and, as the implemented future-work extension, move them
 * by relocating the page-cache frame along with every mapping.
 *
 * Files are fully cached (tmpfs semantics): the page cache *is* the
 * backing store. Cache frames live on the slow node and carry a
 * kPageCache reverse-map entry so they are never freed while cached.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/phys.h"
#include "vm/file_backing.h"

namespace memif::os {

class Kernel;

class TmpFs {
  public:
    class File : public vm::FileBacking {
      public:
        File(TmpFs &fs, std::string name, std::uint64_t num_pages);
        ~File() override;
        File(const File &) = delete;
        File &operator=(const File &) = delete;

        const std::string &name() const { return name_; }
        std::uint64_t num_pages() const { return cache_.size(); }
        std::uint64_t size_bytes() const { return cache_.size() * 4096; }

        /** Write @p len bytes at byte @p offset (bounds-checked). */
        bool pwrite(std::uint64_t offset, const void *data,
                    std::uint64_t len);
        /** Read @p len bytes at byte @p offset. */
        bool pread(std::uint64_t offset, void *out, std::uint64_t len);

        // ----- vm::FileBacking -----------------------------------------
        void relocate(std::uint64_t page_index, mem::Pfn new_pfn) override;
        mem::Pfn cached_pfn(std::uint64_t page_index) const override;

      private:
        TmpFs &fs_;
        std::string name_;
        std::vector<mem::Pfn> cache_;  ///< one frame per file page
    };

    explicit TmpFs(Kernel &kernel) : kernel_(kernel) {}
    TmpFs(const TmpFs &) = delete;
    TmpFs &operator=(const TmpFs &) = delete;

    /**
     * Create a file of @p num_pages 4 KB pages, fully allocated in the
     * page cache (tmpfs). @return nullptr if the name exists or memory
     * is exhausted.
     */
    File *create(const std::string &name, std::uint64_t num_pages);

    /** Look a file up. */
    File *open(const std::string &name);

    /** Delete a file; its cache frames return to the buddy. The file
     *  must no longer be mapped anywhere. */
    bool unlink(const std::string &name);

    Kernel &kernel() { return kernel_; }

  private:
    Kernel &kernel_;
    std::map<std::string, std::unique_ptr<File>> files_;
};

}  // namespace memif::os
