// Simulated per-host memory: a byte arena with page-granular permissions,
// a first-fit allocator, and bounds/permission-checked access paths.
//
// The arena is a private anonymous mapping reserved without swap backing:
// the kernel hands out zero pages on first touch, so a host costs resident
// memory only for the bytes it actually writes, not for its configured
// size.
//
// The arena is split into one sub-arena per memory domain (NUMA node):
// domain d owns the contiguous slice [base + d*span, base + (d+1)*span).
// Allocate takes a domain hint and spills to the neighbouring domains (in
// index order from the hint) when the hinted domain is exhausted, and
// DomainOf answers which domain's slice holds an address — the mapping the
// cache hierarchy uses to charge cross-domain accesses. A host modeled
// without NUMA is the 1-domain special case and behaves exactly like the
// old flat arena.
//
// Two access planes exist on purpose:
//   * CPU accesses (Read/Write/Load*/Store*) enforce page permissions —
//     these model loads/stores issued by jam code and the runtime, and are
//     what the security-mode tests exercise (W^X, read-only ARGS pages).
//   * DMA accesses (DmaRead/DmaWrite) bypass page permissions — an RDMA HCA
//     is bounds-checked by its registered regions (rkeys, see region.hpp),
//     not by CPU page tables. The NIC model performs rkey validation before
//     touching memory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "mem/address.hpp"

namespace twochains::mem {

/// One host's simulated memory (see the file comment for the model).
/// Not thread-safe and doesn't need to be: everything runs on the one
/// discrete-event engine. Addresses are VirtAddr in the host's own
/// range (base() .. base()+size()); two hosts never alias.
class HostMemory {
 public:
  /// Creates the arena for @p host_id with @p size bytes (rounded up so
  /// every domain slice is a whole number of pages) based at
  /// HostBase(host_id), split into @p domains equal sub-arenas.
  /// Throws std::bad_alloc when the reservation cannot be mapped.
  HostMemory(int host_id, std::uint64_t size, std::uint32_t domains = 1);
  ~HostMemory();

  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  int host_id() const noexcept { return host_id_; }
  /// First virtual address of the arena (HostBase(host_id)).
  VirtAddr base() const noexcept { return base_; }
  /// Total arena bytes (possibly rounded up from the constructor size).
  std::uint64_t size() const noexcept { return size_; }
  /// Number of memory domains (NUMA nodes) the arena is split into.
  std::uint32_t domains() const noexcept {
    return static_cast<std::uint32_t>(domains_.size());
  }
  /// Bytes per domain slice (page multiple).
  std::uint64_t domain_span() const noexcept { return domain_span_; }

  /// The domain whose slice holds @p addr (addresses below the arena map
  /// to domain 0; addresses at or past the end clamp to the last domain;
  /// a zero-size arena has no slices to tell apart, so everything is 0).
  DomainId DomainOf(VirtAddr addr) const noexcept {
    if (addr < base_ || domain_span_ == 0) return 0;
    return static_cast<DomainId>(
        std::min<std::uint64_t>((addr - base_) / domain_span_,
                                domains_.size() - 1));
  }

  /// Allocates @p size bytes aligned to @p align (pow2, >= 1) with initial
  /// page permissions @p perms, preferring the slice of @p domain_hint and
  /// spilling to the neighbouring domains (hint+1, hint+2, ... wrapping)
  /// when it is exhausted. Allocations are page-granular internally so
  /// Protect() on one allocation cannot affect a neighbour.
  /// @p tag labels the allocation in diagnostics.
  StatusOr<VirtAddr> Allocate(std::uint64_t size, std::uint64_t align,
                              Perm perms, std::string_view tag,
                              DomainId domain_hint = 0);

  /// Releases an allocation previously returned by Allocate(). The pages
  /// return to the owning domain's free list (coalescing with neighbours)
  /// and are eligible for reuse by later allocations.
  Status Free(VirtAddr addr);

  /// Changes permissions on all pages covering [addr, addr+size).
  Status Protect(VirtAddr addr, std::uint64_t size, Perm perms);

  /// Permissions of the page containing @p addr.
  StatusOr<Perm> PagePerms(VirtAddr addr) const;

  /// True when [addr, addr+size) lies inside the arena.
  bool Contains(VirtAddr addr, std::uint64_t size) const noexcept;

  // --- CPU plane (permission checked) ---------------------------------

  /// Bulk read into @p out; every touched page must be readable.
  Status Read(VirtAddr addr, std::span<std::uint8_t> out) const;
  /// Bulk write of @p data; every touched page must be writable.
  Status Write(VirtAddr addr, std::span<const std::uint8_t> data);
  /// Zero-fills [addr, addr+size); every touched page must be writable.
  /// Whole pages go back to the kernel instead of being written, so
  /// zeroing a large untouched range costs no resident memory.
  Status Zero(VirtAddr addr, std::uint64_t size);

  /// Little-endian scalar loads (readable page required).
  StatusOr<std::uint8_t> LoadU8(VirtAddr addr) const;
  StatusOr<std::uint16_t> LoadU16(VirtAddr addr) const;
  StatusOr<std::uint32_t> LoadU32(VirtAddr addr) const;
  StatusOr<std::uint64_t> LoadU64(VirtAddr addr) const;
  /// Little-endian scalar stores (writable page required).
  Status StoreU8(VirtAddr addr, std::uint8_t v);
  Status StoreU16(VirtAddr addr, std::uint16_t v);
  Status StoreU32(VirtAddr addr, std::uint32_t v);
  Status StoreU64(VirtAddr addr, std::uint64_t v);

  /// Checks that every page in [addr, addr+size) carries @p need.
  Status CheckPerms(VirtAddr addr, std::uint64_t size, Perm need) const;

  // --- DMA plane (bounds checked only) --------------------------------

  /// HCA-style read: bypasses page permissions (region/rkey validation
  /// is the NIC's job, before it calls this).
  Status DmaRead(VirtAddr addr, std::span<std::uint8_t> out) const;
  /// HCA-style write: bypasses page permissions (see DmaRead).
  Status DmaWrite(VirtAddr addr, std::span<const std::uint8_t> data);

  /// Borrow a mutable view of arena bytes (internal plumbing for the
  /// interpreter's hot path; bounds checked, no permission check).
  StatusOr<std::span<std::uint8_t>> RawSpan(VirtAddr addr, std::uint64_t size);
  StatusOr<std::span<const std::uint8_t>> RawSpan(VirtAddr addr,
                                                  std::uint64_t size) const;

  /// Bytes currently allocated (for leak checks in tests).
  std::uint64_t allocated_bytes() const noexcept { return allocated_bytes_; }

 private:
  struct Allocation {
    std::uint64_t size;        // requested size
    std::uint64_t page_span;   // bytes of whole pages reserved
    std::string tag;
  };

  /// One domain's sub-arena: a bump pointer over never-used pages plus a
  /// first-fit free list of released page runs (start VA -> byte span).
  struct Domain {
    VirtAddr bump = 0;   // next never-used address in this slice
    VirtAddr limit = 0;  // exclusive end of this slice
    std::map<VirtAddr, std::uint64_t> free_list;
  };

  std::uint64_t OffsetOf(VirtAddr addr) const noexcept { return addr - base_; }

  /// Carves @p page_span bytes at @p eff_align from @p domain (free list
  /// first, then the bump region), or 0 when the slice cannot fit it.
  VirtAddr CarveFrom(Domain& domain, std::uint64_t page_span,
                     std::uint64_t eff_align);

  int host_id_;
  VirtAddr base_;
  std::uint8_t* arena_ = nullptr;            // mmap'd, size_ bytes
  std::uint64_t size_ = 0;
  std::vector<Perm> page_perms_;             // one entry per page
  std::map<VirtAddr, Allocation> allocs_;    // live allocations by start VA
  std::vector<Domain> domains_;              // per-domain allocator state
  std::uint64_t domain_span_ = 0;
  std::uint64_t allocated_bytes_ = 0;
};

}  // namespace twochains::mem
