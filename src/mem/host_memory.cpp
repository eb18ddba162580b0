#include "mem/host_memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "common/bitops.hpp"
#include "common/strfmt.hpp"

namespace twochains::mem {

std::string PermString(Perm p) {
  std::string s = "---";
  if (HasPerm(p, Perm::kRead)) s[0] = 'r';
  if (HasPerm(p, Perm::kWrite)) s[1] = 'w';
  if (HasPerm(p, Perm::kExec)) s[2] = 'x';
  return s;
}

HostMemory::HostMemory(int host_id, std::uint64_t size, std::uint32_t domains)
    : host_id_(host_id), base_(HostBase(host_id)) {
  // Each slice is rounded up to whole pages independently (AlignUp on the
  // combined size would need a power-of-two domain count), so domain
  // boundaries always fall on page boundaries for any @p domains.
  const std::uint32_t n = std::max<std::uint32_t>(domains, 1);
  domain_span_ = AlignUp(CeilDiv(size, n), kPageSize);
  size_ = domain_span_ * n;
  if (size_ > 0) {
    void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    arena_ = static_cast<std::uint8_t*>(p);
  }
  page_perms_.assign(size_ / kPageSize, Perm::kNone);
  domains_.resize(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    domains_[d].bump = base_ + static_cast<std::uint64_t>(d) * domain_span_;
    domains_[d].limit = domains_[d].bump + domain_span_;
  }
}

HostMemory::~HostMemory() {
  if (arena_ != nullptr) munmap(arena_, size_);
}

bool HostMemory::Contains(VirtAddr addr, std::uint64_t size) const noexcept {
  if (addr < base_) return false;
  const std::uint64_t off = addr - base_;
  return off <= size_ && size <= size_ - off;
}

VirtAddr HostMemory::CarveFrom(Domain& domain, std::uint64_t page_span,
                               std::uint64_t eff_align) {
  // First fit over released page runs (address order keeps it stable).
  for (auto it = domain.free_list.begin(); it != domain.free_list.end();
       ++it) {
    const VirtAddr block = it->first;
    const std::uint64_t block_span = it->second;
    const VirtAddr start = AlignUp(block, eff_align);
    if (start + page_span > block + block_span) continue;
    domain.free_list.erase(it);
    if (start > block) domain.free_list.emplace(block, start - block);
    const VirtAddr tail = start + page_span;
    if (tail < block + block_span) {
      domain.free_list.emplace(tail, block + block_span - tail);
    }
    return start;
  }
  // Bump region: never-used pages at the top of the slice.
  const VirtAddr start = AlignUp(domain.bump, eff_align);
  if (start + page_span > domain.limit) return 0;
  domain.bump = start + page_span;
  return start;
}

StatusOr<VirtAddr> HostMemory::Allocate(std::uint64_t size,
                                        std::uint64_t align, Perm perms,
                                        std::string_view tag,
                                        DomainId domain_hint) {
  if (size == 0) return InvalidArgument("zero-size allocation");
  if (!IsPowerOfTwo(align)) return InvalidArgument("alignment must be pow2");
  // Page-granular allocations: each one gets whole pages so that Protect()
  // on it cannot disturb neighbours. The hinted domain is tried first;
  // exhaustion spills to the neighbouring domains in index order so a full
  // slice degrades to remote placement instead of failure.
  const std::uint64_t eff_align = std::max<std::uint64_t>(align, kPageSize);
  const std::uint64_t page_span = AlignUp(size, kPageSize);
  const DomainId hint = std::min<DomainId>(domain_hint, domains() - 1);
  for (std::uint32_t i = 0; i < domains(); ++i) {
    Domain& domain = domains_[(hint + i) % domains()];
    const VirtAddr start = CarveFrom(domain, page_span, eff_align);
    if (start == 0) continue;
    allocs_.emplace(start, Allocation{size, page_span, std::string(tag)});
    allocated_bytes_ += size;
    TC_RETURN_IF_ERROR(Protect(start, page_span, perms));
    return start;
  }
  return ResourceExhausted(
      StrFormat("host %d arena exhausted: want %llu bytes (tag=%.*s)",
                host_id_, static_cast<unsigned long long>(size),
                static_cast<int>(tag.size()), tag.data()));
}

Status HostMemory::Free(VirtAddr addr) {
  const auto it = allocs_.find(addr);
  if (it == allocs_.end()) {
    return NotFound(StrFormat("no allocation at 0x%llx",
                              static_cast<unsigned long long>(addr)));
  }
  allocated_bytes_ -= it->second.size;
  TC_RETURN_IF_ERROR(Protect(addr, it->second.page_span, Perm::kNone));
  // Return the pages to the owning domain's free list, coalescing with
  // adjacent runs; a run that reaches the bump frontier folds back into
  // the never-used region so a full alloc/free cycle restores the slice.
  Domain& domain = domains_[DomainOf(addr)];
  auto [pos, inserted] =
      domain.free_list.emplace(addr, it->second.page_span);
  (void)inserted;
  if (auto next = std::next(pos); next != domain.free_list.end() &&
                                  pos->first + pos->second == next->first) {
    pos->second += next->second;
    domain.free_list.erase(next);
  }
  if (pos != domain.free_list.begin()) {
    auto prev = std::prev(pos);
    if (prev->first + prev->second == pos->first) {
      prev->second += pos->second;
      domain.free_list.erase(pos);
      pos = prev;
    }
  }
  if (pos->first + pos->second == domain.bump) {
    domain.bump = pos->first;
    domain.free_list.erase(pos);
  }
  allocs_.erase(it);
  return Status::Ok();
}

Status HostMemory::Protect(VirtAddr addr, std::uint64_t size, Perm perms) {
  if (!Contains(addr, size)) {
    return OutOfRange(StrFormat("protect [0x%llx,+%llu) outside arena",
                                static_cast<unsigned long long>(addr),
                                static_cast<unsigned long long>(size)));
  }
  const std::uint64_t first = OffsetOf(AlignDown(addr, kPageSize)) / kPageSize;
  const std::uint64_t last =
      OffsetOf(AlignUp(addr + size, kPageSize)) / kPageSize;
  for (std::uint64_t p = first; p < last; ++p) page_perms_[p] = perms;
  return Status::Ok();
}

StatusOr<Perm> HostMemory::PagePerms(VirtAddr addr) const {
  if (!Contains(addr, 1)) return OutOfRange("address outside arena");
  return page_perms_[OffsetOf(addr) / kPageSize];
}

Status HostMemory::CheckPerms(VirtAddr addr, std::uint64_t size,
                              Perm need) const {
  if (size == 0) return Status::Ok();
  if (!Contains(addr, size)) {
    return OutOfRange(StrFormat("access [0x%llx,+%llu) outside host %d arena",
                                static_cast<unsigned long long>(addr),
                                static_cast<unsigned long long>(size),
                                host_id_));
  }
  const std::uint64_t first = OffsetOf(AlignDown(addr, kPageSize)) / kPageSize;
  const std::uint64_t last =
      OffsetOf(AlignUp(addr + size, kPageSize)) / kPageSize;
  for (std::uint64_t p = first; p < last; ++p) {
    if (!HasPerm(page_perms_[p], need)) {
      return PermissionDenied(
          StrFormat("page 0x%llx is %s, need %s",
                    static_cast<unsigned long long>(base_ + p * kPageSize),
                    PermString(page_perms_[p]).c_str(),
                    PermString(need).c_str()));
    }
  }
  return Status::Ok();
}

Status HostMemory::Read(VirtAddr addr, std::span<std::uint8_t> out) const {
  TC_RETURN_IF_ERROR(CheckPerms(addr, out.size(), Perm::kRead));
  std::memcpy(out.data(), arena_ + OffsetOf(addr), out.size());
  return Status::Ok();
}

Status HostMemory::Write(VirtAddr addr, std::span<const std::uint8_t> data) {
  TC_RETURN_IF_ERROR(CheckPerms(addr, data.size(), Perm::kWrite));
  std::memcpy(arena_ + OffsetOf(addr), data.data(), data.size());
  return Status::Ok();
}

Status HostMemory::Zero(VirtAddr addr, std::uint64_t size) {
  TC_RETURN_IF_ERROR(CheckPerms(addr, size, Perm::kWrite));
  if (size == 0) return Status::Ok();
  std::uint8_t* const begin = arena_ + OffsetOf(addr);
  std::uint8_t* const end = begin + size;
  // The mapping is host-page aligned, so whole host pages inside the range
  // can be dropped: a private anonymous page reads back as zero after
  // MADV_DONTNEED. The partial pages at either end are written.
  const auto host_page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  auto* const first = reinterpret_cast<std::uint8_t*>(
      AlignUp(reinterpret_cast<std::uintptr_t>(begin), host_page));
  auto* const last = reinterpret_cast<std::uint8_t*>(
      AlignDown(reinterpret_cast<std::uintptr_t>(end), host_page));
  if (first >= last) {
    std::memset(begin, 0, size);
    return Status::Ok();
  }
  std::memset(begin, 0, first - begin);
  if (madvise(first, last - first, MADV_DONTNEED) != 0) {
    std::memset(first, 0, last - first);
  }
  std::memset(last, 0, end - last);
  return Status::Ok();
}

namespace {
template <typename T>
StatusOr<T> LoadScalar(const HostMemory& mem, VirtAddr addr) {
  T v;
  std::uint8_t buf[sizeof(T)];
  TC_RETURN_IF_ERROR(mem.Read(addr, std::span<std::uint8_t>(buf, sizeof(T))));
  std::memcpy(&v, buf, sizeof(T));
  return v;
}
template <typename T>
Status StoreScalar(HostMemory& mem, VirtAddr addr, T v) {
  std::uint8_t buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  return mem.Write(addr, std::span<const std::uint8_t>(buf, sizeof(T)));
}
}  // namespace

StatusOr<std::uint8_t> HostMemory::LoadU8(VirtAddr a) const {
  return LoadScalar<std::uint8_t>(*this, a);
}
StatusOr<std::uint16_t> HostMemory::LoadU16(VirtAddr a) const {
  return LoadScalar<std::uint16_t>(*this, a);
}
StatusOr<std::uint32_t> HostMemory::LoadU32(VirtAddr a) const {
  return LoadScalar<std::uint32_t>(*this, a);
}
StatusOr<std::uint64_t> HostMemory::LoadU64(VirtAddr a) const {
  return LoadScalar<std::uint64_t>(*this, a);
}
Status HostMemory::StoreU8(VirtAddr a, std::uint8_t v) {
  return StoreScalar(*this, a, v);
}
Status HostMemory::StoreU16(VirtAddr a, std::uint16_t v) {
  return StoreScalar(*this, a, v);
}
Status HostMemory::StoreU32(VirtAddr a, std::uint32_t v) {
  return StoreScalar(*this, a, v);
}
Status HostMemory::StoreU64(VirtAddr a, std::uint64_t v) {
  return StoreScalar(*this, a, v);
}

Status HostMemory::DmaRead(VirtAddr addr, std::span<std::uint8_t> out) const {
  if (!Contains(addr, out.size())) return OutOfRange("DMA read outside arena");
  std::memcpy(out.data(), arena_ + OffsetOf(addr), out.size());
  return Status::Ok();
}

Status HostMemory::DmaWrite(VirtAddr addr, std::span<const std::uint8_t> data) {
  if (!Contains(addr, data.size())) {
    return OutOfRange("DMA write outside arena");
  }
  std::memcpy(arena_ + OffsetOf(addr), data.data(), data.size());
  return Status::Ok();
}

StatusOr<std::span<std::uint8_t>> HostMemory::RawSpan(VirtAddr addr,
                                                      std::uint64_t size) {
  if (!Contains(addr, size)) return OutOfRange("raw span outside arena");
  return std::span<std::uint8_t>(arena_ + OffsetOf(addr), size);
}

StatusOr<std::span<const std::uint8_t>> HostMemory::RawSpan(
    VirtAddr addr, std::uint64_t size) const {
  if (!Contains(addr, size)) return OutOfRange("raw span outside arena");
  return std::span<const std::uint8_t>(arena_ + OffsetOf(addr), size);
}

}  // namespace twochains::mem
