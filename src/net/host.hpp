// A simulated host: memory arena, cache hierarchy, CPU cores, and the RDMA
// region registry its NIC validates against.
//
// The paper's testbed is two of these, connected back-to-back (§VI-C).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cpu/core.hpp"
#include "mem/host_memory.hpp"
#include "mem/region.hpp"

namespace twochains::net {

struct HostConfig {
  /// Identity of this host; also seeds the arena's virtual base so two
  /// hosts' address spaces never alias.
  int host_id = 0;
  /// Arena size. The arena is a lazily zeroed reservation: pages the
  /// host never touches cost no resident memory, so this bounds what the
  /// host may allocate rather than what it costs. With NUMA domains the
  /// arena splits evenly, so every *domain slice* (memory_bytes / domains)
  /// must still fit the largest single allocation (e.g. a loaded library).
  std::uint64_t memory_bytes = MiB(256);
  /// Cache/core geometry, including the domain (NUMA) split — the
  /// single source of truth for how many cpu::CpuCore the host builds.
  cache::HierarchyConfig cache{};
};

/// A simulated host: the byte arena, the cache hierarchy (wired to the
/// arena's domain map so every line is homed where its bytes live), one
/// cycle-charged core per cache-model core, and the RDMA region
/// registry the NIC validates rkeys against. Pure state — all behavior
/// (NIC, runtime) attaches from outside; safe to construct before the
/// engine runs.
class Host {
 public:
  /// Builds arena + hierarchy + cores from @p config. The cache model's
  /// domain mapper is wired to HostMemory::DomainOf at construction.
  explicit Host(const HostConfig& config)
      : config_(config),
        memory_(config.host_id, config.memory_bytes,
                std::max<std::uint32_t>(config.cache.domains, 1)),
        caches_(config.cache) {
    // The arena's domain slices and the cache model's domains are the same
    // NUMA nodes: the hierarchy homes every line where its bytes live.
    caches_.SetDomainMapper(
        [mem = &memory_](mem::VirtAddr addr) { return mem->DomainOf(addr); });
    cores_.reserve(config.cache.cores);
    for (std::uint32_t c = 0; c < config.cache.cores; ++c) {
      cores_.emplace_back(c, config.cache.core_clock);
    }
  }

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  int id() const noexcept { return config_.host_id; }
  const HostConfig& config() const noexcept { return config_; }

  /// The arena (CPU + DMA access planes, domain-aware allocation).
  mem::HostMemory& memory() noexcept { return memory_; }
  const mem::HostMemory& memory() const noexcept { return memory_; }
  /// The cache hierarchy all core/NIC accesses are charged through.
  cache::CacheHierarchy& caches() noexcept { return caches_; }
  const cache::CacheHierarchy& caches() const noexcept { return caches_; }
  /// Registered RDMA windows (rkeys) the NIC validates puts against.
  mem::RegionRegistry& regions() noexcept { return regions_; }
  const mem::RegionRegistry& regions() const noexcept { return regions_; }

  /// Core @p i (bounds-checked; one per cache-model core).
  cpu::CpuCore& core(std::uint32_t i) { return cores_.at(i); }
  std::uint32_t core_count() const noexcept {
    return static_cast<std::uint32_t>(cores_.size());
  }

 private:
  HostConfig config_;
  mem::HostMemory memory_;
  cache::CacheHierarchy caches_;
  mem::RegionRegistry regions_;
  std::vector<cpu::CpuCore> cores_;
};

}  // namespace twochains::net
