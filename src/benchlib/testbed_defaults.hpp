// Canonical parameterization for all figure benches (§VI-C), so every
// bench measures the same simulated machine unless it deliberately
// deviates (e.g. toggling stashing or the wait mode). The paper's
// two-server testbed is PaperFabric(2): a 2-host full-mesh core::Fabric.
#pragma once

#include "core/fabric.hpp"

namespace twochains::core {

/// The paper's per-host parameters as one plain aggregate: the host
/// template, NIC, put protocol and runtime that PaperFabric() copies into
/// a FabricOptions. New code starts from PaperFabric() instead.
struct TestbedOptions {
  net::HostConfig host0{};
  net::NicConfig nic{};
  ucxs::ProtocolConfig protocol{};
  RuntimeConfig runtime{};
};

}  // namespace twochains::core

namespace twochains::bench {

/// The paper's server parameters with sensible benchmark mailbox shape.
inline core::TestbedOptions PaperTestbed() {
  core::TestbedOptions options;
  options.runtime.banks = 4;
  options.runtime.mailboxes_per_bank = 16;
  options.runtime.mailbox_slot_bytes = KiB(136);  // fits 128 KiB frames
  // The perftest process is single threaded per host (like ucx_perftest):
  // the same core waits on mailboxes and packs outgoing messages, so its
  // cycle counters cover both roles — what Figures 13/14 count.
  options.runtime.sender_core = 0;
  options.host0.memory_bytes = MiB(512);
  return options;
}

/// The paper's machine on @p hosts hosts: PaperFabric(2) is the paper's
/// two-server testbed, larger counts are the incast / fan-out scenarios
/// beyond it.
inline core::FabricOptions PaperFabric(
    std::uint32_t hosts,
    core::Topology topology = core::Topology::kFullMesh,
    std::uint32_t hub = 0) {
  const core::TestbedOptions paper = PaperTestbed();
  core::FabricOptions options;
  options.hosts = hosts;
  options.topology = topology;
  options.hub = hub;
  options.host = paper.host0;
  options.nic = paper.nic;
  options.protocol = paper.protocol;
  options.runtime = paper.runtime;
  return options;
}

/// A star fabric whose hub is a 2-domain NUMA machine: hub cores {0,1}
/// form domain 0 and {2,3} domain 1 (clusters align with domains), with a
/// 2-core receiver pool on cores 1 and 2 — one pool core per domain — and
/// sends on core 3. This is the smallest shape where bank placement and
/// cross-domain drains are both observable (fig17, examples/numa_pinning).
inline core::FabricOptions PaperNumaFabric(std::uint32_t hosts,
                                           std::uint32_t hub = 0) {
  core::FabricOptions options = PaperFabric(hosts, core::Topology::kStar,
                                            hub);
  options.host_overrides.assign(hosts, options.host);
  options.host_overrides[hub].cache.domains = 2;
  options.runtime_overrides.assign(hosts, options.runtime);
  options.runtime_overrides[hub].receiver_core = 1;
  options.runtime_overrides[hub].receiver_cores = 2;
  options.runtime_overrides[hub].sender_core = 3;
  return options;
}

/// The wide variant: the hub is an 8-core, 2-domain machine ({0..3} and
/// {4..7}) with a 4-core receiver pool on cores 2..5 — members 0,1 in
/// domain 0 and members 2,3 in domain 1 — and sends on core 6. The
/// smallest shape where a pool core has both a same-domain sibling and
/// remote-domain siblings, i.e. where domain-aware steal victims and
/// same-domain re-shard targets are observable (fig17 --domain-steal,
/// quiesce_test's NUMA placement case).
inline core::FabricOptions PaperNumaWideFabric(std::uint32_t hosts,
                                               std::uint32_t hub = 0) {
  core::FabricOptions options = PaperFabric(hosts, core::Topology::kStar,
                                            hub);
  options.host_overrides.assign(hosts, options.host);
  options.host_overrides[hub].cache.cores = 8;
  options.host_overrides[hub].cache.domains = 2;
  options.runtime_overrides.assign(hosts, options.runtime);
  options.runtime_overrides[hub].receiver_core = 2;
  options.runtime_overrides[hub].receiver_cores = 4;
  options.runtime_overrides[hub].sender_core = 6;
  return options;
}

}  // namespace twochains::bench
