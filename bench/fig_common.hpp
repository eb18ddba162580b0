// Shared scaffolding for the figure-reproduction benches. Each bench binary
// reproduces one figure of the paper's §VII: it sweeps the same x-axis,
// prints the measured series, and evaluates the figure's qualitative claims
// as PASS/FAIL shape checks.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>

#include "benchlib/perftest.hpp"
#include "benchlib/stress.hpp"
#include "benchlib/table.hpp"
#include "benchlib/testbed_defaults.hpp"
#include "benchlib/workloads.hpp"
#include "core/two_chains.hpp"

namespace twochains::bench {

/// A fresh paper-testbed with the benchmark package loaded.
inline std::unique_ptr<core::Testbed> MakeBenchTestbed(
    core::TestbedOptions options = PaperTestbed()) {
  auto testbed = std::make_unique<core::Testbed>(options);
  auto package = BuildBenchPackage();
  if (!package.ok()) {
    std::fprintf(stderr, "package build failed: %s\n",
                 package.status().ToString().c_str());
    std::abort();
  }
  Status st = testbed->LoadPackage(*package);
  if (!st.ok()) {
    std::fprintf(stderr, "package load failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return testbed;
}

/// Jam-cache parameterization for the `--hot` bench variants: capacity
/// covers the whole bench package, so a warm sweep never evicts and every
/// send after the first rides the by-handle fast path.
inline core::JamCacheConfig HotJamCache() {
  core::JamCacheConfig cache;
  cache.enabled = true;
  cache.capacity = 8;
  return cache;
}

/// Compact switched-tree incast fabric for the `--tree` bench variants:
/// host -> ToR -> spine with 4:1 trunk oversubscription, so the ToR
/// uplinks congest and ECN marks fire under incast. Every host keeps the
/// paper's 512 MiB arena; arenas are lazy, so the 33-65 host sweeps pay
/// only for the pages they touch.
inline core::FabricOptions TreeBenchFabric(std::uint32_t senders,
                                           bool adaptive,
                                           std::uint32_t hub_pool_cores = 1) {
  const core::TestbedOptions paper = PaperTestbed();
  core::FabricOptions options;
  options.hosts = senders + 1;
  options.topology = core::Topology::kTree;
  options.hub = 0;
  options.tree.arity = 8;
  options.tree.tiers = 2;
  options.tree.oversub = 4.0;
  options.switches.buffer_bytes = KiB(64);
  options.switches.ecn_threshold_bytes = KiB(8);
  options.nic = paper.nic;
  options.protocol = paper.protocol;
  options.runtime = paper.runtime;
  options.runtime.mailboxes_per_bank = 8;
  options.runtime.mailbox_slot_bytes = KiB(4);
  options.runtime.adaptive.enabled = adaptive;
  options.host = paper.host0;
  if (hub_pool_cores > 1) {
    options.host_overrides.assign(options.hosts, options.host);
    options.host_overrides[0].cache.cores =
        std::max(options.host.cache.cores, hub_pool_cores + 1);
    options.runtime_overrides.assign(options.hosts, options.runtime);
    options.runtime_overrides[0].receiver_cores = hub_pool_cores;
    options.runtime_overrides[0].sender_core = hub_pool_cores;
  }
  return options;
}

/// True iff @p flag (e.g. "--hot") appears anywhere in argv.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Payload bytes that make a Local (no-code, no-args) frame exactly
/// @p frame_len bytes: header 24 + usr + signal 8, rounded to 64.
inline std::uint64_t UsrBytesForLocalFrame(std::uint64_t frame_len) {
  return frame_len - 32;
}

/// Iteration count budget by payload size (keeps whole-suite runtime sane
/// while giving small sizes dense sampling).
inline std::uint32_t IterationsFor(std::uint64_t bytes) {
  if (bytes <= 1024) return 1200;
  if (bytes <= 8192) return 600;
  if (bytes <= 32768) return 300;
  return 150;
}

/// Indirect Put config for an n-integer payload (the Fig. 7-11, 13 x-axis:
/// "number of integers being Put", 4-byte integers).
inline AmConfig IputConfig(std::uint64_t n_ints, core::Invoke mode) {
  AmConfig config;
  config.jam = "iput";
  config.mode = mode;
  config.usr_bytes = 4 * n_ints;
  config.iterations = IterationsFor(config.usr_bytes);
  config.warmup = config.iterations / 5;
  config.args = [](std::uint64_t iter) {
    return std::vector<std::uint64_t>{iter & 127};
  };
  return config;
}

/// Server-Side Sum config for a payload of @p usr_bytes.
inline AmConfig SsumConfig(std::uint64_t usr_bytes, core::Invoke mode) {
  AmConfig config;
  config.jam = "ssum";
  config.mode = mode;
  config.usr_bytes = usr_bytes;
  config.iterations = IterationsFor(usr_bytes);
  config.warmup = config.iterations / 5;
  config.args = [](std::uint64_t) { return std::vector<std::uint64_t>{}; };
  return config;
}

/// Aborts the process (non-zero) on harness errors; shape-check failures
/// only print FAIL so the whole bench suite always runs to completion.
template <typename T>
inline T MustOk(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 value.status().ToString().c_str());
    std::abort();
  }
  return std::move(value).value();
}

inline int FinishChecks(bool all_ok) {
  std::printf("\nshape checks: %s\n", all_ok ? "ALL PASS" : "FAILURES");
  return 0;  // keep the suite running; EXPERIMENTS.md records outcomes
}

}  // namespace twochains::bench
