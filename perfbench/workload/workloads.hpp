// The benchmark's workloads. Each one generates its inputs (keys,
// payloads, arrival times) from the seed when it is made, describes the
// fabric and package it runs on, and drives the measured ops through the
// public Runtime API. main.cpp times the phases around these calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/fabric.hpp"
#include "harness.hpp"
#include "pkg/package.hpp"

namespace perfbench {

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  virtual core::FabricOptions Options() const = 0;
  virtual twochains::pkg::PackageBuilder Package() const = 0;
  virtual std::string PackageName() const = 0;

  /// Unmeasured work between package load and the first measured op (the
  /// kv preload). Adds wrong or missing results to @p failures.
  virtual twochains::Status Warm(core::Fabric& fabric,
                                 std::uint64_t* failures) {
    (void)fabric;
    (void)failures;
    return twochains::Status::Ok();
  }

  /// Arms the measured ops, the first one at simulated time @p start, and
  /// returns the ledger their completions land in. The caller runs the
  /// engine; the ledger stops it when the last op completes.
  virtual std::unique_ptr<OpLedger> Start(core::Fabric& fabric,
                                          PicoTime start) = 0;

  /// First error a sender hit while driving (Ok when none).
  virtual twochains::Status error() const = 0;

  /// Drops every reference to the fabric; called before it is torn down.
  virtual void Release() = 0;
};

/// kv_zipf, incast_ssum_hardened or tree_incast; nullptr for other names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

std::unique_ptr<Workload> MakeKvZipf(std::uint64_t seed);
std::unique_ptr<Workload> MakeIncastSsumHardened(std::uint64_t seed);
std::unique_ptr<Workload> MakeTreeIncast(std::uint64_t seed);

}  // namespace perfbench
