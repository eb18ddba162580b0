// The two closed-loop incast workloads. Every sender pushes its op list
// at hub 0 as fast as its own sender core and its bank flow control allow,
// starting at a seeded offset within the first simulated microsecond.
//
//   incast_ssum_hardened  the execute side: 8 senders into a 9-host star
//                         whose hub drains with a 4-core receiver pool;
//                         ssum over seeded payloads of 768..1280 bytes
//                         (1 KiB on average; the length is what makes the
//                         closed loop's timing depend on the seed), full-body
//                         (jam cache off), SecurityPolicy::Hardened() on
//                         every host, the paper testbed's 512 MiB arenas.
//   tree_incast           the network side: 64 senders through a 2-tier,
//                         4:1 oversubscribed switched tree (the shape of
//                         fig15's --tree fabric) with adaptive AIMD banks;
//                         iput of 64 B over a seeded pool of 1024 keys
//                         under the paper-default policy.
#include <algorithm>
#include <unordered_map>
#include <vector>

#include "benchlib/testbed_defaults.hpp"
#include "benchlib/workloads.hpp"
#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using twochains::KiB;
using twochains::MiB;
using twochains::Status;
using twochains::Xoshiro256;

constexpr std::uint32_t kHub = 0;
constexpr PicoTime kStartJitterPs = 1'000'000;  // 1 us

struct IncastShape {
  std::uint32_t senders = 0;
  std::uint32_t ops_per_sender = 0;
  /// Payload length range; each op draws a multiple of 8 in it.
  std::uint64_t min_payload = 0;
  std::uint64_t max_payload = 0;
};

/// Per-op inputs shared by both incast workloads: payload bytes plus, for
/// iput, the key.
struct IncastOp {
  std::uint64_t key = 0;
  std::vector<std::uint8_t> payload;
};

class Incast : public Workload {
 public:
  Incast(std::uint64_t seed, IncastShape shape) : shape_(shape) {
    Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 0x1ca5);
    for (std::uint32_t s = 0; s < shape_.senders; ++s) {
      start_offset_.push_back(rng.NextBelow(kStartJitterPs));
    }
    ops_.resize(std::size_t{shape_.senders} * shape_.ops_per_sender);
    const std::uint64_t lengths =
        (shape_.max_payload - shape_.min_payload) / 8 + 1;
    for (IncastOp& op : ops_) {
      op.payload.resize(shape_.min_payload + 8 * rng.NextBelow(lengths));
      for (std::size_t b = 0; b < op.payload.size(); b += 8) {
        const std::uint64_t word = rng.Next();
        std::copy_n(reinterpret_cast<const std::uint8_t*>(&word),
                    std::min<std::size_t>(8, op.payload.size() - b),
                    op.payload.begin() + static_cast<std::ptrdiff_t>(b));
      }
    }
  }

  twochains::pkg::PackageBuilder Package() const override {
    return twochains::bench::MakeBenchPackageBuilder();
  }
  std::string PackageName() const override { return "tcbench"; }

  std::unique_ptr<OpLedger> Start(core::Fabric& fabric,
                                  PicoTime start) override {
    std::vector<std::uint32_t> senders;
    for (std::uint32_t s = 1; s <= shape_.senders; ++s) senders.push_back(s);
    auto ledger = std::make_unique<OpLedger>(
        fabric, std::vector<std::uint32_t>{kHub}, senders, ops_.size(),
        [this](std::uint32_t i, const core::ReceivedMessage& m) {
          return Check(i, m);
        });
    for (std::uint32_t s = 0; s < shape_.senders; ++s) {
      const std::uint32_t host = s + 1;
      const core::PeerId peer = *fabric.PeerIdFor(host, kHub);
      std::vector<std::uint32_t> mine(shape_.ops_per_sender);
      for (std::uint32_t k = 0; k < shape_.ops_per_sender; ++k) {
        mine[k] = s * shape_.ops_per_sender + k;
      }
      core::Runtime& rt = fabric.runtime(host);
      senders_.push_back(std::make_unique<ClosedLoopSender>(
          fabric, *ledger, host, std::move(mine),
          [peer](std::uint32_t) { return peer; },
          [this, peer, &rt](std::uint32_t i) { return SendOp(rt, peer, i); }));
      senders_.back()->Start(start + start_offset_[s]);
    }
    return ledger;
  }

  Status error() const override {
    for (const auto& s : senders_) {
      if (!s->error().ok()) return s->error();
    }
    return Status::Ok();
  }

  void Release() override { senders_.clear(); }

 protected:
  virtual twochains::StatusOr<core::SendReceipt> SendOp(core::Runtime& rt,
                                                        core::PeerId peer,
                                                        std::uint32_t i) = 0;
  virtual bool Check(std::uint32_t i, const core::ReceivedMessage& m) = 0;

  IncastShape shape_;
  std::vector<IncastOp> ops_;

 private:
  std::vector<PicoTime> start_offset_;
  std::vector<std::unique_ptr<ClosedLoopSender>> senders_;
};

class SsumHardened final : public Incast {
 public:
  explicit SsumHardened(std::uint64_t seed)
      : Incast(seed, IncastShape{8, 1250, 768, 1280}) {
    for (const IncastOp& op : ops_) {
      std::uint64_t sum = 0;
      for (std::size_t b = 0; b + 8 <= op.payload.size(); b += 8) {
        std::uint64_t word = 0;
        std::copy_n(op.payload.begin() + static_cast<std::ptrdiff_t>(b), 8,
                    reinterpret_cast<std::uint8_t*>(&word));
        sum += word;
      }
      expected_.push_back(sum);
    }
  }

  core::FabricOptions Options() const override {
    constexpr std::uint32_t kPoolCores = 4;
    core::FabricOptions options = twochains::bench::PaperFabric(
        shape_.senders + 1, core::Topology::kStar, kHub);
    options.runtime.security = core::SecurityPolicy::Hardened();
    options.host_overrides.assign(options.hosts, options.host);
    options.host_overrides[kHub].cache.cores =
        std::max(options.host.cache.cores, kPoolCores + 1);
    options.runtime_overrides.assign(options.hosts, options.runtime);
    options.runtime_overrides[kHub].receiver_cores = kPoolCores;
    options.runtime_overrides[kHub].sender_core = kPoolCores;
    return options;
  }

 private:
  twochains::StatusOr<core::SendReceipt> SendOp(core::Runtime& rt,
                                                core::PeerId peer,
                                                std::uint32_t i) override {
    return rt.Send(peer, "ssum", core::Invoke::kInjected, {},
                   ops_[i].payload);
  }

  bool Check(std::uint32_t i, const core::ReceivedMessage& m) override {
    return m.return_value == expected_[i];
  }

  std::vector<std::uint64_t> expected_;
};

class TreeIncast final : public Incast {
 public:
  explicit TreeIncast(std::uint64_t seed)
      : Incast(seed, IncastShape{64, 1000, 64, 64}) {
    Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 0x7ee);
    std::vector<std::uint64_t> pool(kKeyPool);
    for (std::uint64_t& key : pool) key = rng.Next() >> 1;
    for (IncastOp& op : ops_) op.key = pool[rng.NextBelow(kKeyPool)];
  }

  core::FabricOptions Options() const override {
    const core::TestbedOptions paper = twochains::bench::PaperTestbed();
    core::FabricOptions options;
    options.hosts = shape_.senders + 1;
    options.topology = core::Topology::kTree;
    options.hub = kHub;
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
    options.runtime.adaptive.enabled = true;
    options.host = paper.host0;
    options.host.memory_bytes = MiB(24);
    options.host_overrides.assign(options.hosts, options.host);
    options.host_overrides[kHub].memory_bytes =
        MiB(48) + std::uint64_t{shape_.senders} * options.runtime.banks *
                      options.runtime.mailboxes_per_bank *
                      options.runtime.mailbox_slot_bytes;
    return options;
  }

 private:
  static constexpr std::uint64_t kKeyPool = 1024;

  twochains::StatusOr<core::SendReceipt> SendOp(core::Runtime& rt,
                                                core::PeerId peer,
                                                std::uint32_t i) override {
    const std::uint64_t args[] = {ops_[i].key};
    return rt.Send(peer, "iput", core::Invoke::kInjected, args,
                   ops_[i].payload);
  }

  /// iput returns the key's heap offset; a key keeps its first offset.
  bool Check(std::uint32_t i, const core::ReceivedMessage& m) override {
    if (m.return_value == ~std::uint64_t{0}) return false;
    const auto [it, fresh] = offset_of_.emplace(ops_[i].key, m.return_value);
    return fresh || it->second == m.return_value;
  }

  std::unordered_map<std::uint64_t, std::uint64_t> offset_of_;
};

}  // namespace

std::unique_ptr<Workload> MakeIncastSsumHardened(std::uint64_t seed) {
  return std::make_unique<SsumHardened>(seed);
}

std::unique_ptr<Workload> MakeTreeIncast(std::uint64_t seed) {
  return std::make_unique<TreeIncast>(seed);
}

}  // namespace perfbench
