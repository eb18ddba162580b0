// kv_zipf: the serving use. An open loop of Poisson arrivals from 2 client
// hosts into 4 kv shards on a full mesh (fig19's shape), Zipf(1.0) keys
// over 2048 keys, 10% kv_put, the receiver jam cache on (capacity 8) and
// the store preloaded before the measured window. The offered rate, 8 M
// requests per simulated second, sits just below saturation, so the tail
// is queueing.
#include <deque>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "jamlib/jamlib.hpp"
#include "jamlib/kv_service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using twochains::Status;
using twochains::StatusCode;
using twochains::Xoshiro256;
namespace jamlib = twochains::jamlib;

constexpr std::uint32_t kClients = 2;
constexpr std::uint32_t kShards = 4;
constexpr std::uint64_t kKeys = 2048;
constexpr double kZipfTheta = 1.0;
constexpr double kPutFraction = 0.10;
/// Offered load, requests per simulated microsecond (all clients).
constexpr double kOfferedMops = 8.0;
constexpr std::uint32_t kOps = 400'000;

/// A value that can never read as kKvMiss (-1).
std::int64_t FreshValue(Xoshiro256& rng) {
  return static_cast<std::int64_t>(rng.Next() >> 2);
}

class KvZipf final : public Workload {
 public:
  explicit KvZipf(std::uint64_t seed) {
    Xoshiro256 values(seed ^ 0x6b76'7072'656c'6f61ull);
    preload_value_.resize(kKeys);
    for (std::int64_t& v : preload_value_) v = FreshValue(values);

    const double mean_gap_ps = 1e6 / (kOfferedMops / kClients);
    ops_.resize(kOps);
    for (std::uint32_t c = 0; c < kClients; ++c) {
      Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + c + 1);
      double t = 0;
      for (std::uint32_t i = c; i < kOps; i += kClients) {
        Op& op = ops_[i];
        t += rng.NextExponential(mean_gap_ps);
        op.arrival = static_cast<PicoTime>(t);
        op.key = rng.NextZipf(kKeys, kZipfTheta);
        op.put = rng.NextBernoulli(kPutFraction);
        if (op.put) op.value = FreshValue(rng);
        client_ops_[c].push_back(i);
      }
    }
  }

  core::FabricOptions Options() const override {
    core::FabricOptions opts;
    opts.hosts = kClients + kShards;
    opts.topology = core::Topology::kFullMesh;
    opts.runtime.jam_cache.enabled = true;
    opts.runtime.jam_cache.capacity = 8;
    return opts;
  }

  twochains::pkg::PackageBuilder Package() const override {
    return jamlib::MakeJamlibPackageBuilder();
  }
  std::string PackageName() const override { return "tcjamlib"; }

  Status Warm(core::Fabric& fabric, std::uint64_t* failures) override {
    Wire(fabric);
    slot_of_.assign(kKeys, -1);
    // Every key written once, closed loop, by client key % kClients.
    OpLedger ledger(fabric, ShardHosts(), ClientHosts(), kKeys,
                    [this](std::uint32_t key, const core::ReceivedMessage& m) {
                      const auto slot =
                          static_cast<std::int64_t>(m.return_value);
                      slot_of_[key] = slot;
                      return slot >= 0;
                    });
    std::vector<std::unique_ptr<ClosedLoopSender>> senders;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      std::vector<std::uint32_t> keys;
      for (std::uint32_t k = c; k < kKeys; k += kClients) keys.push_back(k);
      core::Runtime& rt = fabric.runtime(c);
      senders.push_back(std::make_unique<ClosedLoopSender>(
          fabric, ledger, c, std::move(keys),
          [this, c](std::uint32_t key) { return tx_peer_[c][ShardOf(key)]; },
          [this, c, &rt](std::uint32_t key) {
            const std::uint64_t args[] = {
                key, static_cast<std::uint64_t>(preload_value_[key])};
            return rt.Send(tx_peer_[c][ShardOf(key)], "kv_put",
                           core::Invoke::kInjected, args, {});
          }));
    }
    for (auto& s : senders) s->Start(fabric.engine().Now() + 1);
    fabric.Run();
    fabric.Run();  // drain the flag returns behind the last completion
    for (auto& s : senders) {
      if (!s->error().ok()) return s->error();
    }
    *failures += ledger.Failures();
    reference_ = preload_value_;
    return Status::Ok();
  }

  std::unique_ptr<OpLedger> Start(core::Fabric& fabric,
                                  PicoTime start) override {
    fabric_ = &fabric;
    auto ledger = std::make_unique<OpLedger>(
        fabric, ShardHosts(), ClientHosts(), kOps,
        [this](std::uint32_t i, const core::ReceivedMessage& m) {
          return Check(i, m);
        });
    ledger_ = ledger.get();
    start_ = start;
    for (std::uint32_t i = 0; i < kOps; ++i) {
      ledger->op(i).due = start + ops_[i].arrival;
    }
    for (std::uint32_t c = 0; c < kClients; ++c) {
      next_[c] = 0;
      ScheduleArrival(c);
    }
    return ledger;
  }

  Status error() const override { return error_; }

  void Release() override {
    ledger_ = nullptr;
    fabric_ = nullptr;
  }

 private:
  struct Op {
    PicoTime arrival = 0;  ///< offset from the window start
    std::uint64_t key = 0;
    bool put = false;
    std::int64_t value = 0;
  };

  /// One (client, shard) link: requests wait here while flow control
  /// refuses, and their wait counts toward their latency.
  struct Link {
    std::deque<std::uint32_t> backlog;
    bool waiting = false;
  };

  static std::vector<std::uint32_t> ClientHosts() { return {0, 1}; }
  static std::vector<std::uint32_t> ShardHosts() { return {2, 3, 4, 5}; }

  std::uint32_t ShardOf(std::uint64_t key) const {
    return shard_map_.ShardOf(key);
  }

  void Wire(core::Fabric& fabric) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      for (std::uint32_t s = 0; s < kShards; ++s) {
        tx_peer_[c][s] = *fabric.PeerIdFor(c, kClients + s);
      }
    }
  }

  /// Runs on the shard, in its execution order: gets must read the value
  /// of the last put before them; puts must land in the key's slot.
  bool Check(std::uint32_t i, const core::ReceivedMessage& m) {
    const Op& op = ops_[i];
    const auto ret = static_cast<std::int64_t>(m.return_value);
    if (op.put) {
      reference_[op.key] = op.value;
      return ret == slot_of_[op.key];
    }
    return ret == reference_[op.key];
  }

  void ScheduleArrival(std::uint32_t c) {
    const std::vector<std::uint32_t>& mine = client_ops_[c];
    if (next_[c] >= mine.size()) return;
    const std::uint32_t i = mine[next_[c]++];
    fabric_->engine().ScheduleAtOn(
        c, start_ + ops_[i].arrival,
        [this, c, i] {
          Link& link = links_[c][ShardOf(ops_[i].key)];
          link.backlog.push_back(i);
          if (!link.waiting) Drain(c, ShardOf(ops_[i].key));
          ScheduleArrival(c);
        },
        "perfbench.arrive");
  }

  void Drain(std::uint32_t c, std::uint32_t s) {
    Link& link = links_[c][s];
    core::Runtime& rt = fabric_->runtime(c);
    const core::PeerId peer = tx_peer_[c][s];
    while (!link.backlog.empty()) {
      const std::uint32_t i = link.backlog.front();
      const Op& op = ops_[i];
      const std::uint64_t args[] = {op.key,
                                    static_cast<std::uint64_t>(op.value)};
      static const std::size_t kSend = TagClock::Bucket("tc.send");
      const auto receipt = Timed(ledger_->clock(), kSend, [&] {
        return rt.Send(peer, op.put ? "kv_put" : "kv_get",
                       core::Invoke::kInjected,
                       std::span<const std::uint64_t>(args, op.put ? 2 : 1),
                       {});
      });
      if (!receipt.ok()) {
        if (receipt.status().code() != StatusCode::kResourceExhausted) {
          error_ = receipt.status();
          fabric_->engine().Stop();
          return;
        }
        link.waiting = true;
        rt.NotifyWhenSlotFree(peer, [this, c, s] {
          links_[c][s].waiting = false;
          Drain(c, s);
        });
        return;
      }
      ledger_->RecordSend(c, i, receipt->sn);
      link.backlog.pop_front();
    }
  }

  std::vector<Op> ops_;
  std::vector<std::uint32_t> client_ops_[kClients];
  std::vector<std::int64_t> preload_value_;
  /// Slot each key landed in at preload (no key is ever deleted).
  std::vector<std::int64_t> slot_of_;
  /// The value each key holds, updated in the shards' execution order.
  std::vector<std::int64_t> reference_;

  jamlib::KvShardMap shard_map_{kShards, kClients};
  core::PeerId tx_peer_[kClients][kShards] = {};
  Link links_[kClients][kShards];
  std::size_t next_[kClients] = {};
  core::Fabric* fabric_ = nullptr;
  OpLedger* ledger_ = nullptr;
  PicoTime start_ = 0;
  Status error_;
};

}  // namespace

std::unique_ptr<Workload> MakeKvZipf(std::uint64_t seed) {
  return std::make_unique<KvZipf>(seed);
}

}  // namespace perfbench
