// Soak / stress suite (ctest label: "soak"): a 4-host star drives mixed
// injected/local traffic in both directions under the benchlib stress
// model (seeded DRAM contention + receiver preemption), with the hub
// draining through a 2-core receiver pool and LLC stashing toggled per
// run. The invariant under test is mailbox hygiene: at drain, no frame
// is left in any mailbox slice and every bank flag has returned to its
// owning sender — the "no mailbox leak" property that pooled, sharded
// banks must preserve under hostile timing.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "benchlib/stress.hpp"
#include "benchlib/workloads.hpp"
#include "common/pump.hpp"
#include "common/rng.hpp"
#include "core/fabric.hpp"

namespace twochains::core {
namespace {

constexpr std::uint32_t kSpokes = 3;
constexpr std::uint32_t kToHubPerSpoke = 400;   // spoke -> hub
constexpr std::uint32_t kFromHubPerSpoke = 200; // hub -> spoke
constexpr std::uint64_t kSeed = 0x50AC;

FabricOptions SoakOptions(bool stashing, bool stealing) {
  FabricOptions options;
  options.hosts = kSpokes + 1;
  options.topology = Topology::kStar;
  options.hub = 0;
  options.runtime.banks = 4;
  options.runtime.mailboxes_per_bank = 4;
  options.runtime.mailbox_slot_bytes = KiB(64);
  options.runtime.sender_core = 2;  // keep sends off the hub's pool cores
  options.nic.stash_to_llc = stashing;
  options.runtime_overrides.assign(options.hosts, options.runtime);
  options.runtime_overrides[0].receiver_cores = 2;
  if (stealing) {
    // Hub pool steals so the stressed, skewed run exercises claim
    // handoffs constantly.
    StealConfig steal;
    steal.enabled = true;
    options.runtime_overrides[0].steal = steal;
  }
  return options;
}

/// One seeded traffic pump: @p total mixed messages from @p rt to @p peer,
/// paced by flow control and the sender CPU. The caller owns @p pump and
/// must keep it alive while the engine runs.
void StartPump(Fabric& fabric, Runtime& rt, PeerId peer, std::uint32_t total,
               std::uint64_t seed, PumpLoop<>& pump) {
  struct PumpState {
    std::uint32_t sent = 0;
    Xoshiro256 rng;
    explicit PumpState(std::uint64_t s) : rng(s) {}
  };
  auto state = std::make_shared<PumpState>(seed);
  pump.Set([state, &fabric, &rt, peer, total, resume = pump.Handle()]() {
    if (state->sent >= total) return;
    if (!rt.HasFreeSlot(peer)) {
      rt.NotifyWhenSlotFree(peer, resume);
      return;
    }
    const std::uint64_t kind = state->rng.NextBelow(3);
    const std::string jam = kind == 0 ? "iput" : "ssum";
    const Invoke mode = kind == 2 ? Invoke::kLocal : Invoke::kInjected;
    const std::vector<std::uint64_t> args = {state->rng.NextBelow(128)};
    std::vector<std::uint8_t> usr(8 * (1 + state->rng.NextBelow(8)));
    for (std::size_t i = 0; i < usr.size(); i += 8) {
      const std::uint64_t v = state->rng.Next();
      std::memcpy(usr.data() + i, &v, 8);
    }
    auto receipt = rt.Send(peer, jam, mode, args, usr);
    ASSERT_TRUE(receipt.ok()) << receipt.status();
    ++state->sent;
    fabric.engine().ScheduleAfter(receipt->sender_cost, resume,
                                  "soak.send");
  });
  pump();
}

void RunSoak(bool stashing, bool stealing = false) {
  Fabric fabric(SoakOptions(stashing, stealing));
  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok()) << package.status();
  ASSERT_TRUE(fabric.LoadPackage(*package).ok());

  bench::StressConfig stress;
  stress.seed = kSeed;
  bench::ApplyStress(fabric, stress);

  // The steal variant skews the incast: spoke 1 pushes 3x the traffic,
  // backing up its affinity core while a sibling core idles.
  std::vector<std::uint32_t> to_hub(kSpokes + 1, kToHubPerSpoke);
  if (stealing) to_hub[1] = 3 * kToHubPerSpoke;

  std::vector<PumpLoop<>> pumps(2 * kSpokes);
  for (std::uint32_t s = 1; s <= kSpokes; ++s) {
    StartPump(fabric, fabric.runtime(s), *fabric.PeerIdFor(s, 0),
              to_hub[s], kSeed + 13 * s, pumps[2 * (s - 1)]);
    StartPump(fabric, fabric.runtime(0), *fabric.PeerIdFor(0, s),
              kFromHubPerSpoke, kSeed + 131 * s, pumps[2 * (s - 1) + 1]);
  }
  fabric.Run();
  bench::ClearStress(fabric);

  // Every message sent was delivered and executed.
  std::uint64_t hub_expect = 0;
  for (std::uint32_t s = 1; s <= kSpokes; ++s) hub_expect += to_hub[s];
  EXPECT_EQ(fabric.runtime(0).stats().messages_executed, hub_expect);
  for (std::uint32_t s = 1; s <= kSpokes; ++s) {
    EXPECT_EQ(fabric.runtime(s).stats().messages_executed,
              static_cast<std::uint64_t>(kFromHubPerSpoke));
  }

  // No mailbox leak: nothing in flight, every bank flag back home, and
  // every returned flag accounted to exactly one drainer — the
  // owner-drained + stolen-drained ledger must reconcile with the flag
  // counter on every host (a flag returned early or twice breaks it).
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    Runtime& rt = fabric.runtime(h);
    EXPECT_EQ(rt.InFlightFrames(), 0u) << "host " << h;
    EXPECT_EQ(rt.stats().banks_drained_owner + rt.stats().banks_drained_stolen,
              rt.stats().bank_flags_returned)
        << "host " << h;
    for (PeerId p = 0; p < rt.peer_count(); ++p) {
      EXPECT_EQ(rt.ClosedSendBanks(p), 0u) << "host " << h << " peer " << p;
      EXPECT_TRUE(rt.HasFreeSlot(p)) << "host " << h << " peer " << p;
    }
    for (std::uint32_t c = 0; c < rt.receiver_pool_size(); ++c) {
      EXPECT_EQ(rt.StolenBanksHeld(c), 0u) << "host " << h << " core " << c;
    }
  }
  if (stealing) {
    // The skew really drove the contended path: banks were stolen, and
    // some were drained to flag return by their thief.
    EXPECT_GT(fabric.runtime(0).stats().steals, 0u);
    EXPECT_GT(fabric.runtime(0).stats().banks_drained_stolen, 0u);
  } else {
    EXPECT_EQ(fabric.runtime(0).stats().steals, 0u);
    EXPECT_EQ(fabric.runtime(0).stats().banks_drained_stolen, 0u);
  }

  // Flag traffic really happened (the invariant is not vacuous): each
  // spoke filled many banks toward the hub.
  const auto& hub_peers = fabric.runtime(0).stats().per_peer;
  ASSERT_EQ(hub_peers.size(), kSpokes);
  for (const PeerStats& p : hub_peers) {
    EXPECT_GE(p.bank_flags_returned, kToHubPerSpoke / 4 - 4);
  }
}

TEST(SoakTest, MixedTrafficWithStashingDrainsClean) { RunSoak(true); }

TEST(SoakTest, MixedTrafficWithoutStashingDrainsClean) { RunSoak(false); }

// Steal-mode soak: the same stressed star with a skewed incast and the
// hub pool stealing. Mailbox hygiene must survive constant claim
// handoffs, and the drained-bank ledger must reconcile exactly.
TEST(SoakTest, SkewedStealingPoolDrainsClean) {
  RunSoak(true, /*stealing=*/true);
}

}  // namespace
}  // namespace twochains::core
