// Work-stealing scheduler stress suite: the first feature where two pool
// cores contend for one bank's frames, so it ships with the harness that
// proves the contention safe. A seeded generator draws thousands of short
// skewed incast topologies (pool width, bank shape, wait mode, steal
// on/off, per-spoke load all randomized) and checks the
// scheduler invariants after every run: each frame executed exactly once,
// in-bank completion order intact across claim handoffs, bank flags
// returned only after a full drain and accounted to exactly one drainer,
// nothing left claimed or in flight at drain — plus byte-identical reruns
// on a seed subsample, and directed cases pinning that a skewed pool
// actually steals, a balanced one never does, and stealing shortens the
// skewed drain.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pool_harness.hpp"

namespace twochains::core {
namespace {

using pooltest::MakePoolOptions;
using pooltest::PoolRunResult;
using pooltest::PoolTopology;
using pooltest::RunPoolIncast;

const pkg::Package& BenchPackage() {
  static const pkg::Package package = [] {
    auto built = bench::BuildBenchPackage();
    if (!built.ok()) {
      ADD_FAILURE() << "package build failed: " << built.status();
      std::abort();
    }
    return *built;
  }();
  return package;
}

/// Draws one short random topology. Loads are skewed: every spoke gets a
/// small base load and one hot spoke is multiplied, which is what makes
/// an affinity-sharded pool imbalanced enough to steal.
PoolTopology RandomTopology(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  PoolTopology topo;
  topo.seed = seed;
  topo.spokes = 2 + static_cast<std::uint32_t>(rng.NextBelow(3));     // 2..4
  topo.receiver_cores =
      2 + static_cast<std::uint32_t>(rng.NextBelow(3));               // 2..4
  // Few banks concentrate a hot peer's load on few cores — the shape
  // where affinity sharding skews and stealing gets exercised.
  topo.banks = 1 + static_cast<std::uint32_t>(rng.NextBelow(2));      // 1..2
  topo.mailboxes_per_bank =
      2 + static_cast<std::uint32_t>(rng.NextBelow(3));               // 2..4
  topo.wait_mode =
      rng.NextBelow(2) == 0 ? cpu::WaitMode::kPoll : cpu::WaitMode::kWfe;
  topo.steal.enabled = rng.NextBelow(8) != 0;  // occasionally steal-off
  topo.messages_per_spoke.resize(topo.spokes);
  for (std::uint32_t s = 0; s < topo.spokes; ++s) {
    topo.messages_per_spoke[s] =
        2 + static_cast<std::uint32_t>(rng.NextBelow(6));             // 2..7
  }
  const std::uint32_t hot =
      static_cast<std::uint32_t>(rng.NextBelow(topo.spokes));
  topo.messages_per_spoke[hot] *=
      4 + static_cast<std::uint32_t>(rng.NextBelow(9));               // x4..12
  return topo;
}

std::uint32_t TopologyCount() {
  if (const char* env = std::getenv("TC_STEAL_TOPOLOGIES")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::uint32_t>(v);
  }
  return 1000;
}

TEST(StealInvariantTest, RandomizedTopologiesPreserveSchedulerInvariants) {
  const pkg::Package& package = BenchPackage();
  const std::uint32_t runs = TopologyCount();
  std::uint64_t total_steals = 0;
  std::uint64_t runs_with_steals = 0;
  for (std::uint32_t t = 0; t < runs; ++t) {
    const PoolTopology topo = RandomTopology(0x57EA1000 + t);
    const PoolRunResult result = RunPoolIncast(topo, package);
    pooltest::ExpectPoolInvariants(topo, result);
    total_steals += result.hub.steals;
    if (result.hub.steals > 0) ++runs_with_steals;
    // Byte-identical rerun on a seed subsample: the whole observable
    // state — event counts, stats tables, per-core steal ledgers — must
    // reproduce exactly from the topology spec.
    if (t % 25 == 0) {
      const PoolRunResult again = RunPoolIncast(topo, package);
      EXPECT_EQ(result.fingerprint, again.fingerprint) << topo.Describe();
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing topology: " << topo.Describe();
      break;
    }
  }
  // The sweep must actually exercise the contended path, not vacuously
  // pass on steal-free runs.
  EXPECT_GT(runs_with_steals, runs / 20)
      << "steals triggered in too few topologies (" << runs_with_steals
      << "/" << runs << ", " << total_steals << " total)";
}

/// One frame of a directed steal-trigger run: @p spoke_peer is the hub's
/// peer id of the sending spoke, sent at simulated time @p at.
struct Shot {
  PeerId spoke_peer = 0;
  PicoTime at = 0;
  std::uint64_t usr_bytes = 0;
};

struct TriggerRun {
  std::uint64_t steals = 0;
  /// Every frame the hub executed, in completion order.
  std::vector<ReceivedMessage> executed;
  /// hub.StolenBanksHeld(1) right after each completion (parallel to
  /// `executed`): the steal leases core 1 still holds.
  std::vector<std::uint32_t> core1_stolen_held;
};

/// A 2-core hub pool with one bank per peer, so hub peer p belongs to
/// pool core p % 2: peers 0, 2 and 4 load core 0, and core 1 idles with
/// nothing of its own. Each shot sends one ssum to the hub.
TriggerRun RunTriggerShots(const std::vector<Shot>& shots) {
  PoolTopology topo;
  topo.spokes = 5;
  topo.receiver_cores = 2;
  topo.banks = 1;
  topo.mailboxes_per_bank = 4;
  topo.steal.enabled = true;
  Fabric fabric(MakePoolOptions(topo));
  TriggerRun run;
  if (const Status st = fabric.LoadPackage(BenchPackage()); !st.ok()) {
    ADD_FAILURE() << "package load failed: " << st;
    return run;
  }
  // Spoke host of each hub peer id.
  std::vector<std::uint32_t> spoke_of(topo.spokes);
  for (std::uint32_t h = 1; h <= topo.spokes; ++h) {
    spoke_of[*fabric.PeerIdFor(0, h)] = h;
  }
  Runtime& hub = fabric.runtime(0);
  hub.SetOnExecuted([&run, &hub](const ReceivedMessage& msg) {
    run.executed.push_back(msg);
    run.core1_stolen_held.push_back(hub.StolenBanksHeld(1));
  });
  for (const Shot& shot : shots) {
    const std::uint32_t spoke = spoke_of[shot.spoke_peer];
    const PeerId to_hub = *fabric.PeerIdFor(spoke, 0);
    fabric.engine().ScheduleAt(shot.at, [&fabric, spoke, to_hub, shot] {
      const std::vector<std::uint8_t> usr(shot.usr_bytes, 1);
      auto receipt = fabric.runtime(spoke).Send(to_hub, "ssum",
                                                Invoke::kInjected, {}, usr);
      ASSERT_TRUE(receipt.ok()) << receipt.status();
    });
  }
  fabric.Run();
  run.steals = fabric.runtime(0).stats().steals;
  EXPECT_EQ(run.executed.size(), shots.size());
  return run;
}

/// Index in run.executed of the frame from @p peer, the @p nth one
/// (0-based); run.executed.size() when there is none.
std::size_t FrameIndex(const TriggerRun& run, PeerId peer, std::size_t nth) {
  std::size_t seen = 0;
  for (std::size_t i = 0; i < run.executed.size(); ++i) {
    if (run.executed[i].from == peer && seen++ == nth) return i;
  }
  ADD_FAILURE() << "no frame " << nth << " from peer " << peer;
  return run.executed.size();
}

/// The hub's record of the frame from @p peer, the @p nth one (0-based).
const ReceivedMessage& FrameFrom(const TriggerRun& run, PeerId peer,
                                 std::size_t nth = 0) {
  const std::size_t i = FrameIndex(run, peer, nth);
  static const ReceivedMessage kNone;
  return i < run.executed.size() ? run.executed[i] : kNone;
}

/// Steal leases core 1 held right after the frame from @p peer, the
/// @p nth one, completed.
std::uint32_t Core1StolenHeldAfter(const TriggerRun& run, PeerId peer,
                                   std::size_t nth) {
  const std::size_t i = FrameIndex(run, peer, nth);
  return i < run.core1_stolen_held.size() ? run.core1_stolen_held[i] : 0;
}

/// Pins the steal trigger at kStealThreshold 2 / kStealHysteresis 1. A
/// victim's backlog counts its delivered, not yet completed frames,
/// including the one it is executing. Here a long ssum from peer 0 keeps
/// core 0 busy while short frames from peers 2 and 4 queue behind it.
/// - An idle core that has not stolen yet (unarmed) leaves a backlog of
///   2 alone and steals at 3: fails if the fresh trigger is 2 or 4.
/// - Once a steal succeeded (armed), the thief steals at 2: fails if the
///   armed trigger is 3. (An armed trigger of 1 acts the same here: a
///   victim's lone backlog frame is the one it is executing, which no
///   thief can take.)
TEST(StealInvariantTest, StealTriggerIsThreeFreshAndTwoArmed) {
  constexpr PicoTime kLongAt = 0;
  const PicoTime kShortAt = Microseconds(4.0);
  constexpr std::uint64_t kLong = KiB(32);
  constexpr std::uint64_t kShort = KiB(2);

  // Unarmed, backlog 2 (the long frame + one short): no steal.
  const TriggerRun two =
      RunTriggerShots({{0, kLongAt, kLong}, {2, kShortAt, kShort}});
  EXPECT_EQ(two.steals, 0u);
  EXPECT_LT(FrameFrom(two, 2).delivered_at, FrameFrom(two, 0).completed_at);
  EXPECT_EQ(FrameFrom(two, 2).pool, 0u);

  // Unarmed, backlog 3 (the long frame + two shorts): core 1 steals
  // peer 2's bank and drains it. The lease holds while the bank still has
  // a delivered frame and reverts to core 0 once the last one completes.
  const TriggerRun three = RunTriggerShots(
      {{0, kLongAt, kLong}, {2, kShortAt, kShort}, {2, kShortAt, kShort}});
  EXPECT_EQ(three.steals, 1u);
  EXPECT_EQ(FrameFrom(three, 2, 0).pool, 1u);
  EXPECT_EQ(FrameFrom(three, 2, 1).pool, 1u);
  EXPECT_EQ(Core1StolenHeldAfter(three, 2, 0), 1u);
  EXPECT_EQ(Core1StolenHeldAfter(three, 2, 1), 0u);
  EXPECT_LT(FrameFrom(three, 2, 1).delivered_at,
            FrameFrom(three, 0).completed_at);

  // Armed: peer 4's short frame lands too, before core 1 has drained
  // peer 2's bank. Core 1 comes back armed to a backlog of 2 (the long
  // frame + peer 4's) and steals again.
  const TriggerRun armed = RunTriggerShots({{0, kLongAt, kLong},
                                            {2, kShortAt, kShort},
                                            {2, kShortAt, kShort},
                                            {4, kShortAt, kShort}});
  EXPECT_EQ(armed.steals, 2u);
  EXPECT_EQ(FrameFrom(armed, 4).pool, 1u);
  EXPECT_LT(FrameFrom(armed, 4).delivered_at,
            FrameFrom(armed, 2, 1).completed_at);
  EXPECT_LT(FrameFrom(armed, 4).completed_at,
            FrameFrom(armed, 0).completed_at);
}

/// A hard-skewed pool steals, executes frames off-affinity on the
/// otherwise-idle cores, and drains faster than the same topology with
/// stealing off.
TEST(StealInvariantTest, SkewedPoolStealsAndDrainsFaster) {
  PoolTopology topo;
  topo.spokes = 2;
  topo.receiver_cores = 2;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  // Spoke 0 (hub peer 0, banks -> cores 0 and 1) is light; spoke 1 (hub
  // peer 1, banks -> cores 1 and 0) is light too, but make one spoke
  // overwhelmingly hot so its two banks queue deep while the other
  // spoke's banks run dry.
  topo.messages_per_spoke = {96, 4};
  topo.steal.enabled = true;
  topo.seed = 0xBEEF;

  const PoolRunResult on = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, on);

  PoolTopology off = topo;
  off.steal.enabled = false;
  const PoolRunResult base = RunPoolIncast(off, BenchPackage());
  pooltest::ExpectPoolInvariants(off, base);

  EXPECT_GT(on.hub.steals, 0u);
  EXPECT_GT(on.hub.frames_stolen, 0u);
  EXPECT_GT(on.hub.banks_drained_stolen, 0u);
  // Both pool cores pulled real weight under steal; the fingerprints
  // differ (stealing visibly changed the schedule); and relieving the hot
  // core shortened the makespan.
  for (const std::uint64_t n : on.executed_per_core) EXPECT_GT(n, 0u);
  EXPECT_NE(on.fingerprint, base.fingerprint);
  EXPECT_LT(on.drained_at, base.drained_at);
}

/// A balanced pool — identical load on every spoke, banks spread
/// symmetrically — never pays the locality cost: zero steals.
TEST(StealInvariantTest, BalancedPoolNeverSteals) {
  PoolTopology topo;
  topo.spokes = 2;
  topo.receiver_cores = 2;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  topo.messages_per_spoke = {40, 40};
  topo.identical_streams = true;
  topo.steal.enabled = true;
  topo.seed = 0xBA1A;

  const PoolRunResult result = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, result);
  EXPECT_EQ(result.hub.steals, 0u);
  EXPECT_EQ(result.hub.frames_stolen, 0u);
  EXPECT_EQ(result.hub.banks_drained_stolen, 0u);
}

}  // namespace
}  // namespace twochains::core
