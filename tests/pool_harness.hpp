// Shared scaffolding for the receiver-pool scheduler suites
// (determinism_test, steal_test, quiesce_test, switch_test): seeded —
// optionally skewed — incast workloads over a star or switched-tree
// fabric, an observable-state fingerprint for byte-exact rerun
// comparison, and the invariants the work-stealing protocol must
// preserve:
//   * every frame sent is executed exactly once (no lost or double-begun
//     bank heads across a claim handoff);
//   * frames of one bank complete in cursor order (the handoff never lets
//     two cores interleave within a bank);
//   * bank flags return only after a full drain: the hub's returned-flag
//     count equals the banks the senders actually filled, and every flag
//     is accounted to exactly one drainer (owner or thief);
//   * at drain nothing is left in flight, no send bank stays closed, and
//     every stolen claim has reverted to its affinity owner.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/workloads.hpp"
#include "common/pump.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "core/fabric.hpp"

namespace twochains::core::pooltest {

/// One scheduled hotplug event inside a harness run, keyed off the hub's
/// executed-frame count (not simulated time) so the schedule is stable
/// under any timing change and reruns stay byte-identical.
struct QuiesceEvent {
  std::uint32_t pool_index = 0;
  /// QuiesceCore fires right after the hub executes this many frames.
  std::uint64_t after_executed = 1;
  /// ReviveCore fires after this many executed frames (0 = never revive).
  std::uint64_t revive_after = 0;
};

/// One spoke->hub incast shape for the pool scheduler. Everything the run
/// does is derived deterministically from this spec plus the seed.
struct PoolTopology {
  std::uint32_t spokes = 2;
  std::uint32_t receiver_cores = 2;
  std::uint32_t banks = 2;
  std::uint32_t mailboxes_per_bank = 4;
  std::uint64_t mailbox_slot_bytes = KiB(64);
  cpu::WaitMode wait_mode = cpu::WaitMode::kPoll;
  StealConfig steal{};
  /// Messages spoke s (0-based) pushes into the hub — the skew knob.
  std::vector<std::uint32_t> messages_per_spoke;
  /// True = every spoke draws the same jam/payload stream (a genuinely
  /// balanced offered load, for the zero-steals-when-balanced invariant);
  /// false = per-spoke streams (realistic mixed traffic).
  bool identical_streams = false;
  /// Hotplug schedule: pool cores quiesced (and possibly revived)
  /// mid-drain. Events whose precondition fails at fire time (e.g. the
  /// last active core) are counted as refused, not fatal — the randomized
  /// sweep is allowed to draw impossible plans.
  std::vector<QuiesceEvent> quiesce;
  /// Receiver-side jam cache on every host (spokes send by-handle once
  /// the hub holds their content; misses ride the NAK/resend path).
  JamCacheConfig jam_cache{};
  /// kStar = direct cables (the classic harness shape); kTree routes the
  /// same hub-spoke logical traffic through a switched host->ToR->spine
  /// fabric, where frames contend in shared switch buffers and pick up
  /// ECN marks.
  Topology topology = Topology::kStar;
  /// Tree shape and per-switch knobs (kTree only).
  TreeConfig tree{};
  net::SwitchConfig switches{};
  /// ECN-driven AIMD bank flow control, applied on every host.
  AdaptiveBankConfig adaptive{};
  /// Executor lanes for the engine (1 = the scalar reference). Any value
  /// must reproduce the lanes=1 fingerprint byte for byte.
  std::uint32_t lanes = 1;
  std::uint64_t seed = 1;

  std::string Describe() const {
    std::string msgs;
    for (const std::uint32_t m : messages_per_spoke) {
      if (!msgs.empty()) msgs += ",";
      msgs += StrFormat("%u", m);
    }
    std::string plugs;
    for (const QuiesceEvent& q : quiesce) {
      plugs += StrFormat(" q{c%u@%llu r@%llu}", q.pool_index,
                         static_cast<unsigned long long>(q.after_executed),
                         static_cast<unsigned long long>(q.revive_after));
    }
    std::string net;
    if (topology == Topology::kTree) {
      net = StrFormat(
          " tree{arity=%u tiers=%u over=%.1f buf=%llu ecn=%llu}", tree.arity,
          tree.tiers, tree.oversub,
          static_cast<unsigned long long>(switches.buffer_bytes),
          static_cast<unsigned long long>(switches.ecn_threshold_bytes));
    }
    if (adaptive.enabled) {
      net += StrFormat(" aimd{min=%u ai=%u beta=%u}", adaptive.min_banks,
                       adaptive.additive_increase_milli,
                       adaptive.decrease_beta_milli);
    }
    return StrFormat(
        "spokes=%u cores=%u banks=%u mpb=%u lanes=%u wait=%s steal{on=%d "
        "thr=%u hys=%u} jam{on=%d cap=%u}%s msgs=[%s]%s%s seed=%llu",
        spokes, receiver_cores, banks, mailboxes_per_bank, lanes,
        wait_mode == cpu::WaitMode::kPoll ? "poll" : "wfe",
        steal.enabled ? 1 : 0, steal.threshold, steal.hysteresis,
        jam_cache.enabled ? 1 : 0, jam_cache.capacity, net.c_str(),
        msgs.c_str(), identical_streams ? " identical" : "", plugs.c_str(),
        static_cast<unsigned long long>(seed));
  }
};

/// Everything a run exposes for invariant checks and rerun comparison.
struct PoolRunResult {
  std::string fingerprint;
  std::uint64_t sent = 0;
  std::uint64_t executed = 0;
  std::uint64_t duplicate_executions = 0;  ///< (peer, sn) seen twice
  std::uint64_t order_violations = 0;      ///< in-bank completion off-cursor
  std::uint64_t expected_flag_returns = 0; ///< banks the senders filled
  std::uint64_t in_flight_at_drain = 0;
  std::uint32_t closed_send_banks = 0;     ///< summed over spokes, at drain
  std::uint32_t stolen_claims_held = 0;    ///< summed over pool, at drain
  RuntimeStats hub;                        ///< hub stats copy at drain
  /// Frames executed per hub pool member (index = pool index).
  std::vector<std::uint64_t> executed_per_core;
  /// Simulated instant the engine drained (the run's makespan).
  PicoTime drained_at = 0;

  // Hotplug observables.
  std::uint64_t quiesces_applied = 0;      ///< QuiesceCore calls that took
  std::uint64_t quiesces_refused = 0;      ///< e.g. last-active-core plans
  std::uint64_t revives_applied = 0;
  std::uint64_t revives_refused = 0;
  /// Sum of QuiesceCore return values: the stranded backlog each applied
  /// quiesce reported handing over (reconciles against the hub ledger's
  /// frames_drained_during_quiesce).
  std::uint64_t stranded_reported = 0;
  std::uint32_t pending_rehomes_at_drain = 0;
  std::uint32_t active_cores_at_drain = 0;
  /// Banks homed per pool member at drain (index = pool index).
  std::vector<std::uint32_t> banks_homed_at_drain;
  /// Banks still homed to a non-active member at drain (must be zero).
  std::uint32_t banks_homed_dark_at_drain = 0;
  /// Per-core re-shard mirrors summed over the pool.
  std::uint64_t resharded_in_sum = 0;
  std::uint64_t resharded_out_sum = 0;

  // Switched-fabric / ECN observables (all zero on direct-cabled runs).
  std::uint64_t switch_frames_forwarded = 0;  ///< summed over switches
  std::uint64_t switch_frames_marked = 0;
  std::uint64_t switch_frames_dropped = 0;    ///< must stay zero: drop-free
  std::uint64_t switch_backpressure_holds = 0;
  std::uint64_t nic_ecn_marks_delivered = 0;  ///< summed over host NICs
  std::uint64_t ecn_marks_seen_sum = 0;       ///< summed over runtimes
  std::uint64_t ecn_echoes_sent_sum = 0;
  std::uint64_t ecn_echoes_seen_sum = 0;
  std::uint64_t cwnd_increases_sum = 0;
  std::uint64_t cwnd_decreases_sum = 0;
  std::uint64_t adaptive_refusals_sum = 0;
  /// Per-spoke adaptive-window excursion toward the hub (milli-banks).
  std::vector<std::uint64_t> window_min_milli;
  std::vector<std::uint64_t> window_max_milli;

  // Jam-cache observables (all zero when the cache is off).
  JamCacheStats hub_jam;                    ///< hub cache stats at drain
  std::uint64_t spoke_by_handle_sends = 0;  ///< summed over spokes
  std::uint64_t spoke_naks_received = 0;
  std::uint64_t spoke_resends = 0;
  std::uint64_t miss_completions = 0;  ///< hook saw cache_miss frames
  std::uint32_t hub_cache_entries = 0;
  std::uint64_t hub_cache_bytes = 0;
};

inline FabricOptions MakePoolOptions(const PoolTopology& topo) {
  FabricOptions options;
  options.hosts = topo.spokes + 1;
  options.topology = topo.topology;
  options.hub = 0;
  options.tree = topo.tree;
  options.switches = topo.switches;
  options.runtime.adaptive = topo.adaptive;
  options.runtime.banks = topo.banks;
  options.runtime.mailboxes_per_bank = topo.mailboxes_per_bank;
  options.runtime.mailbox_slot_bytes = topo.mailbox_slot_bytes;
  options.runtime.wait.mode = topo.wait_mode;
  // The cache knob applies fabric-wide: spokes need it to *send* by-handle,
  // the hub needs it to install and serve (and to NAK what it lacks).
  options.runtime.jam_cache = topo.jam_cache;
  // The hub only receives; give it room for the pool and keep its
  // (unused) sender core off the pool.
  options.host_overrides.assign(options.hosts, options.host);
  options.host_overrides[0].cache.cores =
      std::max(options.host.cache.cores, topo.receiver_cores + 1);
  options.runtime_overrides.assign(options.hosts, options.runtime);
  options.runtime_overrides[0].receiver_cores = topo.receiver_cores;
  options.runtime_overrides[0].sender_core = topo.receiver_cores;
  options.runtime_overrides[0].steal = topo.steal;
  options.engine.lanes = topo.lanes;
  return options;
}

/// Serializes everything an observer can see — engine counters, every
/// runtime's stats table, and the hub's per-core counters including the
/// steal ledger — into one string for byte-exact comparison.
inline std::string PoolFingerprint(Fabric& fabric) {
  std::string out = StrFormat("events=%llu now=%llu\n",
                              static_cast<unsigned long long>(
                                  fabric.engine().EventsProcessed()),
                              static_cast<unsigned long long>(
                                  fabric.engine().Now()));
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    const RuntimeStats& s = fabric.runtime(h).stats();
    out += StrFormat(
        "host%u sent=%llu exec=%llu deliv=%llu bytes=%llu flags=%llu "
        "stalls=%llu rej=%llu waits=%llu steals=%llu fstolen=%llu "
        "downer=%llu dstolen=%llu reshard=%llu qdrain=%llu\n",
        h, static_cast<unsigned long long>(s.messages_sent),
        static_cast<unsigned long long>(s.messages_executed),
        static_cast<unsigned long long>(s.messages_delivered),
        static_cast<unsigned long long>(s.bytes_sent),
        static_cast<unsigned long long>(s.bank_flags_returned),
        static_cast<unsigned long long>(s.send_stalls),
        static_cast<unsigned long long>(s.security_rejections),
        static_cast<unsigned long long>(s.wait_episodes),
        static_cast<unsigned long long>(s.steals),
        static_cast<unsigned long long>(s.frames_stolen),
        static_cast<unsigned long long>(s.banks_drained_owner),
        static_cast<unsigned long long>(s.banks_drained_stolen),
        static_cast<unsigned long long>(s.banks_resharded),
        static_cast<unsigned long long>(s.frames_drained_during_quiesce));
    out += StrFormat(
        "  ecn%u seen=%llu echoTX=%llu echoRX=%llu up=%llu down=%llu "
        "refuse=%llu nicmark=%llu\n",
        h, static_cast<unsigned long long>(s.ecn_marks_seen),
        static_cast<unsigned long long>(s.ecn_echoes_sent),
        static_cast<unsigned long long>(s.ecn_echoes_seen),
        static_cast<unsigned long long>(s.cwnd_increases),
        static_cast<unsigned long long>(s.cwnd_decreases),
        static_cast<unsigned long long>(s.adaptive_refusals),
        static_cast<unsigned long long>(fabric.nic(h).ecn_marks_delivered()));
    const JamCacheStats& js = fabric.runtime(h).jam_cache_stats();
    out += StrFormat(
        "  jam%u hits=%llu miss=%llu inst=%llu evict=%llu inval=%llu "
        "nakTX=%llu nakRX=%llu bh=%llu resend=%llu bsave=%llu csave=%llu\n",
        h, static_cast<unsigned long long>(js.hits),
        static_cast<unsigned long long>(js.misses),
        static_cast<unsigned long long>(js.installs),
        static_cast<unsigned long long>(js.evictions),
        static_cast<unsigned long long>(js.invalidations),
        static_cast<unsigned long long>(js.naks_sent),
        static_cast<unsigned long long>(js.naks_received),
        static_cast<unsigned long long>(js.by_handle_sends),
        static_cast<unsigned long long>(js.resends),
        static_cast<unsigned long long>(js.bytes_saved),
        static_cast<unsigned long long>(js.link_cycles_saved));
    for (std::size_t p = 0; p < s.per_peer.size(); ++p) {
      const PeerStats& ps = s.per_peer[p];
      out += StrFormat(
          "  peer%zu sent=%llu deliv=%llu exec=%llu bytes=%llu "
          "stalls=%llu flags=%llu\n",
          p, static_cast<unsigned long long>(ps.messages_sent),
          static_cast<unsigned long long>(ps.messages_delivered),
          static_cast<unsigned long long>(ps.messages_executed),
          static_cast<unsigned long long>(ps.bytes_sent),
          static_cast<unsigned long long>(ps.send_stalls),
          static_cast<unsigned long long>(ps.bank_flags_returned));
    }
  }
  Runtime& hub = fabric.runtime(0);
  for (std::uint32_t c = 0; c < hub.receiver_pool_size(); ++c) {
    const cpu::PerfCounters& pc = hub.receiver_cpu(c).counters();
    const cpu::WaitStats& ws = hub.receiver_wait_stats(c);
    out += StrFormat(
        "core%u exec=%llu wait=%llu pack=%llu mem=%llu instr=%llu "
        "msgs=%llu episodes=%llu idle=%llu detect=%llu burned=%llu "
        "bstolen=%llu bdonated=%llu fstolen=%llu quiesces=%llu rin=%llu "
        "rout=%llu\n",
        c,
        static_cast<unsigned long long>(pc.Of(cpu::CycleClass::kExecute)),
        static_cast<unsigned long long>(pc.Of(cpu::CycleClass::kWait)),
        static_cast<unsigned long long>(pc.Of(cpu::CycleClass::kPack)),
        static_cast<unsigned long long>(pc.Of(cpu::CycleClass::kMemory)),
        static_cast<unsigned long long>(pc.instructions),
        static_cast<unsigned long long>(pc.messages_handled),
        static_cast<unsigned long long>(ws.episodes),
        static_cast<unsigned long long>(ws.idle_picos),
        static_cast<unsigned long long>(ws.detection_picos),
        static_cast<unsigned long long>(ws.cycles_burned),
        static_cast<unsigned long long>(ws.banks_stolen),
        static_cast<unsigned long long>(ws.banks_donated),
        static_cast<unsigned long long>(ws.frames_stolen),
        static_cast<unsigned long long>(ws.quiesces),
        static_cast<unsigned long long>(ws.banks_resharded_in),
        static_cast<unsigned long long>(ws.banks_resharded_out));
  }
  for (std::uint32_t i = 0; i < fabric.switch_count(); ++i) {
    net::Switch& sw = fabric.sw(i);
    out += StrFormat(
        "sw%u(%s) fwd=%llu mark=%llu drop=%llu hold=%llu peak=%llu\n", i,
        sw.name().c_str(),
        static_cast<unsigned long long>(sw.frames_forwarded()),
        static_cast<unsigned long long>(sw.frames_marked()),
        static_cast<unsigned long long>(sw.frames_dropped()),
        static_cast<unsigned long long>(sw.backpressure_holds()),
        static_cast<unsigned long long>(sw.peak_buffer_bytes()));
  }
  return out;
}

/// Drives the seeded mixed workload (injected ssum/iput/nop plus local
/// ssum, varying payloads) from every spoke into the hub, observing the
/// scheduler through the hub's SetOnExecuted hook, and returns the run's
/// observable state once the engine drains.
inline PoolRunResult RunPoolIncast(const PoolTopology& topo,
                                   const pkg::Package& package) {
  PoolRunResult result;
  Fabric fabric(MakePoolOptions(topo));
  if (const Status st = fabric.LoadPackage(package); !st.ok()) {
    ADD_FAILURE() << "package load failed: " << st << " ["
                  << topo.Describe() << "]";
    return result;
  }

  Runtime& hub = fabric.runtime(0);
  const std::uint32_t in_bank_slots = topo.mailboxes_per_bank;
  result.executed_per_core.assign(hub.receiver_pool_size(), 0);

  // Scheduler observers: exactly-once by (peer, sn) and in-bank cursor
  // order by (peer, bank). The hotplug schedule rides the same hook:
  // events fire off the executed-frame count, as zero-delay engine events
  // so the quiesce/revive lands between completions, never inside one.
  std::map<std::pair<PeerId, std::uint32_t>, std::uint32_t> seen_sn;
  std::map<std::pair<PeerId, std::uint32_t>, std::uint32_t> next_in_bank;
  hub.SetOnExecuted([&](const ReceivedMessage& msg) {
    // A by-handle cache miss completes (drains, returns its flag) without
    // executing; its full-body resend — a fresh sn — executes instead, so
    // only actual executions count against the pump's send total.
    if (msg.cache_miss) ++result.miss_completions;
    if (!msg.cache_miss) ++result.executed;
    if (msg.pool < result.executed_per_core.size()) {
      ++result.executed_per_core[msg.pool];
    }
    if (++seen_sn[{msg.from, msg.sn}] > 1) ++result.duplicate_executions;
    const std::uint32_t bank = msg.slot / in_bank_slots;
    std::uint32_t& expect = next_in_bank[{msg.from, bank}];
    if (msg.slot % in_bank_slots != expect) ++result.order_violations;
    expect = (expect + 1) % in_bank_slots;
    for (const QuiesceEvent& q : topo.quiesce) {
      if (result.executed == q.after_executed) {
        fabric.engine().ScheduleAfter(0, [&hub, &result, q] {
          const auto stranded = hub.QuiesceCore(q.pool_index);
          if (stranded.ok()) {
            ++result.quiesces_applied;
            result.stranded_reported += *stranded;
          } else {
            ++result.quiesces_refused;
          }
        }, "pool.quiesce");
      }
      if (q.revive_after != 0 && result.executed == q.revive_after) {
        fabric.engine().ScheduleAfter(0, [&hub, &result, q] {
          if (hub.ReviveCore(q.pool_index).ok()) {
            ++result.revives_applied;
          } else {
            ++result.revives_refused;
          }
        }, "pool.revive");
      }
    }
  });

  // One seeded pump per spoke, paced by flow control and the sender CPU.
  struct Sender {
    PeerId to_hub = kInvalidPeer;
    std::uint32_t sent = 0;
    std::uint32_t total = 0;
    Xoshiro256 rng{0};
  };
  auto senders = std::make_shared<std::vector<Sender>>(topo.spokes);
  for (std::uint32_t s = 0; s < topo.spokes; ++s) {
    auto peer = fabric.PeerIdFor(s + 1, 0);
    if (!peer.ok()) {
      ADD_FAILURE() << "peer lookup failed: " << peer.status();
      return result;
    }
    (*senders)[s].to_hub = *peer;
    (*senders)[s].total = topo.messages_per_spoke[s];
    (*senders)[s].rng =
        Xoshiro256(topo.identical_streams ? topo.seed : topo.seed + 7919 * s);
  }

  PumpLoop<std::uint32_t> pump;
  pump.Set([senders, &fabric, resume = pump.Handle()](std::uint32_t s) {
    Sender& sender = (*senders)[s];
    Runtime& rt = fabric.runtime(s + 1);
    if (sender.sent >= sender.total) return;
    if (!rt.HasFreeSlot(sender.to_hub)) {
      rt.NotifyWhenSlotFree(sender.to_hub, [resume, s] { resume(s); });
      return;
    }
    const std::uint64_t kind = sender.rng.NextBelow(4);
    const std::string jam = kind == 1 ? "iput" : kind == 2 ? "nop" : "ssum";
    const Invoke mode = kind == 3 ? Invoke::kLocal : Invoke::kInjected;
    const std::vector<std::uint64_t> args = {sender.rng.NextBelow(128)};
    std::vector<std::uint8_t> usr(8 * (1 + sender.rng.NextBelow(8)));
    for (std::size_t i = 0; i < usr.size(); i += 8) {
      const std::uint64_t v = sender.rng.Next();
      std::memcpy(usr.data() + i, &v, 8);
    }
    auto receipt = rt.Send(sender.to_hub, jam, mode, args, usr);
    ASSERT_TRUE(receipt.ok()) << receipt.status();
    ++sender.sent;
    // Homed to the spoke's lane: the pump mutates that spoke's runtime
    // state, which must only ever be touched from its own lane.
    fabric.engine().ScheduleAfterOn(s + 1, receipt->sender_cost,
                                    [resume, s] { resume(s); }, "pool.send");
  });
  for (std::uint32_t s = 0; s < topo.spokes; ++s) pump(s);
  fabric.Run();

  hub.SetOnExecuted(nullptr);
  for (std::uint32_t s = 0; s < topo.spokes; ++s) {
    result.sent += (*senders)[s].sent;
    const JamCacheStats& js = fabric.runtime(s + 1).jam_cache_stats();
    result.spoke_by_handle_sends += js.by_handle_sends;
    result.spoke_naks_received += js.naks_received;
    result.spoke_resends += js.resends;
    // Each full group of mailboxes_per_bank sends to the hub closes one
    // bank, whose flag must come back by drain. NAK-triggered resends are
    // extra sends the pump never saw, so they count toward bank fills.
    result.expected_flag_returns +=
        ((*senders)[s].sent + js.resends) / in_bank_slots;
    result.closed_send_banks +=
        fabric.runtime(s + 1).ClosedSendBanks((*senders)[s].to_hub);
    result.window_min_milli.push_back(
        fabric.runtime(s + 1).AdaptiveWindowMinMilli((*senders)[s].to_hub));
    result.window_max_milli.push_back(
        fabric.runtime(s + 1).AdaptiveWindowMaxMilli((*senders)[s].to_hub));
  }
  for (std::uint32_t i = 0; i < fabric.switch_count(); ++i) {
    net::Switch& sw = fabric.sw(i);
    result.switch_frames_forwarded += sw.frames_forwarded();
    result.switch_frames_marked += sw.frames_marked();
    result.switch_frames_dropped += sw.frames_dropped();
    result.switch_backpressure_holds += sw.backpressure_holds();
  }
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    result.nic_ecn_marks_delivered += fabric.nic(h).ecn_marks_delivered();
    const RuntimeStats& s = fabric.runtime(h).stats();
    result.ecn_marks_seen_sum += s.ecn_marks_seen;
    result.ecn_echoes_sent_sum += s.ecn_echoes_sent;
    result.ecn_echoes_seen_sum += s.ecn_echoes_seen;
    result.cwnd_increases_sum += s.cwnd_increases;
    result.cwnd_decreases_sum += s.cwnd_decreases;
    result.adaptive_refusals_sum += s.adaptive_refusals;
  }
  result.hub_jam = hub.jam_cache_stats();
  result.hub_cache_entries = hub.JamCacheSize();
  result.hub_cache_bytes = hub.JamCacheResidentBytes();
  result.in_flight_at_drain = hub.InFlightFrames();
  result.pending_rehomes_at_drain = hub.PendingRehomes();
  result.active_cores_at_drain = hub.ActivePoolCores();
  for (std::uint32_t c = 0; c < hub.receiver_pool_size(); ++c) {
    result.stolen_claims_held += hub.StolenBanksHeld(c);
    const std::uint32_t homed = hub.BanksHomedTo(c);
    result.banks_homed_at_drain.push_back(homed);
    if (hub.pool_core_state(c) != PoolCoreState::kActive) {
      result.banks_homed_dark_at_drain += homed;
    }
    const cpu::WaitStats& ws = hub.receiver_wait_stats(c);
    result.resharded_in_sum += ws.banks_resharded_in;
    result.resharded_out_sum += ws.banks_resharded_out;
  }
  result.hub = hub.stats();
  result.drained_at = fabric.engine().Now();
  result.fingerprint = PoolFingerprint(fabric);
  return result;
}

/// The scheduler invariants every run — stealing or not, skewed or not —
/// must satisfy at drain.
inline void ExpectPoolInvariants(const PoolTopology& topo,
                                 const PoolRunResult& r) {
  const std::string ctx = topo.Describe();
  EXPECT_EQ(r.executed, r.sent) << ctx;
  EXPECT_EQ(r.duplicate_executions, 0u) << ctx;
  EXPECT_EQ(r.order_violations, 0u) << ctx;
  EXPECT_EQ(r.in_flight_at_drain, 0u) << ctx;
  EXPECT_EQ(r.closed_send_banks, 0u) << ctx;
  EXPECT_EQ(r.stolen_claims_held, 0u) << ctx;
  EXPECT_EQ(r.hub.security_rejections, 0u) << ctx;
  EXPECT_EQ(r.hub.bank_flags_returned, r.expected_flag_returns) << ctx;
  EXPECT_EQ(r.hub.banks_drained_owner + r.hub.banks_drained_stolen,
            r.hub.bank_flags_returned)
      << ctx;
  if (!topo.steal.enabled || topo.receiver_cores < 2) {
    EXPECT_EQ(r.hub.steals, 0u) << ctx;
    EXPECT_EQ(r.hub.frames_stolen, 0u) << ctx;
    EXPECT_EQ(r.hub.banks_drained_stolen, 0u) << ctx;
  }

  // Switched-fabric ledger reconciliation. The fabric is drop-free by
  // construction (a full shared buffer holds the frame at ingress instead
  // of dropping it), every mark a switch applies is delivered to exactly
  // one NIC by quiescence, and every mark a receiver echoes home in a
  // returned flag word is observed by exactly one sender.
  EXPECT_EQ(r.switch_frames_dropped, 0u) << ctx;
  EXPECT_EQ(r.switch_frames_marked, r.nic_ecn_marks_delivered) << ctx;
  EXPECT_EQ(r.ecn_echoes_sent_sum, r.ecn_echoes_seen_sum) << ctx;
  // Runtime-visible marks ride signal completions; setup traffic (e.g.
  // namespace sync) can be marked without a runtime seeing it, so <=.
  EXPECT_LE(r.ecn_marks_seen_sum, r.nic_ecn_marks_delivered) << ctx;
  if (topo.topology != Topology::kTree) {
    EXPECT_EQ(r.switch_frames_forwarded, 0u) << ctx;
    EXPECT_EQ(r.nic_ecn_marks_delivered, 0u) << ctx;
  }
  // Adaptive-window excursion bounds: never below the (clamped) floor,
  // never above the static bank count; a non-adaptive run never moves.
  const std::uint64_t ceiling_milli =
      static_cast<std::uint64_t>(topo.banks) * 1000;
  const std::uint64_t floor_milli =
      std::clamp(topo.adaptive.min_banks, 1u, topo.banks) * 1000ull;
  for (std::size_t s = 0; s < r.window_min_milli.size(); ++s) {
    if (topo.adaptive.enabled) {
      EXPECT_GE(r.window_min_milli[s], floor_milli) << ctx << " spoke " << s;
      EXPECT_LE(r.window_max_milli[s], ceiling_milli) << ctx << " spoke " << s;
    } else {
      EXPECT_EQ(r.window_min_milli[s], ceiling_milli) << ctx << " spoke " << s;
      EXPECT_EQ(r.window_max_milli[s], ceiling_milli) << ctx << " spoke " << s;
    }
  }
  if (!topo.adaptive.enabled) {
    EXPECT_EQ(r.cwnd_increases_sum, 0u) << ctx;
    EXPECT_EQ(r.cwnd_decreases_sum, 0u) << ctx;
    EXPECT_EQ(r.adaptive_refusals_sum, 0u) << ctx;
  }

  // Jam-cache ledger reconciliation. Every by-handle send either hit or
  // missed at the hub; every miss sent exactly one NAK; every NAK was
  // received and answered with exactly one full-body resend by drain.
  EXPECT_EQ(r.hub_jam.hits + r.hub_jam.misses, r.spoke_by_handle_sends)
      << ctx;
  EXPECT_EQ(r.hub_jam.naks_sent, r.hub_jam.misses) << ctx;
  EXPECT_EQ(r.spoke_naks_received, r.hub_jam.naks_sent) << ctx;
  EXPECT_EQ(r.spoke_resends, r.spoke_naks_received) << ctx;
  EXPECT_EQ(r.miss_completions, r.hub_jam.misses) << ctx;
  EXPECT_EQ(r.hub_cache_entries,
            r.hub_jam.installs - r.hub_jam.evictions - r.hub_jam.invalidations)
      << ctx;
  if (topo.jam_cache.enabled) {
    EXPECT_LE(r.hub_cache_entries, topo.jam_cache.capacity) << ctx;
    EXPECT_EQ(r.hub_cache_bytes > 0, r.hub_cache_entries > 0) << ctx;
  } else {
    EXPECT_EQ(r.spoke_by_handle_sends, 0u) << ctx;
    EXPECT_EQ(r.hub_jam.installs, 0u) << ctx;
    EXPECT_EQ(r.hub_cache_entries, 0u) << ctx;
  }

  // Hotplug ledger reconciliation — these hold whether or not the run's
  // plan contained quiesce events (and whether or not they were refused):
  // every deferred handoff applied, no bank left homed to a dark core,
  // every bank homed exactly once, the per-core re-shard mirrors sum to
  // the runtime counter, and the stranded backlog each QuiesceCore call
  // reported matches the ledger.
  EXPECT_EQ(r.pending_rehomes_at_drain, 0u) << ctx;
  EXPECT_EQ(r.banks_homed_dark_at_drain, 0u) << ctx;
  std::uint64_t homed_total = 0;
  for (const std::uint32_t homed : r.banks_homed_at_drain) {
    homed_total += homed;
  }
  if (!r.banks_homed_at_drain.empty()) {
    EXPECT_EQ(homed_total,
              static_cast<std::uint64_t>(topo.spokes) * topo.banks)
        << ctx;
  }
  EXPECT_EQ(r.resharded_in_sum, r.hub.banks_resharded) << ctx;
  EXPECT_EQ(r.resharded_out_sum, r.hub.banks_resharded) << ctx;
  EXPECT_EQ(r.hub.frames_drained_during_quiesce, r.stranded_reported) << ctx;
  if (topo.quiesce.empty()) {
    EXPECT_EQ(r.hub.banks_resharded, 0u) << ctx;
    EXPECT_EQ(r.hub.frames_drained_during_quiesce, 0u) << ctx;
    EXPECT_EQ(r.active_cores_at_drain, topo.receiver_cores) << ctx;
  }
}

}  // namespace twochains::core::pooltest
