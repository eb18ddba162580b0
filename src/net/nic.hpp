// RDMA NIC + link model (ConnectX-6-class HCA over PCIe Gen4, 200 Gb/s,
// back-to-back — the paper's interconnect, §VI-C).
//
// A one-sided put moves through a fixed pipeline:
//
//   doorbell -> sender DMA read (PCIe) -> wire serialization + propagation
//            -> receiver HCA processing -> rkey check -> DMA write
//            -> cache action (LLC stash or DRAM delivery) -> delivered
//
// Bytes are captured at DMA-read time (so later sender-side writes cannot
// corrupt an in-flight message) and become visible in receiver memory at
// delivery time. Stage occupancy is tracked per NIC and per link direction,
// which is what limits streaming message rate and bandwidth.
//
// Topology: a NIC carries one back-to-back cable per ConnectTo() call, so
// N-host fabrics (full mesh, star/incast) are built from pairwise links.
// Outbound serialization and in-order delivery are tracked per link
// direction; the send engine (doorbell/DMA-read path) is shared across all
// of a NIC's links, and inbound DMA-write occupancy is shared across all
// links delivering *into* a NIC — the PCIe write path is what an incast of
// senders ultimately contends on.
//
// Ordering: when `enforce_write_ordering` is set (true for the paper's
// testbed: "Modern servers like the one we use ... enforce ordering"),
// deliveries on a link direction happen in post order. When cleared, each
// delivery suffers an extra deterministic pseudo-random skew, so a signal
// written in the same put train can land before its payload — unless the
// posting NIC was told to fence. This is the configuration the mailbox
// protocol's separate-signal-put mode exists for (Fig. 1 of the paper).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "mem/region.hpp"
#include "net/host.hpp"
#include "sim/engine.hpp"

namespace twochains::net {

class Switch;

struct NicConfig {
  double wire_gbps = 200.0;          ///< link bandwidth (Gb/s)
  double pcie_gbps = 252.0;          ///< PCIe Gen4 x16 effective (Gb/s)
  double doorbell_ns = 70.0;         ///< CPU MMIO post to HCA
  double dma_read_overhead_ns = 180.0;  ///< PCIe round trip to fetch payload
  double wire_latency_ns = 250.0;    ///< propagation, back-to-back cable
  double rx_processing_ns = 160.0;   ///< receiver HCA packet processing
  double per_message_ns = 40.0;      ///< per-WQE send engine occupancy
  bool enforce_write_ordering = true;
  /// Max skew added to deliveries when ordering is NOT enforced.
  double reorder_window_ns = 400.0;
  /// Deliver inbound bytes into the LLC (cache stashing) or DRAM. On a
  /// multi-domain host the stash lands in the target address's *home
  /// domain's* LLC slice — next to the cores that own the bank when the
  /// runtime places banks domain-aware.
  bool stash_to_llc = true;
};

/// Sender-visible completion of a posted operation.
struct PutCompletion {
  Status status = Status::Ok();
  PicoTime delivered_at = 0;
  /// True when a switch on the path ECN-marked the frame (congested
  /// egress queue). Always false on direct-cabled paths.
  bool ecn_marked = false;
};

class Nic {
 public:
  using DeliveredFn = std::function<void(const PutCompletion&)>;

  Nic(sim::Engine& engine, Host& host, NicConfig config);

  /// Wires this NIC back-to-back with @p peer (both directions). A NIC may
  /// be connected to many peers, one dedicated cable each. Re-cabling an
  /// already-linked pair fails with kAlreadyExists — a duplicate cable
  /// would silently shadow the first cable's wire state — and a
  /// self-connect fails with kInvalidArgument.
  Status ConnectTo(Nic& peer);

  /// Attaches this NIC's uplink to a switch port: puts toward peers with
  /// no direct cable serialize onto this uplink (at @p gbps, one cable
  /// latency of @p latency_ns to the switch) and are routed hop by hop.
  /// One uplink per NIC (re-attaching replaces it); direct cables keep
  /// priority when both exist.
  void AttachUplink(Switch& sw, double gbps, double latency_ns) noexcept;
  /// True when an uplink switch port is attached.
  bool HasUplink() const noexcept { return uplink_.sw != nullptr; }
  /// True when a put to @p peer can be carried: a direct cable, or both
  /// ends attached to a switched fabric.
  bool CanReach(const Nic& peer) const noexcept {
    return ConnectedTo(peer) || (HasUplink() && peer.HasUplink());
  }

  Host& host() noexcept { return host_; }
  const NicConfig& config() const noexcept { return config_; }
  /// Reconfigures delivery mode (the paper's firmware stashing toggle).
  void set_stash_to_llc(bool on) noexcept { config_.stash_to_llc = on; }

  /// Virtual engine lane this NIC's host lives on (the fabric wires one
  /// lane per host). Receive-side events (HCA processing, DMA write,
  /// delivery) run on the *destination* NIC's lane; sender-side events
  /// (post, completion) on the poster's. Lane 0 — the default — is correct
  /// for single-lane testbeds.
  void set_lane(std::uint32_t lane) noexcept { lane_ = lane; }
  std::uint32_t lane() const noexcept { return lane_; }

  /// Number of back-to-back links this NIC carries.
  std::size_t link_count() const noexcept { return links_.size(); }
  /// True when a cable to @p peer exists.
  bool ConnectedTo(const Nic& peer) const noexcept;

  /// Posts a one-sided RDMA put of [local_addr, +size) from this host into
  /// [remote_addr, +size) on @p dst, authorized by @p rkey. @p dst must be
  /// one of this NIC's connected peers.
  ///
  /// @p fence orders this put after every previously posted put has been
  /// delivered (IBTA fence semantics).
  /// @p on_delivered fires at the simulated instant the bytes are visible in
  /// remote memory (or with an error status if the rkey check failed) and
  /// runs on the *destination* lane — receive-side logic only.
  /// @p on_complete is the sender-visible CQE: it fires one wire latency
  /// after delivery, back on this NIC's lane — the place for sender-side
  /// bookkeeping (completion tracking, windows).
  Status PostPut(Nic& dst, mem::VirtAddr local_addr, mem::VirtAddr remote_addr,
                 std::uint64_t size, mem::RKey rkey, bool fence = false,
                 DeliveredFn on_delivered = nullptr,
                 DeliveredFn on_complete = nullptr);

  /// Posts an 8-byte immediate put into @p dst (value supplied inline, no
  /// sender DMA read) — used for signals and flow-control flags.
  Status PostInlinePut(Nic& dst, std::uint64_t value,
                       mem::VirtAddr remote_addr, mem::RKey rkey,
                       bool fence = false, DeliveredFn on_delivered = nullptr,
                       DeliveredFn on_complete = nullptr);

  /// Single-link conveniences: post to the first connected peer (the
  /// two-host back-to-back shape of the paper's testbed).
  Status PostPut(mem::VirtAddr local_addr, mem::VirtAddr remote_addr,
                 std::uint64_t size, mem::RKey rkey, bool fence = false,
                 DeliveredFn on_delivered = nullptr,
                 DeliveredFn on_complete = nullptr);
  Status PostInlinePut(std::uint64_t value, mem::VirtAddr remote_addr,
                       mem::RKey rkey, bool fence = false,
                       DeliveredFn on_delivered = nullptr,
                       DeliveredFn on_complete = nullptr);

  /// Number of puts posted since construction.
  std::uint64_t puts_posted() const noexcept { return puts_posted_; }
  /// Number of deliveries rejected by rkey validation.
  std::uint64_t rkey_rejections() const noexcept { return rkey_rejections_; }
  /// Total payload bytes delivered into this NIC's host.
  std::uint64_t bytes_delivered() const noexcept { return bytes_delivered_; }
  /// Inbound ops that arrived carrying an ECN mark. The fabric-wide mark
  /// ledger the soak suite reconciles: at quiescence the sum of this over
  /// a fabric's NICs equals the sum of Switch::frames_marked over its
  /// switches (marks are set exactly once and never dropped).
  std::uint64_t ecn_marks_delivered() const noexcept {
    return ecn_marks_delivered_;
  }

  /// Simulated time at which the send engine becomes free (tests).
  PicoTime send_engine_free_at() const noexcept { return tx_free_at_; }

 private:
  friend class Switch;

  struct Op {
    std::vector<std::uint8_t> bytes;
    mem::VirtAddr remote_addr;
    mem::RKey rkey;
    bool fence;
    bool inline_op;
    /// Set (once) by the first congested switch on the path; surfaces to
    /// the sender and receiver via PutCompletion::ecn_marked.
    bool ecn_marked = false;
    DeliveredFn on_delivered;
    DeliveredFn on_complete;
    /// Uncontended delivery estimate from post time; when rx contention
    /// pushes the real delivery later, the sender's fence state learns the
    /// correction via the completion event.
    PicoTime est_deliver = 0;
  };

  /// One back-to-back cable: outbound serialization + in-order delivery
  /// state for the direction this NIC transmits on.
  struct Link {
    Nic* peer = nullptr;
    PicoTime wire_free_at = 0;        ///< outbound link direction
    PicoTime last_sched_delivery = 0; ///< for in-order delivery
  };

  /// This NIC's uplink into a switched fabric (Topology::kTree): puts to
  /// peers with no direct cable serialize here and hop through switches.
  struct Uplink {
    Switch* sw = nullptr;
    double gbps = 0;
    double latency_ns = 0;
    PicoTime wire_free_at = 0;  ///< host -> switch serialization occupancy
  };

  Link* FindLink(const Nic* dst) noexcept;
  Status PostOp(Op op, mem::VirtAddr local_addr, Link& link);
  /// Switched-path post: sender pipeline + uplink serialization, then the
  /// frame head is handed to the uplink switch one cable latency later.
  Status PostSwitchedOp(Op op, mem::VirtAddr local_addr, Nic& dst);
  /// Final switched hop into this NIC (called by the last switch, on that
  /// switch's lane): resolves inbound DMA-write contention at the frame
  /// tail's arrival instant — exactly like the direct-cable rx path — and
  /// delivers. @p src is the posting NIC (completions ride back to it).
  void ArriveFromSwitch(Op op, Nic* src, PicoTime tail_arrival);
  void DeliverAt(PicoTime when, Op op, Nic* dst);
  void FinishOp(Op op, const PutCompletion& completion);

  PicoTime GbpsToDuration(double gbps, std::uint64_t bytes) const noexcept {
    if (gbps <= 0) return 0;
    const double ns = static_cast<double>(bytes) * 8.0 / gbps;
    return Nanoseconds(ns);
  }

  sim::Engine& engine_;
  Host& host_;
  NicConfig config_;
  std::vector<Link> links_;
  Uplink uplink_;

  std::uint32_t lane_ = 0;       ///< virtual engine lane of this NIC's host
  PicoTime tx_free_at_ = 0;      ///< send engine (DMA read + WQE processing)
  PicoTime last_delivery_at_ = 0;  ///< for fence semantics
  /// Inbound DMA-write engine occupancy: shared across every link that
  /// delivers into this NIC (the incast bottleneck at the PCIe write path).
  PicoTime rx_busy_until_ = 0;
  Xoshiro256 reorder_rng_{0x0dd5eedull};

  std::uint64_t puts_posted_ = 0;
  std::uint64_t rkey_rejections_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t ecn_marks_delivered_ = 0;
};

/// Reliable, in-order, out-of-band control channel between two hosts
/// (models the TCP/management-network bootstrap path used to exchange rkeys
/// and synchronize namespaces; §V: "the target process has to provide the
/// RKEY to the RDMA initiator through an out-of-band channel").
class ControlChannel {
 public:
  using Handler = std::function<void(std::vector<std::uint8_t>)>;

  ControlChannel(sim::Engine& engine, double latency_us = 15.0)
      : engine_(engine), latency_(Microseconds(latency_us)) {}

  /// Registers the message handler for @p host_id. @p lane is the virtual
  /// engine lane the handler runs on (the host's lane in a fabric).
  void SetHandler(int host_id, Handler handler, std::uint32_t lane = 0);

  /// Sends @p payload to @p dst_host; its handler runs after the channel
  /// latency, in send order, on the handler's registered lane.
  Status Send(int dst_host, std::vector<std::uint8_t> payload);

 private:
  struct Entry {
    int host_id;
    std::uint32_t lane;
    Handler handler;
  };
  sim::Engine& engine_;
  PicoTime latency_;
  PicoTime next_free_ = 0;
  std::vector<Entry> handlers_;
};

}  // namespace twochains::net
