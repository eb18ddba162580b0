// Shared machinery of the benchmark's workloads: the per-op ledger
// that matches completions back to the ops that caused them, the
// closed-loop sender pump, the counter snapshot the exact per-layer counts
// are computed from, and the host-time clock the traced run charges to
// engine event tags.
//
// Every workload talks to the program through the public core::Fabric /
// core::Runtime API only: Send, NotifyWhenSlotFree, SetOnExecuted, stats
// and Engine::SetEventHook.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "core/fabric.hpp"

namespace perfbench {

using twochains::PicoTime;
namespace core = twochains::core;

inline constexpr std::uint32_t kNoOp = ~std::uint32_t{0};

class TagClock;

/// Simulated timestamps and outcome of one generated op.
struct OpRecord {
  PicoTime due = 0;        ///< when the op was due (open-loop arrival)
  PicoTime sent = 0;       ///< when Send accepted it
  PicoTime delivered = 0;  ///< signal visible at the receiver
  PicoTime completed = 0;  ///< receiver finished the jam
  std::uint32_t completions = 0;
  bool wrong = false;      ///< result check failed
};

/// Matches every executed frame on the receiving hosts back to the op that
/// sent it, exactly once, and checks its result.
///
/// Frames are keyed by (sender host, sn), recorded at Send. A by-handle
/// frame that misses the receiver's jam cache completes unexecuted and is
/// resent full-body by the runtime under a new sn; such ops wait in a
/// per-(receiver, sender) FIFO and are matched to the first unknown sn
/// from that sender, in NAK order.
class OpLedger {
 public:
  /// Checks one completed op's return value; called on the receiving
  /// host in that host's execution order.
  using Verify =
      std::function<bool(std::uint32_t op, const core::ReceivedMessage& msg)>;

  OpLedger(core::Fabric& fabric, std::vector<std::uint32_t> receivers,
           std::vector<std::uint32_t> senders, std::size_t ops,
           Verify verify);
  ~OpLedger();

  OpLedger(const OpLedger&) = delete;
  OpLedger& operator=(const OpLedger&) = delete;

  /// Records that @p sender_host's Send carried @p op as frame @p sn.
  void RecordSend(std::uint32_t sender_host, std::uint32_t op,
                  std::uint32_t sn);

  OpRecord& op(std::uint32_t i) { return ops_[i]; }
  const std::vector<OpRecord>& ops() const noexcept { return ops_; }
  std::size_t completed() const noexcept { return completed_; }
  bool done() const noexcept { return completed_ == ops_.size(); }
  /// Ops not completed exactly once with a correct result, plus frames
  /// that matched no op.
  std::uint64_t Failures() const;
  std::uint64_t instructions() const noexcept { return instructions_; }

  /// Traced runs: the executed hook charges its own host time, and
  /// workloads their Send calls, through this clock.
  void set_clock(TagClock* clock) { clock_ = clock; }
  TagClock* clock() const noexcept { return clock_; }

 private:
  void OnExecuted(std::uint32_t receiver, const core::ReceivedMessage& msg);
  std::uint32_t OpOf(std::uint32_t sender_host, std::uint32_t sn);
  void Fail(const std::string& what);

  core::Fabric& fabric_;
  std::vector<std::uint32_t> receivers_;
  Verify verify_;
  std::vector<OpRecord> ops_;
  /// sn_to_op_[sender host][sn] = op index (kNoOp when not ours).
  std::vector<std::vector<std::uint32_t>> sn_to_op_;
  /// sender_of_[receiver host][peer id] = sender host.
  std::vector<std::vector<std::uint32_t>> sender_of_;
  /// Ops whose by-handle frame missed, awaiting their resend.
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::deque<std::uint32_t>> missed_;
  std::size_t completed_ = 0;
  std::uint64_t foreign_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t reported_ = 0;
  TagClock* clock_ = nullptr;
};

/// A closed-loop client: sends its op list to one or more peers, one at a
/// time, pacing itself by the sender cost each Send reports and parking on
/// NotifyWhenSlotFree when the target's bank flow control refuses.
class ClosedLoopSender {
 public:
  /// Sends op @p op; returns the receipt (kResourceExhausted = stall).
  using SendFn = std::function<twochains::StatusOr<core::SendReceipt>(
      std::uint32_t op)>;

  ClosedLoopSender(core::Fabric& fabric, OpLedger& ledger, std::uint32_t host,
                   std::vector<std::uint32_t> ops,
                   std::function<core::PeerId(std::uint32_t op)> peer_of,
                   SendFn send);

  ClosedLoopSender(const ClosedLoopSender&) = delete;
  ClosedLoopSender& operator=(const ClosedLoopSender&) = delete;

  /// Schedules the first send at @p start (simulated).
  void Start(PicoTime start);
  const twochains::Status& error() const noexcept { return error_; }

 private:
  void Pump();

  core::Fabric& fabric_;
  OpLedger& ledger_;
  std::uint32_t host_;
  std::vector<std::uint32_t> ops_;
  std::function<core::PeerId(std::uint32_t)> peer_of_;
  SendFn send_;
  std::size_t next_ = 0;
  twochains::Status error_;
};

/// Counters summed over every host and switch of a fabric.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t send_stalls = 0;
  std::uint64_t security_rejections = 0;
  std::uint64_t cwnd_decreases = 0;
  std::uint64_t bank_flags_returned = 0;
  std::uint64_t banks_drained_owner = 0;
  std::uint64_t banks_drained_stolen = 0;
  /// Hosts where banks_drained_owner + banks_drained_stolen !=
  /// bank_flags_returned.
  std::uint64_t bank_ledger_breaks = 0;
  std::uint64_t jam_hits = 0;
  std::uint64_t jam_misses = 0;
  std::uint64_t jam_by_handle_sends = 0;
  std::uint64_t jam_resends = 0;
  std::uint64_t link_cycles_saved = 0;
  std::uint64_t cache_accesses = 0;
  std::uint64_t cache_l1_hits = 0;
  std::uint64_t cache_dram = 0;
  std::uint64_t rkey_rejections = 0;
  std::uint64_t nic_marks_delivered = 0;
  std::uint64_t switch_marks = 0;
  std::uint64_t switch_drops = 0;
  std::uint64_t backpressure_holds = 0;
  std::uint64_t switch_peak_buffer = 0;  ///< max, not a sum

  static Counters Take(core::Fabric& fabric);
  /// Field-wise this - base (switch_peak_buffer keeps this side's max).
  Counters Minus(const Counters& base) const;
  /// Ledger identities that must hold on a drained fabric; each violation
  /// is appended to @p errors.
  void CheckLedgers(std::vector<std::string>* errors) const;
};

/// Host time per engine event tag, gathered through Engine::SetEventHook:
/// the time between consecutive hook calls is charged to the earlier
/// event's tag. Benchmark code running inside a program event moves its
/// own time out of that tag: Send calls to the "tc.send" bucket, the rest
/// to "driver" (the bucket of the benchmark's own events).
class TagClock {
 public:
  /// The buckets, in report order.
  static const std::vector<std::string>& Buckets();
  static std::size_t Bucket(const std::string& name);

  TagClock() = default;
  TagClock(const TagClock&) = delete;
  TagClock& operator=(const TagClock&) = delete;

  void Install(core::Fabric& fabric);
  /// Charges the running bucket up to now and removes the hook.
  void Finish(core::Fabric& fabric);
  /// Moves @p ns of the running event's time to @p bucket.
  void Move(std::size_t bucket, std::int64_t ns) {
    moved_[bucket] += ns;
    moved_total_ += ns;
  }

  /// Nanoseconds and event counts per bucket (Buckets() order).
  const std::vector<std::int64_t>& ns() const noexcept { return ns_; }
  const std::vector<std::uint64_t>& events() const noexcept {
    return events_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::size_t BucketOf(const char* tag);
  void Charge(Clock::time_point now);

  std::unordered_map<const char*, std::size_t> by_pointer_;
  std::vector<std::int64_t> ns_;
  std::vector<std::uint64_t> events_;
  std::vector<std::int64_t> moved_;
  std::int64_t moved_total_ = 0;
  std::size_t current_ = 0;
  Clock::time_point last_{};
};

/// Runs @p fn; when @p clock is set, moves its host time to @p bucket.
template <typename Fn>
auto Timed(TagClock* clock, std::size_t bucket, Fn&& fn) {
  if (clock == nullptr) return fn();
  const auto start = std::chrono::steady_clock::now();
  auto result = fn();
  clock->Move(bucket, std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  return result;
}

}  // namespace perfbench
