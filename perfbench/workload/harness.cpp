#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

using twochains::StatusCode;

// ------------------------------------------------------------- OpLedger

OpLedger::OpLedger(core::Fabric& fabric, std::vector<std::uint32_t> receivers,
                   std::vector<std::uint32_t> senders, std::size_t ops,
                   Verify verify)
    : fabric_(fabric),
      receivers_(std::move(receivers)),
      verify_(std::move(verify)),
      ops_(ops),
      sn_to_op_(fabric.size()),
      sender_of_(fabric.size()) {
  for (const std::uint32_t r : receivers_) {
    for (const std::uint32_t s : senders) {
      if (!fabric.Connected(r, s)) continue;
      const auto peer = fabric.PeerIdFor(r, s);
      if (!peer.ok()) continue;
      auto& row = sender_of_[r];
      if (row.size() <= *peer) row.resize(*peer + 1, kNoOp);
      row[*peer] = s;
    }
    fabric.runtime(r).SetOnExecuted(
        [this, r](const core::ReceivedMessage& msg) {
          static const std::size_t kDriver = TagClock::Bucket("driver");
          Timed(clock_, kDriver, [&] {
            OnExecuted(r, msg);
            return 0;
          });
        });
  }
}

OpLedger::~OpLedger() {
  for (const std::uint32_t r : receivers_) {
    fabric_.runtime(r).SetOnExecuted(nullptr);
  }
}

void OpLedger::RecordSend(std::uint32_t sender_host, std::uint32_t op,
                          std::uint32_t sn) {
  auto& row = sn_to_op_[sender_host];
  if (row.size() <= sn) {
    row.resize(std::max<std::size_t>(sn + 1, row.size() * 2), kNoOp);
  }
  row[sn] = op;
  ops_[op].sent = fabric_.engine().Now();
}

std::uint32_t OpLedger::OpOf(std::uint32_t sender_host, std::uint32_t sn) {
  const auto& row = sn_to_op_[sender_host];
  return sn < row.size() ? row[sn] : kNoOp;
}

void OpLedger::Fail(const std::string& what) {
  // Print the first few failures in full; count all of them.
  if (++reported_ <= 8) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  }
}

void OpLedger::OnExecuted(std::uint32_t receiver,
                          const core::ReceivedMessage& msg) {
  const auto& senders = sender_of_[receiver];
  const std::uint32_t sender =
      msg.from < senders.size() ? senders[msg.from] : kNoOp;
  if (sender == kNoOp) {
    ++foreign_;
    Fail("frame from an unknown peer on host " + std::to_string(receiver));
    return;
  }
  std::uint32_t op = OpOf(sender, msg.sn);
  const auto fifo_key = std::make_pair(receiver, sender);
  if (msg.cache_miss) {
    // Unexecuted; the sender resends it full-body under a new sn.
    if (op == kNoOp) {
      ++foreign_;
      Fail("jam-cache miss on a frame no op sent");
    } else {
      missed_[fifo_key].push_back(op);
    }
    return;
  }
  if (op == kNoOp) {
    auto& fifo = missed_[fifo_key];
    if (fifo.empty()) {
      ++foreign_;
      Fail("frame sn " + std::to_string(msg.sn) + " from host " +
           std::to_string(sender) + " matches no op");
      return;
    }
    op = fifo.front();
    fifo.pop_front();
  }
  OpRecord& rec = ops_[op];
  if (!msg.executed) {
    rec.wrong = true;
    Fail("op " + std::to_string(op) + " was not executed");
    return;
  }
  if (++rec.completions > 1) {
    rec.wrong = true;
    Fail("op " + std::to_string(op) + " executed twice");
    return;
  }
  rec.delivered = msg.delivered_at;
  rec.completed = msg.completed_at;
  instructions_ += msg.instructions;
  if (!verify_(op, msg)) {
    rec.wrong = true;
    Fail("op " + std::to_string(op) + " returned a wrong result (" +
         std::to_string(static_cast<std::int64_t>(msg.return_value)) + ")");
  }
  if (++completed_ == ops_.size()) fabric_.engine().Stop();
}

std::uint64_t OpLedger::Failures() const {
  std::uint64_t failures = foreign_;
  for (const OpRecord& rec : ops_) {
    if (rec.completions != 1 || rec.wrong) ++failures;
  }
  return failures;
}

// ------------------------------------------------------ ClosedLoopSender

ClosedLoopSender::ClosedLoopSender(
    core::Fabric& fabric, OpLedger& ledger, std::uint32_t host,
    std::vector<std::uint32_t> ops,
    std::function<core::PeerId(std::uint32_t op)> peer_of, SendFn send)
    : fabric_(fabric),
      ledger_(ledger),
      host_(host),
      ops_(std::move(ops)),
      peer_of_(std::move(peer_of)),
      send_(std::move(send)) {}

void ClosedLoopSender::Start(PicoTime start) {
  if (ops_.empty()) return;
  fabric_.engine().ScheduleAtOn(host_, start, [this] { Pump(); },
                                "perfbench.send");
}

void ClosedLoopSender::Pump() {
  if (next_ >= ops_.size() || !error_.ok()) return;
  const std::uint32_t op = ops_[next_];
  static const std::size_t kSend = TagClock::Bucket("tc.send");
  const auto receipt = Timed(ledger_.clock(), kSend, [&] { return send_(op); });
  if (!receipt.ok()) {
    if (receipt.status().code() == StatusCode::kResourceExhausted) {
      fabric_.runtime(host_).NotifyWhenSlotFree(peer_of_(op),
                                                [this] { Pump(); });
      return;
    }
    error_ = receipt.status();
    fabric_.engine().Stop();
    return;
  }
  ledger_.RecordSend(host_, op, receipt->sn);
  ledger_.op(op).due = fabric_.engine().Now();
  if (++next_ < ops_.size()) {
    fabric_.engine().ScheduleAfter(receipt->sender_cost, [this] { Pump(); },
                                   "perfbench.send");
  }
}

// -------------------------------------------------------------- Counters

Counters Counters::Take(core::Fabric& fabric) {
  Counters c;
  c.events = fabric.engine().EventsProcessed();
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    const core::RuntimeStats& rs = fabric.runtime(h).stats();
    c.bytes_sent += rs.bytes_sent;
    c.send_stalls += rs.send_stalls;
    c.security_rejections += rs.security_rejections;
    c.cwnd_decreases += rs.cwnd_decreases;
    c.bank_flags_returned += rs.bank_flags_returned;
    c.banks_drained_owner += rs.banks_drained_owner;
    c.banks_drained_stolen += rs.banks_drained_stolen;
    if (rs.banks_drained_owner + rs.banks_drained_stolen !=
        rs.bank_flags_returned) {
      ++c.bank_ledger_breaks;
    }
    const core::JamCacheStats& js = fabric.runtime(h).jam_cache_stats();
    c.jam_hits += js.hits;
    c.jam_misses += js.misses;
    c.jam_by_handle_sends += js.by_handle_sends;
    c.jam_resends += js.resends;
    c.link_cycles_saved += js.link_cycles_saved;
    const auto& hs = fabric.host(h).caches().stats();
    c.cache_accesses += hs.TotalAccesses();
    c.cache_l1_hits += hs.l1_hits;
    c.cache_dram += hs.dram_accesses;
    c.rkey_rejections += fabric.nic(h).rkey_rejections();
    c.nic_marks_delivered += fabric.nic(h).ecn_marks_delivered();
  }
  for (std::uint32_t s = 0; s < fabric.switch_count(); ++s) {
    const twochains::net::Switch& sw = fabric.sw(s);
    c.switch_marks += sw.frames_marked();
    c.switch_drops += sw.frames_dropped();
    c.backpressure_holds += sw.backpressure_holds();
    c.switch_peak_buffer =
        std::max(c.switch_peak_buffer, sw.peak_buffer_bytes());
  }
  return c;
}

Counters Counters::Minus(const Counters& base) const {
  Counters d = *this;
  d.events -= base.events;
  d.bytes_sent -= base.bytes_sent;
  d.send_stalls -= base.send_stalls;
  d.security_rejections -= base.security_rejections;
  d.cwnd_decreases -= base.cwnd_decreases;
  d.bank_flags_returned -= base.bank_flags_returned;
  d.banks_drained_owner -= base.banks_drained_owner;
  d.banks_drained_stolen -= base.banks_drained_stolen;
  d.jam_hits -= base.jam_hits;
  d.jam_misses -= base.jam_misses;
  d.jam_by_handle_sends -= base.jam_by_handle_sends;
  d.jam_resends -= base.jam_resends;
  d.link_cycles_saved -= base.link_cycles_saved;
  d.cache_accesses -= base.cache_accesses;
  d.cache_l1_hits -= base.cache_l1_hits;
  d.cache_dram -= base.cache_dram;
  d.rkey_rejections -= base.rkey_rejections;
  d.nic_marks_delivered -= base.nic_marks_delivered;
  d.switch_marks -= base.switch_marks;
  d.switch_drops -= base.switch_drops;
  d.backpressure_holds -= base.backpressure_holds;
  return d;
}

void Counters::CheckLedgers(std::vector<std::string>* errors) const {
  const auto expect = [errors](bool holds, const std::string& what) {
    if (!holds) errors->push_back(what);
  };
  expect(bank_ledger_breaks == 0,
         std::to_string(bank_ledger_breaks) +
             " host(s) break banks_drained_owner + banks_drained_stolen == "
             "bank_flags_returned");
  expect(jam_hits + jam_misses == jam_by_handle_sends,
         "jam cache: hits + misses (" + std::to_string(jam_hits + jam_misses) +
             ") != by_handle_sends (" + std::to_string(jam_by_handle_sends) +
             ")");
  expect(switch_marks == nic_marks_delivered,
         "ECN: switch marks (" + std::to_string(switch_marks) +
             ") != marks delivered (" + std::to_string(nic_marks_delivered) +
             ")");
  expect(switch_drops == 0, std::to_string(switch_drops) + " frames dropped");
  expect(rkey_rejections == 0,
         std::to_string(rkey_rejections) + " rkey rejections");
  expect(security_rejections == 0,
         std::to_string(security_rejections) + " security rejections");
}

// -------------------------------------------------------------- TagClock

const std::vector<std::string>& TagClock::Buckets() {
  static const std::vector<std::string> buckets = {
      "tc.process",     "tc.post",     "tc.complete", "tc.send",
      "ucxs.put",       "nic.rx",      "nic.deliver", "nic.complete",
      "switch.ingress", "switch.wake", "driver",      "other"};
  return buckets;
}

std::size_t TagClock::Bucket(const std::string& name) {
  const std::vector<std::string>& buckets = Buckets();
  return static_cast<std::size_t>(
      std::find(buckets.begin(), buckets.end(), name) - buckets.begin());
}

std::size_t TagClock::BucketOf(const char* tag) {
  const auto it = by_pointer_.find(tag);
  if (it != by_pointer_.end()) return it->second;
  std::size_t bucket = Bucket("other");
  if (tag != nullptr && std::strncmp(tag, "perfbench.", 10) == 0) {
    bucket = Bucket("driver");
  } else if (tag != nullptr && Bucket(tag) < Buckets().size()) {
    bucket = Bucket(tag);
  }
  by_pointer_.emplace(tag, bucket);
  return bucket;
}

void TagClock::Charge(Clock::time_point now) {
  const std::int64_t elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
          .count();
  ns_[current_] += elapsed - moved_total_;
  for (std::size_t b = 0; b < moved_.size(); ++b) {
    ns_[b] += moved_[b];
    moved_[b] = 0;
  }
  moved_total_ = 0;
  last_ = now;
}

void TagClock::Install(core::Fabric& fabric) {
  ns_.assign(Buckets().size(), 0);
  events_.assign(Buckets().size(), 0);
  moved_.assign(Buckets().size(), 0);
  moved_total_ = 0;
  current_ = Bucket("driver");  // benchmark code runs until the first event
  last_ = Clock::now();
  fabric.engine().SetEventHook([this](PicoTime, const char* tag) {
    Charge(Clock::now());
    current_ = BucketOf(tag);
    ++events_[current_];
  });
}

void TagClock::Finish(core::Fabric& fabric) {
  Charge(Clock::now());
  fabric.engine().SetEventHook(nullptr);
}

}  // namespace perfbench
