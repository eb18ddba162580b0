// One workload run in its own process:
//
//   perfbench_workload --workload <name> --seed <n> [--trace 0|1]
//                      [--trace-out <file>]
//
// Times the set-up phases around public calls (fabric construction,
// package compile, load, warm-up), drives the measured ops, drains the
// fabric, checks every op's result and the ledgers, tears the fabric down,
// and prints one JSON line: the simulated metrics (exact for a seed, with
// their digest), the host-time metrics, and with --trace 1 the host time
// per op charged to each engine event tag.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using twochains::LatencySample;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Insertion-ordered JSON object of pre-rendered values.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(key, buf);
  }
  void Int(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
  }
  void Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  std::string Render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// FNV-1a over 64-bit words: the run's determinism fingerprint.
class Digest {
 public:
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

double PerOp(double count, std::size_t ops) {
  return ops == 0 ? 0.0 : count / static_cast<double>(ops);
}

double Ns(PicoTime ps) { return static_cast<double>(ps) / 1000.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty();
}

int Fatal(const std::string& what, const twochains::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 2;
}

int Main(int argc, char** argv) {
  const Clock::time_point t0 = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> [--trace 0|1] "
                 "[--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // ------------------------------------------------------------- set-up
  Clock::time_point t = Clock::now();
  auto fabric = std::make_unique<core::Fabric>(workload->Options());
  const double ctor_s = Seconds(t, Clock::now());

  t = Clock::now();
  auto package = workload->Package().Build(workload->PackageName());
  if (!package.ok()) return Fatal("package build", package.status());
  const double build_s = Seconds(t, Clock::now());

  t = Clock::now();
  if (auto st = fabric->LoadPackage(*package); !st.ok()) {
    return Fatal("package load", st);
  }
  const double load_s = Seconds(t, Clock::now());

  t = Clock::now();
  std::uint64_t warm_failures = 0;
  if (auto st = workload->Warm(*fabric, &warm_failures); !st.ok()) {
    return Fatal("warm-up", st);
  }
  const double warm_s = Seconds(t, Clock::now());

  // ------------------------------------------------------ measured window
  const Counters before = Counters::Take(*fabric);
  TagClock tags;
  std::unique_ptr<OpLedger> ledger =
      workload->Start(*fabric, fabric->engine().Now() + 1);
  if (args.trace) {
    ledger->set_clock(&tags);
    tags.Install(*fabric);
  }
  const Clock::time_point window_start = Clock::now();
  const double setup_s = Seconds(t0, window_start);
  fabric->Run();
  const double window_s = Seconds(window_start, Clock::now());
  if (args.trace) tags.Finish(*fabric);
  const std::uint64_t window_events =
      fabric->engine().EventsProcessed() - before.events;
  if (auto st = workload->error(); !st.ok()) return Fatal("workload", st);

  fabric->Run();  // drain flag returns so the ledgers are at quiescence
  const Counters after = Counters::Take(*fabric);
  const Counters d = after.Minus(before);
  std::vector<std::string> errors;
  after.CheckLedgers(&errors);
  if (warm_failures > 0) {
    errors.push_back(std::to_string(warm_failures) + " warm-up ops failed");
  }

  // ------------------------------------------------------ simulated side
  const std::vector<OpRecord>& ops = ledger->ops();
  const std::size_t n = ops.size();
  const std::uint64_t failed = ledger->Failures();
  LatencySample latency(n), queue(n), wire(n), rx(n);
  PicoTime first_due = ~PicoTime{0};
  PicoTime last_completed = 0;
  Digest digest;
  for (const OpRecord& op : ops) {
    digest.Add(op.due);
    digest.Add(op.sent);
    digest.Add(op.delivered);
    digest.Add(op.completed);
    first_due = std::min(first_due, op.due);
    if (op.completions != 1) continue;
    last_completed = std::max(last_completed, op.completed);
    latency.Add(op.completed - op.due);
    queue.Add(op.sent - op.due);
    wire.Add(op.delivered - op.sent);
    rx.Add(op.completed - op.delivered);
  }
  const std::uint64_t exact[] = {failed,
                                 ledger->instructions(),
                                 window_events,
                                 d.bytes_sent,
                                 d.send_stalls,
                                 d.cwnd_decreases,
                                 d.jam_hits,
                                 d.jam_misses,
                                 d.jam_resends,
                                 d.link_cycles_saved,
                                 d.cache_accesses,
                                 d.cache_l1_hits,
                                 d.cache_dram,
                                 d.switch_marks,
                                 d.backpressure_holds,
                                 after.switch_peak_buffer,
                                 after.switch_drops,
                                 after.rkey_rejections,
                                 after.security_rejections};
  for (const std::uint64_t v : exact) digest.Add(v);

  const double sim_us =
      last_completed > first_due
          ? static_cast<double>(last_completed - first_due) / 1e6
          : 0.0;
  JsonObject m;
  m.Num("sim_p50_ns", Ns(latency.Median()));
  m.Num("sim_p999_ns", Ns(latency.Tail()));
  m.Num("sim_mops", sim_us > 0 ? static_cast<double>(latency.count()) / sim_us
                               : 0.0);
  m.Num("wire_bytes_per_op", PerOp(d.bytes_sent, n));
  m.Num("failed_frac", PerOp(failed, n));
  m.Num("sim.queue_p50_ns", Ns(queue.Median()));
  m.Num("sim.queue_p999_ns", Ns(queue.Tail()));
  m.Num("sim.wire_p50_ns", Ns(wire.Median()));
  m.Num("sim.wire_p999_ns", Ns(wire.Tail()));
  m.Num("sim.rx_p50_ns", Ns(rx.Median()));
  m.Num("sim.rx_p999_ns", Ns(rx.Tail()));
  m.Num("sim.events_per_op", PerOp(window_events, n));
  m.Num("jamvm.instructions_per_op", PerOp(ledger->instructions(), n));
  m.Num("cache.accesses_per_op", PerOp(d.cache_accesses, n));
  m.Num("cache.l1_hit_ratio",
        d.cache_accesses == 0 ? 0.0
                              : static_cast<double>(d.cache_l1_hits) /
                                    static_cast<double>(d.cache_accesses));
  m.Num("cache.dram_per_op", PerOp(d.cache_dram, n));
  const std::uint64_t lookups = d.jam_hits + d.jam_misses;
  m.Num("core.jam_hit_ratio",
        lookups == 0 ? 0.0
                     : static_cast<double>(d.jam_hits) /
                           static_cast<double>(lookups));
  m.Int("core.jam_resends", d.jam_resends);
  m.Num("core.link_cycles_saved_per_op", PerOp(d.link_cycles_saved, n));
  m.Num("core.send_stalls_per_op", PerOp(d.send_stalls, n));
  m.Num("net.switch_marks_per_op", PerOp(d.switch_marks, n));
  m.Int("net.backpressure_holds", d.backpressure_holds);
  m.Int("net.switch_peak_buffer_bytes", after.switch_peak_buffer);
  m.Int("core.cwnd_decreases", d.cwnd_decreases);
  m.Int("core.security_rejections", after.security_rejections);
  m.Int("net.frames_dropped", after.switch_drops);
  m.Int("net.rkey_rejections", after.rkey_rejections);

  // ---------------------------------------------------------- host side
  m.Num("setup_s", setup_s);
  m.Num("window_s", window_s);
  m.Num("host_ops_per_s", window_s > 0 ? static_cast<double>(n) / window_s
                                       : 0.0);
  m.Num("sim.host_ns_per_event",
        window_events == 0 ? 0.0 : window_s * 1e9 /
                                       static_cast<double>(window_events));
  m.Num("core.fabric_ctor_s", ctor_s);
  m.Num("pkg.build_s", build_s);
  m.Num("core.load_s", load_s);
  m.Num("benchlib.warm_s", warm_s);
  if (args.trace) {
    const auto& buckets = TagClock::Buckets();
    JsonObject trace;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      m.Num("host." + buckets[b] + "_ns",
            PerOp(static_cast<double>(tags.ns()[b]), n));
      JsonObject row;
      row.Int("events", tags.events()[b]);
      row.Num("host_ns", static_cast<double>(tags.ns()[b]));
      trace.Raw(buckets[b], row.Render());
    }
    if (!args.trace_out.empty()) {
      if (FILE* f = std::fopen(args.trace_out.c_str(), "w")) {
        JsonObject out;
        out.Str("workload", args.workload);
        out.Int("seed", args.seed);
        out.Int("ops", n);
        out.Num("window_s", window_s);
        out.Raw("tags", trace.Render());
        std::fprintf(f, "%s\n", out.Render().c_str());
        std::fclose(f);
      }
    }
  }

  // ------------------------------------------------------------ teardown
  ledger.reset();
  workload->Release();
  t = Clock::now();
  fabric.reset();
  m.Num("core.fabric_dtor_s", Seconds(t, Clock::now()));

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m.Num("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  m.Num("process_s", Seconds(t0, Clock::now()));

  std::string error_list = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", errors[i].c_str());
    error_list += (i > 0 ? ", " : "") + JsonObject::Quote(errors[i]);
  }
  error_list += "]";

  JsonObject out;
  out.Str("workload", args.workload);
  out.Int("seed", args.seed);
  out.Int("traced", args.trace ? 1 : 0);
  out.Int("ops", n);
  out.Int("failed", failed);
  out.Raw("errors", error_list);
  out.Str("digest", digest.Hex());
  out.Raw("metrics", m.Render());
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "kv_zipf") return MakeKvZipf(seed);
  if (name == "incast_ssum_hardened") return MakeIncastSsumHardened(seed);
  if (name == "tree_incast") return MakeTreeIncast(seed);
  return nullptr;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
