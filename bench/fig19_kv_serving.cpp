// Extension figure: sharded in-memory KV serving under Zipf open-loop
// load. The paper's microbenchmarks (§VII) show what one injected jam
// costs; this scenario shows what a *service* built from jams costs: a
// simulated-client population issues kv_get/kv_put against shard hosts
// holding the jamlib kv table as resident state, arrivals follow a
// Poisson process (queueing counts toward latency), and key popularity is
// Zipf(1.0) — the hot-key mix the receiver-side jam cache's
// invoke-by-handle fast path exists for.
//
// Reported per row: p50 / p99 / p99.9 against a p99 SLO, achieved rate,
// and honest wire bytes per request (full-body resends after cache-miss
// NAKs included). The cache-off vs cache-on contrast at equal load is the
// headline: the hot path must move measurably fewer bytes per request.
//
// `--json` additionally writes BENCH_kv_serving.json (CI artifact);
// `--quick` shrinks the windows for smoke runs.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib/openloop.hpp"
#include "fig_common.hpp"
#include "jamlib/jamlib.hpp"

using namespace twochains;
using namespace twochains::bench;

namespace {

/// The serving SLO this figure grades against: p99 within 40 simulated
/// microseconds of arrival (queueing included).
constexpr double kSloP99Ns = 40000.0;

struct ServingRow {
  std::string label;
  double offered_mops = 0;
  bool cached = false;
  OpenLoopResult result;
  double p50_ns = 0, p99_ns = 0, p999_ns = 0;
  double bytes_per_req = 0;
  bool slo_met = false;
};

OpenLoopConfig RowConfig(double offered_mops, bool cached,
                         std::uint64_t requests) {
  OpenLoopConfig config;
  config.client_hosts = 2;
  config.shards = 4;
  config.simulated_clients = 1'000'000;
  config.keyspace = 2048;
  config.zipf_theta = 1.0;
  config.put_fraction = 0.10;
  config.requests = requests;
  config.offered_rate_mops = offered_mops;
  config.seed = 19;
  if (cached) {
    config.jam_cache.enabled = true;
    config.jam_cache.capacity = 8;
  }
  return config;
}

ServingRow RunRow(const char* label, double offered_mops, bool cached,
                  std::uint64_t requests) {
  const OpenLoopConfig config = RowConfig(offered_mops, cached, requests);

  ServingRow row;
  row.label = label;
  row.offered_mops = offered_mops;
  row.cached = cached;
  row.result = MustOk(RunKvOpenLoop(config), label);
  if (!row.result.ok) {
    std::fprintf(stderr, "%s failed: %s\n", label, row.result.error.c_str());
    std::abort();
  }
  row.p50_ns = static_cast<double>(row.result.latency.Percentile(0.50)) / 1e3;
  row.p99_ns = static_cast<double>(row.result.latency.Percentile(0.99)) / 1e3;
  row.p999_ns =
      static_cast<double>(row.result.latency.Percentile(0.999)) / 1e3;
  row.bytes_per_req = static_cast<double>(row.result.wire_bytes) /
                      static_cast<double>(row.result.completed);
  row.slo_met = row.p99_ns <= kSloP99Ns;
  return row;
}

void WriteJson(const char* path, const std::vector<ServingRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kv_serving\",\n  \"slo_p99_ns\": %.0f,\n",
               kSloP99Ns);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServingRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"label\": \"%s\", \"offered_mops\": %.2f, "
        "\"jam_cache\": %s, \"completed\": %llu, "
        "\"p50_ns\": %.1f, \"p99_ns\": %.1f, \"p999_ns\": %.1f, "
        "\"slo_met\": %s, \"achieved_mops\": %.3f, "
        "\"wire_bytes\": %llu, \"bytes_per_request\": %.1f, "
        "\"cache_hits\": %llu, \"by_handle_sends\": %llu, "
        "\"resends\": %llu, \"queued\": %llu, "
        "\"distinct_clients\": %llu, \"hot_head_requests\": %llu}%s\n",
        r.label.c_str(), r.offered_mops, r.cached ? "true" : "false",
        static_cast<unsigned long long>(r.result.completed), r.p50_ns,
        r.p99_ns, r.p999_ns, r.slo_met ? "true" : "false",
        r.result.achieved_mops,
        static_cast<unsigned long long>(r.result.wire_bytes), r.bytes_per_req,
        static_cast<unsigned long long>(r.result.jam.hits),
        static_cast<unsigned long long>(r.result.jam.by_handle_sends),
        static_cast<unsigned long long>(r.result.jam.resends),
        static_cast<unsigned long long>(r.result.queued),
        static_cast<unsigned long long>(r.result.distinct_clients),
        static_cast<unsigned long long>(r.result.hot_head_requests),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Banner("Fig. 19 (ext)",
         "sharded KV serving: Zipf(1.0) open-loop load, p99 SLO");

  const bool quick = HasFlag(argc, argv, "--quick");
  const std::uint64_t requests = quick ? 1500 : 6000;

  std::vector<ServingRow> rows;
  rows.push_back(RunRow("full-body @0.5M/s", 0.5, false, requests));
  rows.push_back(RunRow("by-handle @0.5M/s", 0.5, true, requests));
  rows.push_back(RunRow("full-body @1.0M/s", 1.0, false, requests));
  rows.push_back(RunRow("by-handle @1.0M/s", 1.0, true, requests));

  Table table({"scenario", "p50(ns)", "p99(ns)", "p99.9(ns)", "SLO",
               "B/req", "hits", "resend", "ach(M/s)"});
  for (const ServingRow& r : rows) {
    table.AddRow({r.label, FmtF(r.p50_ns, "%.0f"), FmtF(r.p99_ns, "%.0f"),
                  FmtF(r.p999_ns, "%.0f"), r.slo_met ? "met" : "MISS",
                  FmtF(r.bytes_per_req, "%.0f"), FmtU64(r.result.jam.hits),
                  FmtU64(r.result.jam.resends),
                  FmtF(r.result.achieved_mops, "%.3f")});
  }
  table.Print();

  const ServingRow& cold = rows[2];  // full-body @1.0M/s
  const ServingRow& warm = rows[3];  // by-handle @1.0M/s

  bool ok = true;
  for (const ServingRow& r : rows) {
    ok &= ShapeCheck(
        (r.label + ": all requests completed, every warm get hit").c_str(),
        r.result.completed == requests &&
            r.result.get_hits == r.result.gets);
    ok &= ShapeCheck((r.label + ": percentiles ordered").c_str(),
                     r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
  }
  ok &= ShapeCheck("Zipf(1.0) head is hot (top-10 ranks > 25% of traffic)",
                   cold.result.hot_head_requests > requests / 4);
  ok &= ShapeCheck("client population is wide (thousands of distinct clients)",
                   cold.result.distinct_clients > requests / 2);
  ok &= ShapeCheck("by-handle hot path dominates the cached run (>90% hits)",
                   warm.result.jam.by_handle_sends > 0 &&
                       warm.result.jam.hits * 10 >
                           warm.result.jam.by_handle_sends * 9);
  ok &= ShapeCheck(
      "by-handle beats full-body resend on the wire (<70% bytes/request)",
      warm.bytes_per_req < 0.7 * cold.bytes_per_req);
  ok &= ShapeCheck("cache-off run sends no slim frames",
                   cold.result.jam.by_handle_sends == 0);
  ok &= ShapeCheck("cached run meets the p99 SLO at 1.0M/s", warm.slo_met);

  if (HasFlag(argc, argv, "--json")) {
    WriteJson("BENCH_kv_serving.json", rows);
  }
  return FinishChecks(ok);
}
