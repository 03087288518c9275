// The repo benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload, checks its outputs, and prints as its last stdout line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A full record
// (host fingerprint, failure causes, both metric sets) is written to
// DIR/<workload>-seed<N>-trace<0|1>.json, and with --trace 1 the spans to
// DIR/<workload>-seed<N>.trace.json (Chrome trace-event format).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"success_frac", "frac"},
    {"peak_rss_mib", "MiB"},
};

// Per-layer metrics. Those with a span name are the median duration of that
// span; the rest are counters the workloads set.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* span = nullptr;
};

constexpr LayerDef kPerLayer[] = {
    {"sgxsim.ecalls_per_op", "count"},
    {"sgxsim.ocalls_per_op", "count"},
    {"sgxsim.paging_events", "count"},
    {"sgxsim.rng_us.80b", "us", "sgxsim.rng.80b"},
    {"sgxsim.attest_ms", "ms", "sgxsim.attest"},
    {"sgxsim.epc_committed_mib", "MiB"},
    {"crypto.seal_us.64k", "us", "crypto.seal.64k"},
    {"crypto.open_us.64k", "us", "crypto.open.64k"},
    {"crypto.seal_us.80b", "us", "crypto.seal.80b"},
    {"crypto.open_us.80b", "us", "crypto.open.80b"},
    {"core.worker.rounds_per_op", "count"},
    {"core.worker.dispatches_per_op", "count"},
    {"core.worker.steals_per_op", "count"},
    {"core.channel.send_us", "us", "core.channel.send"},
    {"core.channel.recv_us", "us", "core.channel.recv"},
    {"core.channel.payload_copies_per_op", "count"},
    {"core.channel.auth_failures", "count"},
    {"core.runtime.start_ms", "ms", "core.runtime.start"},
    {"core.runtime.stop_ms", "ms", "core.runtime.stop"},
    {"core.runtime.health_us", "us", "core.runtime.health"},
    {"concurrent.pool.exhaustions", "count"},
    {"concurrent.pool.free_min", "count"},
    {"concurrent.mbox.push_us", "us", "concurrent.mbox.push"},
    {"concurrent.mbox.pop_burst_us", "us", "concurrent.mbox.pop_burst"},
    {"net.worker_rounds_per_op", "count"},
    {"net.connect_ms", "ms", "net.connect"},
    {"xmpp.routed_per_op", "count"},
    {"xmpp.client.send_us", "us", "xmpp.client.send"},
    {"xmpp.client.poll_us", "us", "xmpp.client.poll"},
    {"pos.get_us", "us", "pos.get"},
    {"pos.set_us", "us", "pos.set"},
    {"pos.erase_us", "us", "pos.erase"},
    {"pos.clean_step_us", "us", "pos.clean_step"},
    {"pos.reclaimed_per_clean_step", "count"},
    {"pos.retired_max", "count"},
    {"pos.outdated_max", "count"},
    {"pos.epoch_advances_per_s", "1/s"},
    {"pos.stale_reads", "count"},
    {"pos.set_refused", "count"},
    {"pos.reclaim_hazards", "count"},
    {"trace.overhead_frac", "frac"},
};

// Failure causes that are reported as failed operations without making the
// run incorrect: the two reads that ROADMAP's POS cleaner race produces
// (README, "The known POS defect"), kept visible as failures, and sets the
// store refused while the cleaner lagged. Every other cause, including a
// timeout or a lost message on the runtime workloads, fails the run.
bool wrong_output(const std::string& cause) {
  static const std::set<std::string> known = {
      "pos_resurrected_read",
      "pos_superseded_read",
      "pos_set_refused",
  };
  return known.count(cause) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload smc_ring|enclave_stream|"
               "xmpp_echo|pos_kv --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n");
  return 2;
}

std::string quoted(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

// Joins formatted members into a JSON object ("{}") or array ("[]").
std::string json_join(const std::vector<std::string>& parts,
                      const char* brackets) {
  std::string out(1, brackets[0]);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += ", ";
    out += parts[i];
  }
  return out + brackets[1];
}

// The pos.* metrics are printed by pos_kv alone. BENCHMARK.json leaves that
// workload out, since the store's known race makes it fail a varying number
// of operations (README, "The known POS defect"), so the workloads it lists
// print exactly its per-layer metrics.
bool printed(const LayerDef& d, const std::string& workload) {
  return workload == "pos_kv" || std::strncmp(d.name, "pos.", 4) != 0;
}

std::string metrics_json(const Result& r, bool per_layer,
                         const std::string& workload) {
  std::vector<std::string> parts;
  auto add = [&](const char* name) {
    const Metric& m = r.metrics.at(name);
    parts.push_back(quoted(name) + ": {\"value\": " + json_number(m.value) +
                    ", \"unit\": " + quoted(m.unit) + "}");
  };
  if (per_layer) {
    for (const LayerDef& d : kPerLayer) {
      if (printed(d, workload)) add(d.name);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) add(d.name);
  }
  return json_join(parts, "{}");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && opt.seconds > 0 &&
                     opt.seconds <= 120;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      opt.trace = v == "1";
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }

  const std::vector<std::string> env = forbidden_env();
  if (!env.empty()) {
    for (const std::string& name : env) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set (cost-model and "
                   "magazine overrides change what is measured)\n",
                   name.c_str());
    }
    return 3;
  }

  const std::map<std::string, std::function<Result(const Options&)>> runs = {
      {"smc_ring", run_smc_ring},
      {"enclave_stream", run_enclave_stream},
      {"xmpp_echo", run_xmpp_echo},
      {"pos_kv", run_pos_kv},
  };
  const auto it = runs.find(opt.workload);
  if (it == runs.end()) return usage();

  // The checkers must flag known-bad output before their verdicts count.
  const std::vector<std::string> broken = run_self_test();
  for (const std::string& name : broken) {
    std::fprintf(stderr, "perfbench: checker self-test failed: %s\n",
                 name.c_str());
  }
  if (!broken.empty()) return 4;

  const std::string fingerprint = fingerprint_json(opt);
  std::printf("# fingerprint %s\n", fingerprint.c_str());
  std::fflush(stdout);

  const double steal0 = host_steal_s();
  Result r;
  try {
    r = it->second(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 5;
  }

  Tracer& tracer = Tracer::instance();
  if (opt.trace) {
    // On a thread of their own, so the probes' spans never compete with
    // the workload's for the per-thread span budget.
    tracer.set_enabled(true);
    std::thread probes(run_probes, std::ref(r));
    probes.join();
    tracer.set_enabled(false);
  }
  const std::map<std::string, double> spans =
      median_durations_us(tracer.collect());

  r.info["host_steal_s"] = json_number(host_steal_s() - steal0);
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  r.set("success_frac",
        r.attempted == 0 ? 0
                         : 1.0 - static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
        "frac");
  std::vector<std::string> not_applicable;
  for (const LayerDef& d : kPerLayer) {
    if (!printed(d, opt.workload)) continue;
    if (d.span != nullptr) {
      const auto s = spans.find(d.span);
      if (s != spans.end()) {
        const double scale = std::strcmp(d.unit, "ms") == 0 ? 1e-3 : 1.0;
        r.set(d.name, s->second * scale, d.unit);
        continue;
      }
    } else if (r.metrics.count(d.name) != 0) {
      continue;
    }
    // The layer does no work in this workload (or the run is untraced).
    r.set(d.name, 0, d.unit);
    not_applicable.emplace_back(d.name);
  }

  for (const MetricDef& d : kEndToEnd) {
    if (r.metrics.count(d.name) == 0) {
      r.errors.push_back(std::string("missing metric ") + d.name);
      r.set(d.name, 0, d.unit);
    }
  }
  bool correct = r.errors.empty() && r.attempted > 0;
  for (const auto& [cause, n] : r.causes) {
    if (wrong_output(cause)) correct = false;
  }

  std::vector<std::string> parts;
  for (const auto& [cause, n] : r.causes) {
    parts.push_back(quoted(cause) + ": " + std::to_string(n));
  }
  const std::string causes = json_join(parts, "{}");
  parts.clear();
  for (const std::string& e : r.errors) parts.push_back(quoted(e));
  const std::string errors = json_join(parts, "[]");
  parts.clear();
  for (const auto& [k, v] : r.info) {
    parts.push_back(quoted(k) + ": " + quoted(v));
  }
  const std::string info = json_join(parts, "{}");
  parts.clear();
  for (const std::string& n : not_applicable) parts.push_back(quoted(n));
  const std::string na = json_join(parts, "[]");

  const std::string base = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  const std::string record_path =
      base + "-trace" + (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"fingerprint\": %s,\n \"correct\": %s, "
                 "\"attempted\": %llu, \"failed\": %llu,\n"
                 " \"failure_causes\": %s,\n \"errors\": %s,\n"
                 " \"info\": %s,\n \"end_to_end\": %s,\n \"per_layer\": %s,\n"
                 " \"per_layer_not_applicable\": %s,\n"
                 " \"spans_dropped\": %llu}\n",
                 fingerprint.c_str(), correct ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed), causes.c_str(),
                 errors.c_str(), info.c_str(),
                 metrics_json(r, false, opt.workload).c_str(),
                 metrics_json(r, true, opt.workload).c_str(), na.c_str(),
                 static_cast<unsigned long long>(tracer.dropped()));
    std::fclose(f);
  }
  if (opt.trace && !tracer.write_chrome_json(base + ".trace.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                 base.c_str());
  }

  std::printf("# failures %s\n# errors %s\n# info %s\n# record %s\n",
              causes.c_str(), errors.c_str(), info.c_str(),
              record_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(r, opt.trace, opt.workload).c_str());
  return 0;
}
