// smc_ring: the paper's secure-sum ring (Fig. 12a point: 3 parties, dim
// 20). Each party is an eactor in its own enclave on its own worker and
// every hop is sealed with the software AEAD. One load thread keeps
// kInFlight requests queued at party 0 — a closed loop: a new request is
// issued only when a result returns. Each request is three tiny encrypted
// hops, so worker dispatch and wake-up dominate its cost.
#include <deque>
#include <thread>

#include "checks.hpp"
#include "concurrent/mbox.hpp"
#include "smc/party_actor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kParties = 3;
constexpr std::size_t kDim = 20;
constexpr std::size_t kInFlight = 4;
constexpr std::uint64_t kTimeoutNs = 2'000'000'000;
// Set-ups run back to back: each ends with one sub-millisecond op that
// must wake the pinned workers, and after an idle gap the host's vCPU
// wake-up latency would be most of it.
constexpr SetupPlan kSetup{161, 0};

struct Ring {
  std::unique_ptr<ea::core::Runtime> rt;
  ea::smc::SmcDeployment dep;
  std::vector<std::uint32_t> expected;
};

// Builds, starts and warms the ring (one checked sum). Returns false when
// the warm-up sum does not come back.
bool setup(Ring& ring, Result& r) {
  ea::smc::SmcConfig config;
  config.parties = kParties;
  config.dim = kDim;
  ea::core::RuntimeOptions options;
  options.pool_nodes = 128;
  options.node_payload_bytes = 256;
  {
    Span span("sgxsim.attest");
    ring.rt = std::make_unique<ea::core::Runtime>(options);
    ring.dep = ea::smc::install_secure_sum(*ring.rt, config);
  }
  {
    Span span("core.runtime.start");
    ring.rt->start();
  }
  // Secrets are fixed from construct() on (static, not dynamic, secrets):
  // read them before the first request.
  std::vector<std::vector<std::uint32_t>> secrets;
  for (int i = 0; i < kParties; ++i) {
    auto* party = dynamic_cast<ea::smc::PartyActor*>(
        ring.rt->find_actor("smc.p" + std::to_string(i)));
    if (party == nullptr) {
      r.errors.push_back("smc_ring: party actor missing");
      return false;
    }
    secrets.push_back(party->secret());
  }
  ring.expected = expected_sum(secrets);

  ring.dep.requests->push(ring.rt->public_pool().get());
  ++r.attempted;
  const std::uint64_t deadline = now_ns() + kTimeoutNs;
  while (now_ns() < deadline) {
    if (ea::concurrent::Node* node = ring.dep.results->pop()) {
      ea::concurrent::NodeLease lease(node);
      if (auto bad = check_sum(lease->data(), ring.expected)) r.fail(*bad);
      return true;
    }
    std::this_thread::yield();
  }
  r.fail("smc_timeout");
  return false;
}

}  // namespace

Result run_smc_ring(const Options& opt) {
  Result r;
  // The parties' workers take CPUs 0..kParties-1; the load thread gets the
  // next one, so its placement does not vary from run to run.
  const PinnedThread pin(kParties);
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(opt.trace);

  Ring ring;
  std::vector<double> setup_s;
  const auto teardown = [&ring] { teardown_runtime(ring.rt); };
  const auto set_up = [&ring, &r] { return setup(ring, r); };
  if (!timed_setups(kSetup, false, setup_s, teardown, set_up)) {
    teardown();
    r.errors.push_back("smc_ring: set-up failed");
    return r;
  }
  tracer.set_enabled(false);

  ea::core::Runtime& rt = *ring.rt;
  ea::concurrent::Pool& pool = rt.public_pool();
  struct Pending {
    std::uint64_t id;
    std::uint64_t issued_ns;
    std::uint64_t span_id;  // op.sum span, parent of the load thread's calls
  };
  std::deque<Pending> inflight;
  std::uint64_t next_id = 1;
  Completions done;
  SliceLatency latency;  // nanoseconds
  HealthWatch watch;
  RuntimeSample before;

  const Phases ph(opt);
  Phases::Phase phase = Phases::kWarmup;
  while (phase != Phases::kDone || !inflight.empty()) {
    const std::uint64_t now = now_ns();
    const Phases::Phase p = ph.at(now);
    if (p != phase) {
      if (p == Phases::kUntraced) before = sample_runtime(rt);
      tracer.set_enabled(p == Phases::kTraced);
      phase = p;
    }
    if (phase != Phases::kDone) {
      ea::concurrent::ChainBuilder chain;
      const std::size_t first = inflight.size();
      while (inflight.size() < kInFlight) {
        ea::concurrent::Node* req = pool.get();
        if (req == nullptr) break;
        chain.append(req);
        inflight.push_back(
            {next_id++, now, tracer.enabled() ? tracer.next_id() : 0});
        ++r.attempted;
      }
      if (!chain.empty()) {
        Span span("concurrent.mbox.push", inflight[first].id,
                  inflight[first].span_id);
        chain.flush_into(*ring.dep.requests);
      }
    }
    ea::concurrent::Node* burst[8];
    std::size_t got = 0;
    {
      Span span("concurrent.mbox.pop_burst",
                inflight.empty() ? 0 : inflight.front().id,
                inflight.empty() ? 0 : inflight.front().span_id);
      got = ring.dep.results->pop_burst(burst, 8);
      if (got == 0) span.cancel();
    }
    const std::uint64_t t = now_ns();
    for (std::size_t i = 0; i < got; ++i) {
      ea::concurrent::NodeLease lease(burst[i]);
      if (inflight.empty()) {
        r.errors.push_back("smc_ring: result without a request");
        continue;
      }
      const Pending req = inflight.front();
      inflight.pop_front();
      if (auto bad = check_sum(lease->data(), ring.expected)) {
        r.fail(*bad);
        continue;
      }
      if (done.add(ph, t) == Phases::kUntraced) {
        latency.add(ph.slice(t), t - req.issued_ns);
      }
      if (tracer.enabled()) {
        tracer.record({"op.sum", req.issued_ns, t,
                       req.span_id != 0 ? req.span_id : tracer.next_id(), 0,
                       req.id, 0});
      }
    }
    if (!inflight.empty() && t - inflight.front().issued_ns > kTimeoutNs) {
      // A lost request: count it and stop waiting for it.
      inflight.pop_front();
      r.fail("smc_timeout");
    }
    if (got == 0) std::this_thread::yield();
    watch.poll(rt);
  }
  tracer.set_enabled(opt.trace);
  watch.poll(rt, true);
  const RuntimeSample after = sample_runtime(rt);

  report_throughput(r, ph, done);
  report_latency(r, latency.report(1e3));
  report_runtime_layers(r, before, after, done.measured(), rt, watch);
  teardown();
  if (!timed_setups(kSetup, true, setup_s, teardown, set_up)) {
    r.errors.push_back("smc_ring: set-up failed");
  }
  teardown();
  report_setup(r, setup_s);
  return r;
}

}  // namespace perfbench
