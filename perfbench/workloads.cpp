#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "sgxsim/enclave.hpp"
#include "sgxsim/transition.hpp"
#include "util/affinity.hpp"

namespace perfbench {

Phases::Phases(const Options& opt) {
  const auto s = [](double sec) {
    return static_cast<std::uint64_t>(std::llround(sec * 1e9));
  };
  const double warmup = std::min(1.0, 0.1 * opt.seconds);
  t1_ = now_ns() + s(warmup);
  t3_ = t1_ + s(opt.seconds);
  t2_ = opt.trace ? t1_ + s(opt.seconds / 2) : t3_;
}

Phases::Phase Phases::at(std::uint64_t ns) const {
  if (ns < t1_) return kWarmup;
  if (ns < t2_) return kUntraced;
  if (ns < t3_) return kTraced;
  return kDone;
}

double Phases::untraced_s() const {
  return static_cast<double>(t2_ - t1_) / 1e9;
}

double Phases::traced_s() const {
  return static_cast<double>(t3_ - t2_) / 1e9;
}

int Phases::slice(std::uint64_t ns) const {
  if (ns < t1_ || ns >= t2_) return -1;
  const int i = static_cast<int>((ns - t1_) * kSlices / (t2_ - t1_));
  return i < kSlices ? i : kSlices - 1;
}

void Completions::merge(const Completions& other) {
  for (int p = 0; p <= Phases::kDone; ++p) by_phase_[p] += other.by_phase_[p];
  for (int i = 0; i < kSlices; ++i) by_slice_[i] += other.by_slice_[i];
}

namespace {

std::string join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : " ") + json_number(x);
  return out;
}

}  // namespace

void report_throughput(Result& r, const Phases& ph, const Completions& c) {
  const double slice_s = ph.untraced_s() / kSlices;
  std::vector<double> rates;
  for (int i = 0; i < kSlices; ++i) {
    rates.push_back(static_cast<double>(c.slices()[i]) / slice_s);
  }
  r.set("throughput_ops_per_s", quantile(rates, 1.0 - kBestSliceQuantile),
        "1/s");
  r.info["ops_per_s_per_slice"] = join(rates);
  if (ph.traced_s() > 0) {
    const double untraced =
        static_cast<double>(c.in(Phases::kUntraced)) / ph.untraced_s();
    const double traced =
        static_cast<double>(c.in(Phases::kTraced)) / ph.traced_s();
    r.set("trace.overhead_frac", untraced > 0 ? 1.0 - traced / untraced : 0,
          "frac");
    r.info["traced_throughput_ops_per_s"] = json_number(traced);
  }
}

bool timed_setups(const SetupPlan& plan, bool after, std::vector<double>& times,
                  const std::function<void()>& teardown,
                  const std::function<bool()>& setup) {
  const int n = after ? plan.count / 2 : plan.count - plan.count / 2;
  for (int i = 0; i < n; ++i) {
    if (i > 0) teardown();
    if (plan.gap_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(plan.gap_ms));
    }
    const std::uint64_t t0 = now_ns();
    const bool ok = setup();
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!ok) return false;
  }
  return true;
}

void report_setup(Result& r, const std::vector<double>& setup_s) {
  r.set("setup_s", median(setup_s), "s");
  r.info["setup_s_each"] = join(setup_s);
}

void report_latency(Result& r, const LatencyReport& l) {
  r.set("latency_p50_us", l.p50_us, "us");
  r.set("latency_p99_us", l.p99_us, "us");
  r.info["latency_p50_us_per_slice"] = join(l.p50_slices_us);
  r.info["latency_p99_us_per_slice"] = join(l.p99_slices_us);
  r.info["latency_samples"] = std::to_string(l.samples);
}

RuntimeSample sample_runtime(const ea::core::Runtime& rt) {
  RuntimeSample s;
  const ea::sgxsim::TransitionStats t = ea::sgxsim::transition_stats();
  s.ecalls = t.ecalls;
  s.ocalls = t.ocalls;
  s.paging = t.paging_events;
  for (const auto& w : rt.workers()) {
    s.rounds += w->rounds();
    s.dispatches += w->dispatches();
    s.steals += w->steals();
    if (w->name().find(".net") != std::string::npos) {
      s.net_rounds += w->rounds();
    }
  }
  for (const auto& [name, ch] : rt.channels()) {
    s.payload_copies += ch->payload_copies();
  }
  return s;
}

void HealthWatch::poll(const ea::core::Runtime& rt, bool force) {
  const std::uint64_t now = now_ns();
  if (!force && now - last_ns_ < 10'000'000) return;
  last_ns_ = now;
  std::size_t free = 0;
  {
    Span span("core.runtime.health");
    free = rt.health().pool.free;
  }
  free_min_ = std::min(free_min_, free);
}

void report_runtime_layers(Result& r, const RuntimeSample& a,
                           const RuntimeSample& b, std::uint64_t ops,
                           const ea::core::Runtime& rt,
                           const HealthWatch& watch) {
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  auto per_op = [n](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x) / n;
  };
  r.set("sgxsim.ecalls_per_op", per_op(a.ecalls, b.ecalls), "count");
  r.set("sgxsim.ocalls_per_op", per_op(a.ocalls, b.ocalls), "count");
  r.set("sgxsim.paging_events", static_cast<double>(b.paging - a.paging),
        "count");
  r.set("core.worker.rounds_per_op", per_op(a.rounds, b.rounds), "count");
  r.set("core.worker.dispatches_per_op", per_op(a.dispatches, b.dispatches),
        "count");
  r.set("core.worker.steals_per_op", per_op(a.steals, b.steals), "count");
  r.set("core.channel.payload_copies_per_op",
        per_op(a.payload_copies, b.payload_copies), "count");

  const ea::core::HealthSnapshot h = rt.health();
  std::uint64_t auth = 0;
  for (const auto& c : h.channels) auth += c.auth_failures;
  std::uint64_t committed = 0;
  for (const auto& e : h.enclaves) committed += e.committed;
  r.set("core.channel.auth_failures", static_cast<double>(auth), "count");
  r.set("concurrent.pool.exhaustions", static_cast<double>(h.pool.exhaustions),
        "count");
  r.set("concurrent.pool.free_min",
        static_cast<double>(std::min(watch.free_min(), h.pool.free)), "count");
  r.set("sgxsim.epc_committed_mib",
        static_cast<double>(committed) / (1024.0 * 1024.0), "MiB");
}

PinnedThread::PinnedThread(int cpu) {
  if (cpu < 0 || cpu >= ea::util::online_cpus()) return;
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinnedThread::~PinnedThread() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void teardown_runtime(std::unique_ptr<ea::core::Runtime>& rt) {
  if (rt == nullptr) return;
  if (rt->running()) {
    Span span("core.runtime.stop");
    rt->stop();
  }
  rt.reset();
  ea::sgxsim::EnclaveManager::instance().reset_for_testing();
}

}  // namespace perfbench
