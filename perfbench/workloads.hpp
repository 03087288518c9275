// The four workloads, and what the runtime-based ones share: the phases of
// a measurement, runtime counter samples and teardown.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/runtime.hpp"

namespace perfbench {

Result run_smc_ring(const Options& opt);
Result run_enclave_stream(const Options& opt);
Result run_xmpp_echo(const Options& opt);
Result run_pos_kv(const Options& opt);

// A run measures for opt.seconds after a warm-up. An untraced run measures
// untraced throughout; a traced run measures the first half untraced (the
// overhead baseline) and the second half traced.
class Phases {
 public:
  enum Phase { kWarmup, kUntraced, kTraced, kDone };

  explicit Phases(const Options& opt);
  Phase at(std::uint64_t ns) const;
  // Seconds of the untraced / traced measurement phases.
  double untraced_s() const;
  double traced_s() const;
  // Which of kSlices equal slices of the untraced phase `ns` falls in; -1
  // outside that phase.
  int slice(std::uint64_t ns) const;

 private:
  std::uint64_t t1_ = 0;  // warm-up ends
  std::uint64_t t2_ = 0;  // traced phase starts (== t3_ when untraced)
  std::uint64_t t3_ = 0;  // measurement ends
};

// Completed operations by phase, and by slice of the untraced phase.
class Completions {
 public:
  // Counts `n` completions at time `ns`; returns the phase they fell in.
  Phases::Phase add(const Phases& ph, std::uint64_t ns, std::uint64_t n = 1) {
    const Phases::Phase p = ph.at(ns);
    add_in(p, ph.slice(ns), n);
    return p;
  }
  void add_in(Phases::Phase p, int slice, std::uint64_t n = 1) {
    by_phase_[p] += n;
    if (slice >= 0) by_slice_[slice] += n;
  }
  void merge(const Completions& other);
  std::uint64_t in(Phases::Phase p) const { return by_phase_[p]; }
  std::uint64_t measured() const {
    return by_phase_[Phases::kUntraced] + by_phase_[Phases::kTraced];
  }
  const std::uint64_t* slices() const { return by_slice_; }

 private:
  std::uint64_t by_phase_[Phases::kDone + 1] = {};
  std::uint64_t by_slice_[kSlices] = {};
};

// Reports throughput_ops_per_s, the rate the fastest fifth of the slices
// reach (every slice's rate goes to the run record), and, for a traced
// run, trace.overhead_frac = 1 - traced / untraced mean throughput.
void report_throughput(Result& r, const Phases& ph, const Completions& c);

// How a workload times its set-up: `count` set-ups in a run, half before
// and half after the measured window, with a sleep of `gap_ms` before
// each. setup_s is their median.
struct SetupPlan {
  int count;
  int gap_ms;
};

// Times the first (`after` false) or second half of `plan`'s set-ups and
// appends each one's seconds to `times`. Before every set-up but the first
// of the half, `teardown` removes the previous one (untimed); the last
// set-up is left standing. Returns false as soon as a set-up fails.
bool timed_setups(const SetupPlan& plan, bool after, std::vector<double>& times,
                  const std::function<void()>& teardown,
                  const std::function<bool()>& setup);

// Reports setup_s, the median of the run's set-up times (all recorded in
// info).
void report_setup(Result& r, const std::vector<double>& setup_s);

// Reports latency_p50_us and latency_p99_us from a LatencyReport and
// records every slice's values and the sample count.
void report_latency(Result& r, const LatencyReport& l);

// Public counters of the runtime layers (sgxsim transitions, worker
// rounds/dispatches/steals, channel copies).
struct RuntimeSample {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  std::uint64_t paging = 0;
  std::uint64_t rounds = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t steals = 0;
  std::uint64_t net_rounds = 0;  // workers named "*.net*"
  std::uint64_t payload_copies = 0;
};
RuntimeSample sample_runtime(const ea::core::Runtime& rt);

// Samples Runtime::health() at most every 10 ms (each call a
// core.runtime.health span) and tracks the public pool's free minimum.
class HealthWatch {
 public:
  void poll(const ea::core::Runtime& rt, bool force = false);
  std::size_t free_min() const { return free_min_; }

 private:
  std::uint64_t last_ns_ = 0;
  std::size_t free_min_ = ~std::size_t{0};
};

// Per-op ratios between two samples plus end-of-run health: channel auth
// failures, pool exhaustions and free minimum, EPC committed.
void report_runtime_layers(Result& r, const RuntimeSample& a,
                           const RuntimeSample& b, std::uint64_t ops,
                           const ea::core::Runtime& rt,
                           const HealthWatch& watch);

// Pins the calling thread to `cpu` for its lifetime and restores the
// previous affinity afterwards. A no-op when the host has no such CPU.
class PinnedThread {
 public:
  explicit PinnedThread(int cpu);
  ~PinnedThread();
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t saved_{};
};

// Stops and destroys the runtime (stop timed as a core.runtime.stop span)
// and frees its enclaves, so repeated set-ups start from the same state.
void teardown_runtime(std::unique_ptr<ea::core::Runtime>& rt);

}  // namespace perfbench
