// Shared infrastructure of the repo benchmark: run options, the result
// record every workload fills, in-memory span tracing, latency sample
// sets, and the host fingerprint.
//
// The benchmark measures the runtime from outside: it samples the layers'
// public counters and times its own calls into each module. Spans are only
// recorded in the traced run; end-to-end numbers come from untraced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/latency_hist.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}


struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run produced. `attempted`/`failed` count operations
// (one sum, one 64 KiB message, one echo round trip, one POS call);
// `causes` breaks `failed` down. `errors` are end-state violations: any
// entry makes the run incorrect.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> causes;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;  // recorded, not gated

  void fail(const std::string& cause, std::uint64_t n = 1) {
    if (n == 0) return;
    failed += n;
    causes[cause] += n;
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in per-thread buffers, written once at exit as Chrome
// trace-event JSON. Disabled (one relaxed load per span) outside the traced
// phase of a traced run.

struct SpanRecord {
  const char* name = nullptr;  // string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // the operation the span belongs to
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Fresh span id for the calling thread (ids are unique process-wide).
  std::uint64_t next_id();
  void record(const SpanRecord& span);

  // Every span recorded so far, all threads. Call once writers are done.
  std::vector<SpanRecord> collect() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Writes {"traceEvents": [...]} to `path` — of each span name the first
  // kMaxWrittenPerName spans by start time, so every layer appears; the
  // per-layer numbers use all of them. False on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::uint64_t next_seq = 1;
    std::vector<SpanRecord> spans;
  };
  Buffer& local();

  // Per-thread cap; later spans are counted in dropped().
  static constexpr std::size_t kMaxSpansPerThread = 400'000;
  static constexpr std::size_t kMaxWrittenPerName = 40'000;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

// RAII span. Records nothing when tracing is off at construction.
class Span {
 public:
  Span(const char* name, std::uint64_t op = 0, std::uint64_t parent = 0);
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Drops the span (e.g. a poll that found nothing).
  void cancel() { active_ = false; }

 private:
  void finish();

  SpanRecord rec_;
  bool active_ = false;
};

// Median duration in microseconds of the spans of each name.
std::map<std::string, double> median_durations_us(
    const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// The measured window is cut into kSlices equal slices, and each timing
// metric is an order statistic of its per-slice values: the value the best
// fifth of the slices reach (kBestSliceQuantile from the good end). Host
// noise — hypervisor steal, delayed vCPU wake-ups — only ever slows a slice
// down and comes in bursts of seconds, so this stays put until four fifths
// of the window are hit, while a slice of a second still holds enough ops
// for its own p99.
inline constexpr int kSlices = 25;
inline constexpr double kBestSliceQuantile = 0.2;

struct LatencyReport {
  double p50_us = 0;  // kBestSliceQuantile of the slices' own p50 / p99
  double p99_us = 0;
  std::vector<double> p50_slices_us;  // every non-empty slice's own
  std::vector<double> p99_slices_us;
  std::uint64_t samples = 0;
};

// Latency per slice of the untraced phase, one fixed-size histogram each
// (ea::util::LatencyHist: about 3 % resolution, no allocation while
// recording, so peak_rss_mib does not depend on the number of ops). Units
// are the caller's: nanoseconds or TSC cycles.
class SliceLatency {
 public:
  void add(int slice, std::uint64_t v) { h_[slice].record(v); }
  void merge(const SliceLatency& other);
  // Each slice's p50 / p99, then the best-fifth order statistic of them;
  // `per_us` is the number of recorded units in a microsecond.
  LatencyReport report(double per_us) const;

 private:
  ea::util::LatencyHist h_[kSlices];
};

// TSC cycles per microsecond, measured between construction and rate().
class TscRate {
 public:
  TscRate();
  double rate() const;

 private:
  std::uint64_t ns0_;
  std::uint64_t tsc0_;
};

// ---------------------------------------------------------------------------
// Host and process facts.

double peak_rss_mib();
// Linearly interpolated quantile (Hyndman-Fan type 7); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// CPU time the hypervisor stole from this host so far, all CPUs (seconds;
// 0 when not reported). Noisy neighbours show up here.
double host_steal_s();

// JSON object (one line) describing the host, build, runtime modes and
// cost model.
std::string fingerprint_json(const Options& opt);

// Names of set environment overrides the benchmark refuses to run under.
std::vector<std::string> forbidden_env();

// Deterministic 64-bit mix (splitmix64 finaliser).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Seeded filler bytes.
std::vector<std::uint8_t> seeded_bytes(std::uint64_t seed, std::size_t n);

// Probes of single library calls the workloads depend on, recorded as
// spans: crypto seal/open at 64 KiB and 80 B, trusted RNG at 80 B.
void run_probes(Result& r);

// JSON string escaping.
std::string json_escape(const std::string& s);
// Round-trip text (17 significant digits) of a finite double; "0" for
// non-finite values.
std::string json_number(double v);

}  // namespace perfbench
