#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "core/runtime.hpp"
#include "crypto/aead.hpp"
#include "crypto/rng.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/trusted_rng.hpp"
#include "util/affinity.hpp"
#include "util/cycles.hpp"

extern char** environ;

namespace perfbench {

// --- tracing -----------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> guard(mu_);
    owned->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    owned->spans.reserve(4096);
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

std::uint64_t Tracer::next_id() {
  Buffer& b = local();
  return (static_cast<std::uint64_t>(b.tid) << 40) | b.next_seq++;
}

void Tracer::record(const SpanRecord& span) {
  Buffer& b = local();
  if (b.spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.spans.push_back(span);
  b.spans.back().tid = b.tid;
}

std::vector<SpanRecord> Tracer::collect() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::vector<SpanRecord> all = collect();
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  std::vector<SpanRecord> spans;
  std::map<std::string_view, std::size_t> per_name;
  for (const SpanRecord& s : all) {
    if (++per_name[s.name] <= kMaxWrittenPerName) spans.push_back(s);
  }
  const std::size_t total = all.size();
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans_recorded\":"
               "%zu,\"spans_written\":%zu,\"spans_dropped\":%llu},"
               "\"traceEvents\":[\n",
               total, spans.size(), static_cast<unsigned long long>(dropped()));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t op, std::uint64_t parent) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.op = op;
  rec_.parent = parent;
  rec_.id = t.next_id();
  rec_.start_ns = now_ns();
}

void Span::finish() {
  if (!active_) return;
  active_ = false;
  rec_.end_ns = now_ns();
  Tracer::instance().record(rec_);
}

std::map<std::string, double> median_durations_us(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::vector<double>> by_name;
  for (const SpanRecord& s : spans) {
    by_name[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                              1e3);
  }
  std::map<std::string, double> out;
  for (auto& [name, d] : by_name) out[name] = median(std::move(d));
  return out;
}

// --- latency -----------------------------------------------------------------

namespace {

// Order statistic q of `h`, linearly interpolated inside its bucket.
// LatencyHist::percentile() returns the bucket's upper bound, so runs that
// differ by less than a bucket (about 3 %) would read exactly the same.
double hist_quantile(const ea::util::LatencyHist& h, double q) {
  using ea::util::LatencyHist;
  const double rank = q * static_cast<double>(h.count());
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < LatencyHist::kBuckets; ++i) {
    const std::uint64_t n = h.buckets()[i];
    if (n == 0) continue;
    if (static_cast<double>(seen + n) >= rank) {
      const double lo =
          i == 0 ? 0.0
                 : static_cast<double>(LatencyHist::upper_bound(i - 1) + 1);
      const double hi = static_cast<double>(LatencyHist::upper_bound(i) + 1);
      return lo + (hi - lo) * (rank - static_cast<double>(seen)) /
                      static_cast<double>(n);
    }
    seen += n;
  }
  return static_cast<double>(h.max());
}

}  // namespace

void SliceLatency::merge(const SliceLatency& other) {
  for (int i = 0; i < kSlices; ++i) h_[i].merge(other.h_[i]);
}

LatencyReport SliceLatency::report(double per_us) const {
  LatencyReport out;
  for (const ea::util::LatencyHist& h : h_) {
    if (h.count() == 0) continue;
    out.samples += h.count();
    out.p50_slices_us.push_back(hist_quantile(h, 0.50) / per_us);
    out.p99_slices_us.push_back(hist_quantile(h, 0.99) / per_us);
  }
  out.p50_us = quantile(out.p50_slices_us, kBestSliceQuantile);
  out.p99_us = quantile(out.p99_slices_us, kBestSliceQuantile);
  return out;
}

TscRate::TscRate() : ns0_(now_ns()), tsc0_(ea::util::rdtsc()) {}

double TscRate::rate() const {
  const std::uint64_t ns = now_ns() - ns0_;
  const std::uint64_t tsc = ea::util::rdtsc() - tsc0_;
  return ns == 0 ? 1.0
                 : static_cast<double>(tsc) / (static_cast<double>(ns) / 1e3);
}

// --- host --------------------------------------------------------------------

double peak_rss_mib() {
  // VmHWM is this process image's high-water mark; getrusage's ru_maxrss
  // would also carry the pre-exec image of whatever forked us.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double b = lo + 1 < v.size() ? v[lo + 1] : v[lo];
  return v[lo] + (b - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string fingerprint_json(const Options& opt) {
  const ea::sgxsim::CostModel& m = ea::sgxsim::cost_model();
  const ea::core::RuntimeOptions defaults;  // what the runtime workloads use
  std::ostringstream o;
  o << "{\"nproc\":" << ea::util::online_cpus()
    << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
    << ",\"cpu_model\":\"" << json_escape(cpu_model()) << "\""
    << ",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER) << "\""
    << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
    << ",\"sched\":\"" << ea::core::to_string(defaults.sched) << "\""
    << ",\"net\":\"" << ea::core::to_string(defaults.net) << "\""
    << ",\"workload\":\"" << json_escape(opt.workload) << "\""
    << ",\"seed\":" << opt.seed << ",\"seconds\":" << json_number(opt.seconds)
    << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"cost_model\":{"
    << "\"ecall_cycles\":" << m.ecall_cycles
    << ",\"ocall_cycles\":" << m.ocall_cycles
    << ",\"paging_cycles_per_page\":" << m.paging_cycles_per_page
    << ",\"paging_pages_per_transition\":" << m.paging_pages_per_transition
    << ",\"rng_cycles_per_byte\":" << m.rng_cycles_per_byte
    << ",\"marshal_cycles_per_byte\":" << m.marshal_cycles_per_byte
    << ",\"marshal_spill_cycles_per_byte\":" << m.marshal_spill_cycles_per_byte
    << ",\"marshal_l1_bytes\":" << m.marshal_l1_bytes
    << ",\"mutex_spin_iterations\":" << m.mutex_spin_iterations
    << ",\"epc_usable_bytes\":" << m.epc_usable_bytes << "}}";
  return o.str();
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (std::uint64_t& x : v) in >> x;
  const long hz = sysconf(_SC_CLK_TCK);
  return in && cpu == "cpu" && hz > 0
             ? static_cast<double>(v[7]) / static_cast<double>(hz)
             : 0;
}

std::vector<std::string> forbidden_env() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string name = kv.substr(0, kv.find('='));
    if (name.rfind("EA_SGX_", 0) == 0 || name == "EA_POOL_MAGAZINE" ||
        name == "EA_POS_MAGAZINE") {
      out.push_back(name);
    }
  }
  return out;
}

std::vector<std::uint8_t> seeded_bytes(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  ea::crypto::FastRng rng(seed);
  rng.fill(out);
  return out;
}

// --- probes ------------------------------------------------------------------

void run_probes(Result& r) {
  ea::crypto::AeadKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const std::uint8_t aad[1] = {0};
  struct Size {
    std::size_t bytes;
    int reps;
    const char* seal;
    const char* open;
  };
  const Size sizes[] = {{64 * 1024, 300, "crypto.seal.64k", "crypto.open.64k"},
                        {80, 5000, "crypto.seal.80b", "crypto.open.80b"}};
  for (const Size& s : sizes) {
    std::vector<std::uint8_t> frame(ea::crypto::kAeadOverhead + s.bytes);
    const std::vector<std::uint8_t> plain = seeded_bytes(s.bytes, s.bytes);
    std::memcpy(frame.data() + ea::crypto::kAeadNonceSize, plain.data(),
                s.bytes);
    for (int i = 0; i < s.reps; ++i) {
      {
        Span span(s.seal, static_cast<std::uint64_t>(i));
        ea::crypto::seal_framed_into(key, static_cast<std::uint64_t>(i), aad,
                                     frame);
      }
      std::size_t len = 0;
      bool ok = false;
      {
        Span span(s.open, static_cast<std::uint64_t>(i));
        ok = ea::crypto::open_framed_in_place(key, aad, frame, len);
      }
      if (!ok || len != s.bytes ||
          std::memcmp(frame.data() + ea::crypto::kAeadNonceSize, plain.data(),
                      s.bytes) != 0) {
        r.errors.push_back(std::string(s.open) + " probe: round trip failed");
        return;
      }
    }
  }
  std::uint8_t rnd[80];
  for (int i = 0; i < 5000; ++i) {
    Span span("sgxsim.rng.80b", static_cast<std::uint64_t>(i));
    ea::sgxsim::trusted_read_rand(rnd);
  }
}

// --- json --------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
