// pos_kv: a standalone persistent object store (anonymous mapping, default
// free shards and magazines) under kClients client threads and one thread
// calling clean_step(). Every key has a single writer; gets read any key.
// The mix is mostly gets, with overwriting sets and erases beside them, and
// the store holds few enough entries that the cleaner must keep up with the
// superseded versions. Only pos and concurrent (epochs, magazines) do work
// here, and writes beside reads expose a change that speeds gets at the
// cost of set, erase or cleaning.
//
// A get is judged against its key's writer (checks.hpp, judge_read): a
// value older than the last completed write, or nothing after a completed
// set with no write in flight, is a stale read and counts as a failed
// operation. The store's known cleaner race (a newer version of a key
// unlinked before an older one below it) shows up here on multi-core hosts
// as resurrected and superseded reads; nothing in the key mix, store size,
// seed, thread count or placement is chosen to avoid it.
#include <array>
#include <atomic>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "crypto/rng.hpp"
#include "pos/pos.hpp"
#include "util/bytes.hpp"
#include "util/cycles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 3;
constexpr std::uint32_t kKeysPerClient = 256;
constexpr std::uint32_t kKeys = kClients * kKeysPerClient;
// 768 live keys in 8192 entries: about 10 ms of sets without cleaning
// fill the store.
constexpr std::uint32_t kEntries = 8192;
constexpr std::uint32_t kEntryPayload = 64;  // 6-byte key + 48-byte value
// Op mix in percent: gets below kGetPct, sets below kSetPct, erases above.
constexpr std::uint64_t kGetPct = 80;
constexpr std::uint64_t kSetPct = 95;
// In the traced phase one op in kSpanStride (and one clean_step in
// kSpanStride) is recorded as a span.
constexpr std::uint64_t kSpanStride = 256;
// Set-ups 50 ms apart, so that consecutive ones do not all see the same
// moment of the host.
constexpr SetupPlan kSetup{41, 50};

struct KeyState {
  std::atomic<std::uint32_t> started{0};
  std::atomic<std::uint64_t> completed{0};
};

std::array<std::uint8_t, 6> key_bytes(std::uint32_t k) {
  std::array<std::uint8_t, 6> b{'k', 'v', 0, 0, 0, 0};
  ea::util::store_le32(b.data() + 2, k);
  return b;
}

// What a writer knows about one of its keys.
struct OwnKey {
  std::uint32_t next_seq = 0;
  std::uint32_t set_seq = 0;  // seq of the value present; 0 = absent
};

// The measurement clock as the main thread publishes it (every ms).
struct PhaseClock {
  std::atomic<int> phase{Phases::kWarmup};
  std::atomic<int> slice{-1};
};

struct ClientTally {
  Completions done;
  std::map<std::string, std::uint64_t> causes;
  std::uint64_t stale = 0;
  SliceLatency hist;  // TSC cycles
};

struct CleanerTally {
  std::uint64_t calls = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t retired_max = 0;
  std::uint64_t outdated_max = 0;
};

struct Store {
  std::unique_ptr<ea::pos::Pos> pos;
  std::unique_ptr<KeyState[]> keys;
  std::vector<OwnKey> own;  // indexed by key; each writer touches its slice
};

// Replaces the store with a fresh, empty one. Constructing a Pos maps and
// threads its entries, which is mostly the kernel's first-touch faults on
// the mapping; that is timed apart from setup_s.
void construct(Store& s, std::vector<double>& construct_s) {
  s = Store{};
  const std::uint64_t t0 = now_ns();
  ea::pos::PosOptions options;  // empty path: anonymous mapping
  options.entry_count = kEntries;
  options.entry_payload = kEntryPayload;
  s.pos = std::make_unique<ea::pos::Pos>(options);
  construct_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
}

// Preloads every key of a fresh store; this is what setup_s times.
bool preload(Store& s, std::uint64_t seed) {
  s.keys = std::make_unique<KeyState[]>(kKeys);
  s.own.assign(kKeys, OwnKey{});
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const auto key = key_bytes(k);
    const std::vector<std::uint8_t> v = pos_value(seed, k, 1);
    if (!s.pos->set(key, v)) return false;
    s.own[k] = OwnKey{2, 1};
    s.keys[k].started.store(1);
    s.keys[k].completed.store(completed_word(1, true));
  }
  return true;
}

void client(Store& s, int id, std::uint64_t seed, const PhaseClock& clock,
            ClientTally& tally) {
  ea::pos::Pos& pos = *s.pos;
  ea::crypto::FastRng rng(
      mix64(seed ^ (0x9051ull << 8) ^ static_cast<std::uint64_t>(id)));
  const std::uint32_t first_own =
      static_cast<std::uint32_t>(id) * kKeysPerClient;
  std::uint64_t n = 0;
  while (true) {
    const auto phase = static_cast<Phases::Phase>(
        clock.phase.load(std::memory_order_relaxed));
    if (phase == Phases::kDone) break;
    const int slice = clock.slice.load(std::memory_order_relaxed);
    ++n;
    const bool span_op = phase == Phases::kTraced && n % kSpanStride == 0;
    const std::uint64_t dice = rng.next_below(100);
    std::uint64_t cycles = 0;
    if (dice < kGetPct) {
      const auto k = static_cast<std::uint32_t>(rng.next_below(kKeys));
      const auto key = key_bytes(k);
      const std::uint64_t before = s.keys[k].completed.load();
      std::optional<ea::util::Bytes> got;
      {
        std::optional<Span> span;
        if (span_op) span.emplace("pos.get", n);
        const std::uint64_t t0 = ea::util::rdtsc();
        got = pos.get(key);
        cycles = ea::util::rdtsc() - t0;
      }
      const std::uint32_t started = s.keys[k].started.load();
      std::optional<std::uint32_t> seq;
      if (got.has_value()) {
        seq = pos_value_seq(seed, k, *got);
        if (!seq.has_value()) {
          ++tally.causes["pos_corrupt_value"];
          seq = std::numeric_limits<std::uint32_t>::max();
        }
      }
      const ReadVerdict v = judge_read(before, started, seq);
      if (v != ReadVerdict::kOk) {
        ++tally.causes[to_string(v)];
        ++tally.stale;
      }
    } else {
      const std::uint32_t k = first_own + static_cast<std::uint32_t>(
                                              rng.next_below(kKeysPerClient));
      const auto key = key_bytes(k);
      OwnKey& own = s.own[k];
      const std::uint32_t seq = own.next_seq++;
      s.keys[k].started.store(seq, std::memory_order_seq_cst);
      if (dice < kSetPct) {
        std::uint8_t value[kPosValueBytes];
        pos_value_into(seed, k, seq, value);
        bool ok = false;
        {
          std::optional<Span> span;
          if (span_op) span.emplace("pos.set", n);
          const std::uint64_t t0 = ea::util::rdtsc();
          ok = pos.set(key, value);
          cycles = ea::util::rdtsc() - t0;
        }
        if (ok) {
          own.set_seq = seq;
          s.keys[k].completed.store(completed_word(seq, true),
                                    std::memory_order_seq_cst);
        } else {
          ++tally.causes["pos_set_refused"];
        }
      } else {
        bool existed = false;
        {
          std::optional<Span> span;
          if (span_op) span.emplace("pos.erase", n);
          const std::uint64_t t0 = ea::util::rdtsc();
          existed = pos.erase(key);
          cycles = ea::util::rdtsc() - t0;
        }
        if (existed != (own.set_seq != 0)) ++tally.causes["pos_erase_outcome"];
        own.set_seq = 0;
        s.keys[k].completed.store(completed_word(seq, false),
                                  std::memory_order_seq_cst);
      }
    }
    tally.done.add_in(phase, slice);
    if (slice >= 0) tally.hist.add(slice, cycles);
  }
}

void cleaner(ea::pos::Pos& pos, const std::atomic<bool>& stop,
             const PhaseClock& clock, CleanerTally& tally) {
  std::uint64_t last_stats = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto phase = static_cast<Phases::Phase>(
        clock.phase.load(std::memory_order_relaxed));
    const bool measuring =
        phase == Phases::kUntraced || phase == Phases::kTraced;
    std::size_t n = 0;
    {
      std::optional<Span> span;
      if (phase == Phases::kTraced && tally.calls % kSpanStride == 0) {
        span.emplace("pos.clean_step", tally.calls);
      }
      n = pos.clean_step();
    }
    if (measuring) {
      ++tally.calls;
      tally.reclaimed += n;
      const std::uint64_t now = now_ns();
      if (now - last_stats > 10'000'000) {
        last_stats = now;
        const ea::pos::PosStats st = pos.stats();
        tally.retired_max = std::max(tally.retired_max, st.retired);
        tally.outdated_max = std::max(tally.outdated_max, st.outdated);
      }
    }
    if (n == 0) std::this_thread::yield();
  }
}

// Drains the quiescent store and checks it against the writers' model.
void check_end_state(Store& s, std::uint64_t seed, Result& r) {
  ea::pos::Pos& pos = *s.pos;
  for (int i = 0; i < 100'000; ++i) {
    const ea::pos::PosStats st = pos.stats();
    if (st.retired == 0 && st.outdated == 0) break;
    pos.clean_step();
  }
  std::uint32_t mismatched = 0;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const auto got = pos.get(key_bytes(k));
    const OwnKey& own = s.own[k];
    bool ok = false;
    if (own.set_seq == 0) {
      ok = !got.has_value();
    } else {
      ok = got.has_value() && *got == pos_value(seed, k, own.set_seq);
    }
    if (!ok) ++mismatched;
  }
  if (mismatched != 0) {
    r.errors.push_back("pos_kv: " + std::to_string(mismatched) +
                       " keys differ from the model after the run");
  }
  const ea::pos::PosStats st = pos.stats();
  if (st.live + st.outdated + st.retired + st.free != kEntries) {
    r.errors.push_back("pos_kv: live+outdated+retired+free = " +
                       std::to_string(st.live + st.outdated + st.retired +
                                      st.free) +
                       " != entry_count " + std::to_string(kEntries));
  }
  if (st.reclaim_hazards != 0) {
    r.errors.push_back("pos_kv: reclaim_hazards = " +
                       std::to_string(st.reclaim_hazards));
  }
  if (auto err = pos.integrity_error()) {
    r.errors.push_back("pos_kv: integrity_error: " + *err);
  }
  r.set("pos.reclaim_hazards", static_cast<double>(st.reclaim_hazards),
        "count");
}

}  // namespace

Result run_pos_kv(const Options& opt) {
  Result r;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(false);

  std::vector<double> setup_s;
  std::vector<double> construct_s;
  Store s;
  const auto reset = [&s, &construct_s] { construct(s, construct_s); };
  const auto set_up = [&s, &opt] { return preload(s, opt.seed); };
  reset();
  if (!timed_setups(kSetup, false, setup_s, reset, set_up)) {
    r.errors.push_back("pos_kv: the preload of a fresh store was refused");
    return r;
  }
  r.attempted += kKeys;  // the preload sets

  PhaseClock clock;
  std::atomic<bool> stop_cleaner{false};
  std::vector<ClientTally> tallies(kClients);
  CleanerTally clean;
  const Phases ph(opt);
  std::thread cleaner_thread(cleaner, std::ref(*s.pos), std::cref(stop_cleaner),
                             std::cref(clock), std::ref(clean));
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(client, std::ref(s), i, opt.seed, std::cref(clock),
                         std::ref(tallies[static_cast<std::size_t>(i)]));
  }

  std::uint64_t epoch0 = 0;
  std::optional<TscRate> tsc;
  Phases::Phase phase = Phases::kWarmup;
  while (phase != Phases::kDone) {
    const std::uint64_t now = now_ns();
    clock.slice.store(ph.slice(now), std::memory_order_relaxed);
    const Phases::Phase p = ph.at(now);
    if (p != phase) {
      if (p == Phases::kUntraced) {
        epoch0 = s.pos->reclaim_epoch();
        tsc.emplace();
      }
      tracer.set_enabled(p == Phases::kTraced);
      clock.phase.store(p, std::memory_order_relaxed);
      phase = p;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double cycles_per_us = tsc.has_value() ? tsc->rate() : 1.0;
  const std::uint64_t epoch1 = s.pos->reclaim_epoch();
  for (std::thread& t : clients) t.join();
  stop_cleaner.store(true);
  cleaner_thread.join();
  tracer.set_enabled(opt.trace);

  Completions done;
  std::uint64_t stale = 0;
  SliceLatency hist;
  for (ClientTally& t : tallies) {
    done.merge(t.done);
    for (const auto& [cause, n] : t.causes) r.fail(cause, n);
    stale += t.stale;
    hist.merge(t.hist);
  }
  for (int p = 0; p <= Phases::kDone; ++p) {
    r.attempted += done.in(static_cast<Phases::Phase>(p));
  }
  if (r.causes.count("pos_corrupt_value") != 0) {
    r.errors.push_back("pos_kv: a get returned bytes no writer stored");
  }

  report_throughput(r, ph, done);
  report_latency(r, hist.report(cycles_per_us));
  r.info["tsc_cycles_per_us"] = json_number(cycles_per_us);

  const double window_s = ph.untraced_s() + ph.traced_s();
  r.set("pos.stale_reads", static_cast<double>(stale), "count");
  r.set("pos.set_refused",
        static_cast<double>(r.causes.count("pos_set_refused") != 0
                                ? r.causes["pos_set_refused"]
                                : 0),
        "count");
  r.set("pos.reclaimed_per_clean_step",
        clean.calls == 0 ? 0
                         : static_cast<double>(clean.reclaimed) /
                               static_cast<double>(clean.calls),
        "count");
  r.set("pos.retired_max", static_cast<double>(clean.retired_max), "count");
  r.set("pos.outdated_max", static_cast<double>(clean.outdated_max), "count");
  r.set("pos.epoch_advances_per_s",
        static_cast<double>(epoch1 - epoch0) / window_s, "1/s");

  check_end_state(s, opt.seed, r);
  r.info["clients"] = std::to_string(kClients);
  r.info["keys"] = std::to_string(kKeys);
  r.info["entry_count"] = std::to_string(kEntries);
  r.info["free_shards"] = std::to_string(s.pos->free_shard_count());
  r.info["magazines"] = s.pos->magazines_active() ? "on" : "off";

  reset();
  if (!timed_setups(kSetup, true, setup_s, reset, set_up)) {
    r.errors.push_back("pos_kv: the preload of a fresh store was refused");
  }
  report_setup(r, setup_s);
  r.info["pos_construct_s_median"] = json_number(median(construct_s));
  return r;
}

}  // namespace perfbench
