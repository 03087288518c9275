// enclave_stream: two benchmark-defined eactors in two enclaves on two
// workers stream 64 KiB messages over one encrypted channel (software
// AEAD). The sender keeps at most kWindow messages unacknowledged and
// waits a seeded think time after each; the receiver verifies each message
// and returns one credit per message on the same channel. Crypto and the
// channel's bulk path do most of the work here.
#include <atomic>
#include <thread>

#include "checks.hpp"
#include "core/actor.hpp"
#include "core/channel.hpp"
#include "crypto/rng.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kWindow = 8;
// The sender waits a seeded think time, uniform in [0, kMaxThinkNs], after
// each message. Without it sender and receiver do almost the same work per
// message (fill + seal against open + compare), so whether the receiver
// keeps up depends on how the speeds of their two vCPUs happen to compare
// during a run, and p99 moved by 36 % between runs as messages did or did
// not queue. With it the receiver always waits for the next message, and
// every run sees the same spread of waits.
constexpr std::uint64_t kMaxThinkNs = 300'000;
constexpr char kChannel[] = "stream.data";
// Set-ups 50 ms apart, so that consecutive ones do not all see the same
// moment of the host.
constexpr SetupPlan kSetup{41, 50};

// State both actors and the main thread share. Counters are atomics: the
// main thread reads them while the workers run.
struct Shared {
  explicit Shared(std::uint64_t seed) : seed(seed), pattern(seed) {}
  const std::uint64_t seed;
  const StreamPattern pattern;
  // The measurement clock; until the measured set-up is warm it points at
  // one that has already ended, so nothing is recorded.
  std::atomic<const Phases*> phases{nullptr};
  std::atomic<bool> stop{false};
  std::atomic<bool> sender_stopped{false};  // sends no more after this
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> send_refused{0};  // node too small to seal
  // Written by the receiver only; read after the runtime stopped.
  Completions done;
  std::map<std::string, std::uint64_t> causes;
  SliceLatency latency;  // nanoseconds
};

class Sender : public ea::core::Actor {
 public:
  Sender(std::string name, Shared& shared)
      : ea::core::Actor(std::move(name)),
        shared_(shared),
        think_(mix64(shared.seed ^ 0x5e7dull)) {}

  void construct(ea::core::Runtime& rt) override {
    pool_ = &rt.public_pool();
    end_ = connect(kChannel);
  }

  bool body() override {
    bool progress = false;
    // Credits: each ack carries how many messages it acknowledges.
    while (ea::concurrent::NodeLease ack = end_->recv()) {
      if (ack->size == 4) acked_ += ea::util::load_le32(ack->payload());
      progress = true;
    }
    if (shared_.stop.load(std::memory_order_acquire)) {
      shared_.sender_stopped.store(true, std::memory_order_release);
      return progress;
    }
    while (seq_ - acked_ < kWindow) {
      if (now_ns() < next_send_ns_) break;
      ea::concurrent::NodeLease node(pool_->get());
      if (!node) break;  // pool momentarily empty: retry next activation
      fill_stream_message(shared_.pattern, seq_, now_ns(),
                          std::span<std::uint8_t>(node->payload(),
                                                  kStreamMessageBytes));
      node->size = static_cast<std::uint32_t>(kStreamMessageBytes);
      bool ok = false;
      {
        Span span("core.channel.send", seq_);
        ok = end_->send_node(std::move(node));
      }
      if (!ok) {
        shared_.send_refused.fetch_add(1, std::memory_order_relaxed);
        shared_.stop.store(true, std::memory_order_relaxed);
        break;
      }
      ++seq_;
      shared_.sent.store(seq_, std::memory_order_relaxed);
      next_send_ns_ = now_ns() + think_.next_below(kMaxThinkNs + 1);
      progress = true;
    }
    return progress;
  }

 private:
  Shared& shared_;
  ea::concurrent::Pool* pool_ = nullptr;
  ea::core::ChannelEnd* end_ = nullptr;
  ea::crypto::FastRng think_;
  std::uint64_t next_send_ns_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t acked_ = 0;
};

class Receiver : public ea::core::Actor {
 public:
  Receiver(std::string name, Shared& shared)
      : ea::core::Actor(std::move(name)), shared_(shared) {}

  void construct(ea::core::Runtime& rt) override {
    (void)rt;
    end_ = connect(kChannel);
  }

  bool body() override {
    bool progress = false;
    while (true) {
      ea::concurrent::NodeLease msg;
      {
        Span span("core.channel.recv", expected_);
        msg = end_->recv();
        if (!msg) span.cancel();
      }
      if (!msg) break;
      progress = true;
      const std::uint64_t t = now_ns();
      const std::span<const std::uint8_t> data = msg->data();
      if (auto bad = check_stream_message(shared_.pattern, data, expected_)) {
        ++shared_.causes[*bad];
      } else {
        const Phases& ph = *shared_.phases.load(std::memory_order_acquire);
        if (shared_.done.add(ph, t) == Phases::kUntraced) {
          shared_.latency.add(ph.slice(t),
                              t - ea::util::load_le64(data.data() + 8));
        }
      }
      // Resynchronise on the sequence number actually received, so one bad
      // message is counted once.
      if (data.size() >= 8) expected_ = ea::util::load_le64(data.data());
      ++expected_;
      ++unacked_;
      shared_.received.fetch_add(1, std::memory_order_relaxed);
    }
    if (unacked_ != 0) {
      std::uint8_t credit[4];
      ea::util::store_le32(credit, unacked_);
      if (end_->send(std::span<const std::uint8_t>(credit, 4))) unacked_ = 0;
    }
    return progress;
  }

 private:
  Shared& shared_;
  ea::core::ChannelEnd* end_ = nullptr;
  std::uint64_t expected_ = 0;
  std::uint32_t unacked_ = 0;
};

struct Stream {
  std::unique_ptr<Shared> shared;
  std::unique_ptr<ea::core::Runtime> rt;
};

bool setup(Stream& s, const Options& opt, const Phases& ended, Result& r) {
  s.shared = std::make_unique<Shared>(opt.seed);
  s.shared->phases.store(&ended);
  ea::core::RuntimeOptions options;
  options.pool_nodes = 4 * kWindow;
  options.node_payload_bytes = kStreamMessageBytes + 256;
  {
    Span span("sgxsim.attest");
    s.rt = std::make_unique<ea::core::Runtime>(options);
    ea::core::ChannelOptions channel;
    channel.cipher = ea::core::CipherModel::kSoftwareAead;
    s.rt->channel(kChannel, channel);
    s.rt->add_actor(std::make_unique<Sender>("stream.sender", *s.shared),
                    "stream.eA");
    s.rt->add_actor(std::make_unique<Receiver>("stream.receiver", *s.shared),
                    "stream.eB");
    s.rt->add_worker("stream.w0", {0}, {"stream.sender"});
    s.rt->add_worker("stream.w1", {1}, {"stream.receiver"});
  }
  {
    Span span("core.runtime.start");
    s.rt->start();
  }
  const ea::core::Channel& ch = *s.rt->channels().at(kChannel);
  if (!ch.encrypted()) {
    r.errors.push_back("enclave_stream: channel is not encrypted");
    return false;
  }
  // Warm: the first message has arrived and been verified.
  const std::uint64_t deadline = now_ns() + 2'000'000'000ull;
  while (s.shared->received.load() == 0) {
    if (now_ns() > deadline) {
      r.errors.push_back("enclave_stream: no message within 2 s");
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// Stops the sender and waits until every sent message was received.
void drain(Stream& s) {
  Shared& sh = *s.shared;
  sh.stop.store(true);
  const std::uint64_t deadline = now_ns() + 2'000'000'000ull;
  while ((!sh.sender_stopped.load() || sh.received.load() < sh.sent.load()) &&
         now_ns() < deadline) {
    std::this_thread::yield();
  }
}

// Counts the messages of a stopped stream and their failures into `r`.
void account(Stream& s, Result& r) {
  Shared& sh = *s.shared;
  const std::uint64_t sent = sh.sent.load();
  const std::uint64_t received = sh.received.load();
  r.attempted += sent;
  for (const auto& [cause, n] : sh.causes) r.fail(cause, n);
  if (received < sent) r.fail("stream_lost", sent - received);
  if (sh.send_refused.load() != 0) {
    r.errors.push_back("enclave_stream: send_node refused a 64 KiB message");
  }
}

}  // namespace

Result run_enclave_stream(const Options& opt) {
  Result r;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(opt.trace);

  Options ended_opt = opt;
  ended_opt.seconds = 0;
  const Phases ended(ended_opt);
  std::vector<double> setup_s;
  Stream s;
  const auto teardown = [&s, &r] {
    drain(s);
    teardown_runtime(s.rt);
    account(s, r);
  };
  const auto set_up = [&s, &opt, &ended, &r] {
    return setup(s, opt, ended, r);
  };
  if (!timed_setups(kSetup, false, setup_s, teardown, set_up)) {
    teardown();
    return r;
  }
  tracer.set_enabled(false);
  // The receiver records samples only once it sees `ph`.
  const Phases ph(opt);
  s.shared->phases.store(&ph, std::memory_order_release);

  ea::core::Runtime& rt = *s.rt;
  HealthWatch watch;
  RuntimeSample before;
  Phases::Phase phase = Phases::kWarmup;
  while (phase != Phases::kDone) {
    const Phases::Phase p = ph.at(now_ns());
    if (p != phase) {
      if (p == Phases::kUntraced) before = sample_runtime(rt);
      tracer.set_enabled(p == Phases::kTraced);
      phase = p;
    }
    watch.poll(rt);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const RuntimeSample after = sample_runtime(rt);
  tracer.set_enabled(opt.trace);
  watch.poll(rt, true);
  drain(s);
  {
    // Stopping joins the receiver's worker: its tallies are final after.
    Span span("core.runtime.stop");
    rt.stop();
  }
  report_runtime_layers(r, before, after, s.shared->done.measured(), rt, watch);
  report_throughput(r, ph, s.shared->done);
  report_latency(r, s.shared->latency.report(1e3));
  teardown();
  timed_setups(kSetup, true, setup_s, teardown, set_up);
  teardown();
  report_setup(r, setup_s);
  r.info["cipher"] = "software_aead";
  return r;
}

}  // namespace perfbench
