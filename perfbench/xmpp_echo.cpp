// xmpp_echo: the trusted XMPP service (1 instance, default sched and net
// modes) with 2 sender/receiver pairs — 4 connections over loopback —
// driven by one thread through Client::poll. Each sender keeps one
// 150-byte chat in flight; its receiver echoes it back. Per-message cost is
// socket syscalls, READER/WRITER, stanza parsing, directory routing and
// dispatch across the service's 4 workers; the server routes the
// end-to-end ciphertext blindly, so channel crypto, RNG and POS are
// bypassed.
#include <thread>

#include "checks.hpp"
#include "crypto/rng.hpp"
#include "xmpp/client.hpp"
#include "xmpp/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kPairs = 2;
constexpr std::uint64_t kTimeoutNs = 2'000'000'000;
// Set-ups run back to back: each ends with one sub-millisecond op that
// must wake the pinned workers, and after an idle gap the host's vCPU
// wake-up latency would be most of it.
constexpr SetupPlan kSetup{161, 0};
// A sender waits a seeded think time, uniform in [0, kMaxThinkNs], between
// an echo and its next chat. Back to back, the two closed loops are
// bistable: workers either stay hot or fall into their idle-backoff sleeps
// between messages, the system flips between the two over seconds, and
// runs disagreed by 20-35 % on p50 and throughput. With this think time
// every message meets workers in the same backoff state, and p50 includes
// their wake-up as smc_ring's does.
constexpr std::uint64_t kMaxThinkNs = 400'000;

struct Service {
  std::unique_ptr<ea::core::Runtime> rt;
  ea::xmpp::XmppService svc;
  ea::xmpp::Client senders[kPairs];
  ea::xmpp::Client receivers[kPairs];
};

std::string sender_jid(int i) { return "send" + std::to_string(i); }
std::string receiver_jid(int i) { return "recv" + std::to_string(i); }

bool setup(Service& s, Result& r) {
  {
    Span span("sgxsim.attest");
    s.rt = std::make_unique<ea::core::Runtime>();
    ea::xmpp::XmppServiceConfig config;
    config.instances = 1;
    config.trusted = true;
    s.svc = ea::xmpp::install_xmpp_service(*s.rt, config);
  }
  {
    Span span("core.runtime.start");
    s.rt->start();
  }
  for (int i = 0; i < kPairs; ++i) {
    for (auto [client, jid] : {std::pair{&s.receivers[i], receiver_jid(i)},
                               std::pair{&s.senders[i], sender_jid(i)}}) {
      Span span("net.connect", static_cast<std::uint64_t>(i));
      if (!client->connect(s.svc.port, jid)) {
        r.errors.push_back("xmpp_echo: " + jid + " could not connect");
        return false;
      }
    }
  }
  return true;
}

void teardown(Service& s) {
  for (int i = 0; i < kPairs; ++i) {
    s.senders[i].close();
    s.receivers[i].close();
  }
  teardown_runtime(s.rt);
}

// One sender's closed loop.
struct PairState {
  std::uint64_t seq = 0;
  std::string body;
  std::uint64_t sent_ns = 0;
  std::uint64_t next_send_ns = 0;  // after the think time
  std::uint64_t span_id = 0;       // the op.echo span, parent of its calls
  bool awaiting = false;
};

ea::xmpp::Client::Message poll_span(ea::xmpp::Client& c, bool& got,
                                    std::uint64_t op, std::uint64_t parent) {
  Span span("xmpp.client.poll", op, parent);
  auto msg = c.poll();
  got = msg.has_value();
  if (!got) {
    span.cancel();
    return {};
  }
  return std::move(*msg);
}

// The sequence number a chat body starts with, if it has one.
std::optional<std::uint64_t> body_seq(const std::string& body) {
  std::uint64_t seq = 0;
  std::size_t i = 0;
  for (; i < body.size() && i < 20 && body[i] >= '0' && body[i] <= '9'; ++i) {
    seq = seq * 10 + static_cast<std::uint64_t>(body[i] - '0');
  }
  if (i == 0 || i >= body.size() || body[i] != ':') return std::nullopt;
  return seq;
}

EchoView view(const ea::xmpp::Client::Message& m) {
  return EchoView{m.kind, m.from, m.body, m.decrypt_ok};
}

}  // namespace

Result run_xmpp_echo(const Options& opt) {
  Result r;
  // The service pins its 4 workers to CPUs 0..3. The load thread shares CPU 1
  // with the connector's worker, which idles once the clients are
  // connected, so its placement does not vary from run to run.
  const PinnedThread pin(1);
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(opt.trace);

  std::vector<double> setup_s;
  auto s = std::make_unique<Service>();
  const auto tear_down = [&s] {
    teardown(*s);
    s = std::make_unique<Service>();
  };
  const auto set_up = [&s, &r] { return setup(*s, r); };
  if (!timed_setups(kSetup, false, setup_s, tear_down, set_up)) {
    teardown(*s);
    return r;
  }
  tracer.set_enabled(false);

  ea::core::Runtime& rt = *s->rt;
  PairState pairs[kPairs];
  ea::crypto::FastRng think(mix64(opt.seed ^ 0x7417ull));
  auto next_send = [&think](std::uint64_t t) {
    return t + think.next_below(kMaxThinkNs + 1);
  };
  Completions done;
  std::uint64_t completed_total = 0;
  SliceLatency latency;  // nanoseconds
  HealthWatch watch;
  RuntimeSample before;

  const Phases ph(opt);
  Phases::Phase phase = Phases::kWarmup;
  auto any_awaiting = [&pairs] {
    for (const PairState& p : pairs) {
      if (p.awaiting) return true;
    }
    return false;
  };
  while (phase != Phases::kDone || any_awaiting()) {
    const Phases::Phase p = ph.at(now_ns());
    if (p != phase) {
      if (p == Phases::kUntraced) before = sample_runtime(rt);
      tracer.set_enabled(p == Phases::kTraced);
      phase = p;
    }
    bool progress = false;
    for (int i = 0; i < kPairs; ++i) {
      PairState& ps = pairs[i];
      const std::uint64_t op = (static_cast<std::uint64_t>(i) << 48) | ps.seq;
      if (!ps.awaiting && phase != Phases::kDone &&
          now_ns() >= ps.next_send_ns) {
        ps.body = chat_body(opt.seed, i, ps.seq);
        ps.sent_ns = now_ns();
        ps.span_id = tracer.enabled() ? tracer.next_id() : 0;
        ++r.attempted;
        bool ok = false;
        {
          Span span("xmpp.client.send", op, ps.span_id);
          ok = s->senders[i].send_chat(receiver_jid(i), ps.body);
        }
        if (!ok) {
          r.fail("echo_send_failed");
          ++ps.seq;
          continue;
        }
        ps.awaiting = true;
        progress = true;
      }
      // The receiver echoes what it got; it must be the current chat.
      bool got = false;
      ea::xmpp::Client::Message in =
          poll_span(s->receivers[i], got, op, ps.span_id);
      if (got && in.kind == "chat") {
        progress = true;
        const auto seq = body_seq(in.body);
        const bool late = seq.has_value() && *seq < ps.seq;  // timed out
        if (auto bad = check_echo(view(in), sender_jid(i), ps.body);
            bad && !late) {
          r.fail("forward_" + *bad);
        }
        Span span("xmpp.client.send", op, ps.span_id);
        s->receivers[i].send_chat(in.from, in.body);
      }
      ea::xmpp::Client::Message echo =
          poll_span(s->senders[i], got, op, ps.span_id);
      const std::uint64_t t = now_ns();
      if (got && echo.kind == "chat" && ps.awaiting) {
        progress = true;
        if (const auto seq = body_seq(echo.body); seq && *seq < ps.seq) {
          continue;  // a late echo of a chat already counted as timed out
        }
        if (auto bad = check_echo(view(echo), receiver_jid(i), ps.body)) {
          r.fail(*bad);
        } else {
          ++completed_total;
          if (done.add(ph, t) == Phases::kUntraced) {
            latency.add(ph.slice(t), t - ps.sent_ns);
          }
          if (tracer.enabled()) {
            tracer.record({"op.echo", ps.sent_ns, t,
                           ps.span_id != 0 ? ps.span_id : tracer.next_id(), 0,
                           op, 0});
          }
        }
        ps.awaiting = false;
        ps.next_send_ns = next_send(t);
        ++ps.seq;
      } else if (ps.awaiting && t - ps.sent_ns > kTimeoutNs) {
        r.fail("echo_timeout");
        ps.awaiting = false;
        ++ps.seq;
      }
    }
    watch.poll(rt);
    if (!progress) std::this_thread::yield();
  }
  tracer.set_enabled(opt.trace);
  watch.poll(rt, true);
  const RuntimeSample after = sample_runtime(rt);
  const std::uint64_t measured = done.measured();
  report_runtime_layers(r, before, after, measured, rt, watch);
  r.set("net.worker_rounds_per_op",
        static_cast<double>(after.net_rounds - before.net_rounds) /
            static_cast<double>(measured == 0 ? 1 : measured),
        "count");

  // messages_routed() is a plain counter of the instance's worker: read it
  // once the workers have been joined.
  ea::xmpp::XmppActor* instance = s->svc.instances.at(0);
  {
    Span span("core.runtime.stop");
    rt.stop();
  }
  r.set("xmpp.routed_per_op",
        static_cast<double>(instance->messages_routed()) /
            static_cast<double>(completed_total == 0 ? 1 : completed_total),
        "count");
  tear_down();
  timed_setups(kSetup, true, setup_s, tear_down, set_up);
  teardown(*s);
  report_setup(r, setup_s);
  report_throughput(r, ph, done);
  report_latency(r, latency.report(1e3));
  return r;
}

}  // namespace perfbench
