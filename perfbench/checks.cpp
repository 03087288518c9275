#include "checks.hpp"

#include <cstring>

#include "common.hpp"
#include "util/bytes.hpp"

namespace perfbench {

// --- smc_ring ---------------------------------------------------------------

std::vector<std::uint32_t> expected_sum(
    const std::vector<std::vector<std::uint32_t>>& secrets) {
  std::vector<std::uint32_t> sum;
  for (const auto& s : secrets) {
    if (sum.empty()) sum.assign(s.size(), 0);
    for (std::size_t i = 0; i < s.size() && i < sum.size(); ++i) {
      sum[i] += s[i];  // unsigned: wraps mod 2^32
    }
  }
  return sum;
}

std::optional<std::string> check_sum(
    std::span<const std::uint8_t> result,
    const std::vector<std::uint32_t>& expected) {
  if (result.size() != expected.size() * 4) return "sum_wrong_size";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (ea::util::load_le32(result.data() + i * 4) != expected[i]) {
      return "sum_wrong_value";
    }
  }
  return std::nullopt;
}

// --- enclave_stream ---------------------------------------------------------

StreamPattern::StreamPattern(std::uint64_t seed)
    : seed_(seed),
      bytes_(seeded_bytes(mix64(seed ^ 0x5157ull),
                          kStreamMessageBytes + kSlack)) {}

std::size_t StreamPattern::offset(std::uint64_t seq) const {
  return static_cast<std::size_t>(mix64(seed_ + seq) % kSlack);
}

void fill_stream_message(const StreamPattern& p, std::uint64_t seq,
                         std::uint64_t send_ns, std::span<std::uint8_t> out) {
  ea::util::store_le64(out.data(), seq);
  ea::util::store_le64(out.data() + 8, send_ns);
  std::memcpy(out.data() + kStreamHeaderBytes, p.body(seq),
              kStreamMessageBytes - kStreamHeaderBytes);
}

std::optional<std::string> check_stream_message(
    const StreamPattern& p, std::span<const std::uint8_t> msg,
    std::uint64_t expected_seq) {
  if (msg.size() != kStreamMessageBytes) return "stream_wrong_size";
  const std::uint64_t seq = ea::util::load_le64(msg.data());
  if (seq != expected_seq) return "stream_out_of_order";
  if (std::memcmp(msg.data() + kStreamHeaderBytes, p.body(seq),
                  kStreamMessageBytes - kStreamHeaderBytes) != 0) {
    return "stream_corrupt";
  }
  return std::nullopt;
}

// --- xmpp_echo --------------------------------------------------------------

std::string chat_body(std::uint64_t seed, int pair, std::uint64_t seq) {
  constexpr std::size_t kBody = 150;
  std::string body = std::to_string(seq) + ":";
  body += ea::util::random_printable(
      mix64(seed ^ (static_cast<std::uint64_t>(pair) << 48) ^ seq),
      kBody - body.size());
  return body;
}

std::optional<std::string> check_echo(const EchoView& got,
                                      const std::string& expected_from,
                                      const std::string& sent_body) {
  if (got.kind != "chat") return "echo_not_chat";
  if (!got.decrypt_ok) return "echo_decrypt_failed";
  if (got.from != expected_from) return "echo_wrong_sender";
  if (got.body != sent_body) return "echo_body_mismatch";
  return std::nullopt;
}

// --- pos_kv -----------------------------------------------------------------

void pos_value_into(std::uint64_t seed, std::uint32_t key, std::uint32_t seq,
                    std::uint8_t* out) {
  ea::util::store_le32(out, key);
  ea::util::store_le32(out + 4, seq);
  std::uint64_t x = mix64(seed ^ (static_cast<std::uint64_t>(key) << 32) ^ seq);
  for (std::size_t i = 8; i < kPosValueBytes; i += 8) {
    x = mix64(x);
    ea::util::store_le64(out + i, x);
  }
}

std::vector<std::uint8_t> pos_value(std::uint64_t seed, std::uint32_t key,
                                    std::uint32_t seq) {
  std::vector<std::uint8_t> v(kPosValueBytes);
  pos_value_into(seed, key, seq, v.data());
  return v;
}

std::optional<std::uint32_t> pos_value_seq(std::uint64_t seed,
                                           std::uint32_t key,
                                           std::span<const std::uint8_t> v) {
  if (v.size() != kPosValueBytes) return std::nullopt;
  if (ea::util::load_le32(v.data()) != key) return std::nullopt;
  const std::uint32_t seq = ea::util::load_le32(v.data() + 4);
  std::uint8_t want[kPosValueBytes];
  pos_value_into(seed, key, seq, want);
  if (std::memcmp(want, v.data(), kPosValueBytes) != 0) return std::nullopt;
  return seq;
}

const char* to_string(ReadVerdict v) {
  switch (v) {
    case ReadVerdict::kOk: return "ok";
    case ReadVerdict::kResurrected: return "pos_resurrected_read";
    case ReadVerdict::kSuperseded: return "pos_superseded_read";
    case ReadVerdict::kStale: return "pos_stale_read";
    case ReadVerdict::kLost: return "pos_lost_read";
  }
  return "?";
}

ReadVerdict judge_read(std::uint64_t completed_before,
                       std::uint32_t started_after,
                       std::optional<std::uint32_t> returned_seq) {
  const auto last_seq = static_cast<std::uint32_t>(completed_before >> 1);
  const bool last_was_set = (completed_before & 1u) != 0;
  if (completed_before == 0) return ReadVerdict::kOk;  // never written
  if (returned_seq.has_value()) {
    if (*returned_seq >= last_seq) return ReadVerdict::kOk;
    if (!last_was_set) return ReadVerdict::kResurrected;
    return started_after > last_seq ? ReadVerdict::kSuperseded
                                    : ReadVerdict::kStale;
  }
  // Nothing returned: wrong only when a set was the last completed op and
  // the writer started nothing since (an erase in flight may linearise
  // before the get).
  if (last_was_set && started_after == last_seq) return ReadVerdict::kLost;
  return ReadVerdict::kOk;
}

// --- self-test ---------------------------------------------------------------

std::vector<std::string> run_self_test() {
  std::vector<std::string> broken;
  auto expect = [&broken](bool flagged, const char* name) {
    if (!flagged) broken.emplace_back(name);
  };

  // smc_ring: the right sum passes, a wrong element or length is flagged.
  const std::vector<std::vector<std::uint32_t>> secrets = {
      {0xffffffffu, 1, 2}, {1, 2, 3}, {5, 0, 0xfffffff0u}};
  const std::vector<std::uint32_t> want = expected_sum(secrets);
  expect(want == std::vector<std::uint32_t>{5, 3, 0xfffffff5u},
         "smc.expected_sum_wraps");
  std::vector<std::uint8_t> bytes(want.size() * 4);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ea::util::store_le32(bytes.data() + i * 4, want[i]);
  }
  expect(!check_sum(bytes, want).has_value(), "smc.good_sum_passes");
  bytes[5] ^= 0x40;
  expect(check_sum(bytes, want) == "sum_wrong_value", "smc.wrong_sum_flagged");
  expect(check_sum(std::span<const std::uint8_t>(bytes).first(8), want) ==
             "sum_wrong_size",
         "smc.short_sum_flagged");

  // enclave_stream: in-order exact message passes; a reordered, corrupted
  // or truncated one is flagged.
  const StreamPattern pattern(42);
  std::vector<std::uint8_t> msg(kStreamMessageBytes);
  fill_stream_message(pattern, 7, 123, msg);
  expect(!check_stream_message(pattern, msg, 7).has_value(),
         "stream.good_message_passes");
  expect(check_stream_message(pattern, msg, 8) == "stream_out_of_order",
         "stream.reordered_flagged");
  msg[kStreamMessageBytes / 2] ^= 0x01;
  expect(check_stream_message(pattern, msg, 7) == "stream_corrupt",
         "stream.corrupt_flagged");
  msg[kStreamMessageBytes / 2] ^= 0x01;
  expect(check_stream_message(
             pattern, std::span<const std::uint8_t>(msg).first(100), 7) ==
             "stream_wrong_size",
         "stream.truncated_flagged");

  // xmpp_echo: the exact echo passes; a changed body, failed decryption or
  // wrong sender is flagged.
  const std::string sent = chat_body(42, 1, 9);
  expect(sent.size() == 150 && sent.rfind("9:", 0) == 0, "xmpp.body_shape");
  expect(!check_echo({"chat", "recv1", sent, true}, "recv1", sent).has_value(),
         "xmpp.good_echo_passes");
  std::string wrong = sent;
  wrong.back() = wrong.back() == 'a' ? 'b' : 'a';
  expect(check_echo({"chat", "recv1", wrong, true}, "recv1", sent) ==
             "echo_body_mismatch",
         "xmpp.wrong_echo_flagged");
  expect(check_echo({"chat", "recv1", sent, false}, "recv1", sent) ==
             "echo_decrypt_failed",
         "xmpp.undecryptable_echo_flagged");
  expect(check_echo({"chat", "recv0", sent, true}, "recv1", sent) ==
             "echo_wrong_sender",
         "xmpp.wrong_sender_flagged");

  // pos_kv: a synthetic history. Writer: set#1, set#2, erase#3, set#4.
  const std::vector<std::uint8_t> v2 = pos_value(42, 5, 2);
  expect(pos_value_seq(42, 5, v2) == 2u, "pos.value_roundtrip");
  expect(!pos_value_seq(42, 6, v2).has_value(), "pos.foreign_value_flagged");
  std::vector<std::uint8_t> torn = v2;
  torn[20] ^= 1;
  expect(!pos_value_seq(42, 5, torn).has_value(), "pos.torn_value_flagged");
  // Reads after set#2 completed (nothing in flight).
  expect(judge_read(completed_word(2, true), 2, 2u) == ReadVerdict::kOk,
         "pos.current_read_passes");
  expect(judge_read(completed_word(2, true), 2, 1u) == ReadVerdict::kStale,
         "pos.stale_read_flagged");
  // Set#3 started but not completed: set#1's value is still older than the
  // completed set#2.
  expect(judge_read(completed_word(2, true), 3, 1u) ==
             ReadVerdict::kSuperseded,
         "pos.superseded_read_flagged");
  expect(judge_read(completed_word(2, true), 3, 3u) == ReadVerdict::kOk,
         "pos.racing_set_value_passes");
  expect(judge_read(completed_word(2, true), 2, std::nullopt) ==
             ReadVerdict::kLost,
         "pos.lost_read_flagged");
  // Erase#3 in flight during the read: either outcome is linearisable.
  expect(judge_read(completed_word(2, true), 3, std::nullopt) ==
             ReadVerdict::kOk,
         "pos.racing_erase_passes");
  // After erase#3 completed: absence passes, the erased value is a
  // resurrection, set#4 racing in passes.
  expect(judge_read(completed_word(3, false), 3, std::nullopt) ==
             ReadVerdict::kOk,
         "pos.erased_absent_passes");
  expect(judge_read(completed_word(3, false), 3, 2u) ==
             ReadVerdict::kResurrected,
         "pos.resurrected_read_flagged");
  expect(judge_read(completed_word(3, false), 4, 4u) == ReadVerdict::kOk,
         "pos.racing_set_passes");
  return broken;
}

}  // namespace perfbench
