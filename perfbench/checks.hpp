// Output checkers of the four workloads. Each compares what the program
// returned with an expectation the benchmark computes on its own, and
// names what went wrong. run_self_test() feeds every checker known-bad
// output, so a checker that stops flagging errors fails the run.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- smc_ring ---------------------------------------------------------------

// Element-wise sum mod 2^32 of the parties' secrets.
std::vector<std::uint32_t> expected_sum(
    const std::vector<std::vector<std::uint32_t>>& secrets);

// nullopt when `result` (little-endian u32 elements) equals `expected`,
// otherwise the cause.
std::optional<std::string> check_sum(
    std::span<const std::uint8_t> result,
    const std::vector<std::uint32_t>& expected);

// --- enclave_stream ---------------------------------------------------------

inline constexpr std::size_t kStreamMessageBytes = 64 * 1024;
inline constexpr std::size_t kStreamHeaderBytes = 16;  // seq u64, send_ns u64

// Seeded content of stream messages: message `seq` carries the window of
// `pattern` starting at stream_offset(seq).
class StreamPattern {
 public:
  explicit StreamPattern(std::uint64_t seed);
  std::size_t offset(std::uint64_t seq) const;
  const std::uint8_t* body(std::uint64_t seq) const {
    return bytes_.data() + offset(seq);
  }

 private:
  static constexpr std::size_t kSlack = 4096;
  std::uint64_t seed_;
  std::vector<std::uint8_t> bytes_;
};

// Lays out message `seq` (header + seeded body) into `out`, which must hold
// kStreamMessageBytes.
void fill_stream_message(const StreamPattern& p, std::uint64_t seq,
                         std::uint64_t send_ns, std::span<std::uint8_t> out);

// nullopt when `msg` is message `expected_seq`, byte-exact.
std::optional<std::string> check_stream_message(
    const StreamPattern& p, std::span<const std::uint8_t> msg,
    std::uint64_t expected_seq);

// --- xmpp_echo --------------------------------------------------------------

// Seeded 150-byte chat body for message `seq` of sender `pair`; starts with
// "<seq>:" so a late echo can be told apart from the current one.
std::string chat_body(std::uint64_t seed, int pair, std::uint64_t seq);

struct EchoView {
  std::string kind;
  std::string from;
  std::string body;
  bool decrypt_ok = true;
};

std::optional<std::string> check_echo(const EchoView& got,
                                      const std::string& expected_from,
                                      const std::string& sent_body);

// --- pos_kv -----------------------------------------------------------------

// Values carry the key id, the writer's op sequence number and seeded
// filler derived from both.
inline constexpr std::size_t kPosValueBytes = 48;
void pos_value_into(std::uint64_t seed, std::uint32_t key, std::uint32_t seq,
                    std::uint8_t* out);  // kPosValueBytes
std::vector<std::uint8_t> pos_value(std::uint64_t seed, std::uint32_t key,
                                    std::uint32_t seq);
// The op sequence number inside a well-formed value of `key`, nullopt when
// the bytes are not a value this benchmark wrote for that key.
std::optional<std::uint32_t> pos_value_seq(std::uint64_t seed,
                                           std::uint32_t key,
                                           std::span<const std::uint8_t> v);

// Per-key writer progress as readers see it. The key's single writer
// publishes `started` (its op sequence number) before each set/erase and
// `completed` (seq << 1 | was_set) after a successful one.
inline std::uint64_t completed_word(std::uint32_t seq, bool was_set) {
  return (static_cast<std::uint64_t>(seq) << 1) | (was_set ? 1u : 0u);
}

enum class ReadVerdict {
  kOk,
  // A value written before the last completed erase.
  kResurrected,
  // A value older than the last completed set, while a later write of the
  // key had started: the newer version was being superseded.
  kSuperseded,
  // A value older than the last completed set, with nothing in flight.
  kStale,
  // Nothing, though a set completed and nothing was in flight.
  kLost,
};
const char* to_string(ReadVerdict v);

// `completed_before`: the key's completed word read before get() began.
// `started_after`: the writer's started seq read after get() returned.
// `returned_seq`: the seq inside the value get() returned, if any.
ReadVerdict judge_read(std::uint64_t completed_before,
                       std::uint32_t started_after,
                       std::optional<std::uint32_t> returned_seq);

// --- self-test ---------------------------------------------------------------

// Returns the names of checks that failed to flag known-bad output (or
// flagged known-good output); empty when every checker works.
std::vector<std::string> run_self_test();

}  // namespace perfbench
