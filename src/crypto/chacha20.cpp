#include "crypto/chacha20.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/bytes.hpp"

namespace ea::crypto {
namespace detail {
namespace {

// Vectors go by reference between the helpers: a 32-byte vector passed by
// value from baseline-ISA code has no fixed calling convention.

// W 32-bit lanes; lane l of word i holds word i of block counter + l.
template <std::size_t W>
struct LanesOf {
  typedef std::uint32_t type __attribute__((vector_size(4 * W)));
};
template <std::size_t W>
using Lanes = typename LanesOf<W>::type;
using Row = Lanes<4>;  // 16 keystream bytes of one block

// Rotations by 16 and 8 move whole bytes, so they are shuffles: a 16-bit
// word swap (two instructions on SSE2) and, in the 8-lane AVX2 build, one
// byte shuffle. SSE2 has no byte shuffle; there the rotation by 8 stays
// two shifts and an or.
template <class V, std::size_t... I>
[[gnu::always_inline]] inline void rotl16(V& v, std::index_sequence<I...>) {
  typedef std::uint16_t Halves __attribute__((vector_size(sizeof(V))));
  const Halves h = reinterpret_cast<Halves>(v);
  v = reinterpret_cast<V>(__builtin_shufflevector(h, h, (I ^ 1)...));
}

template <class V, std::size_t... I>
[[gnu::always_inline]] inline void rotl8(V& v, std::index_sequence<I...>) {
  typedef std::uint8_t Octets __attribute__((vector_size(sizeof(V))));
  const Octets b = reinterpret_cast<Octets>(v);
  v = reinterpret_cast<V>(
      __builtin_shufflevector(b, b, ((I & ~std::size_t{3}) | ((I + 3) & 3))...));
}

template <int N, class V>
[[gnu::always_inline]] inline void rotl(V& v) {
  if constexpr (N == 16) {
    rotl16(v, std::make_index_sequence<sizeof(V) / 2>{});
  } else if constexpr (N == 8 && sizeof(V) == 32) {
    rotl8(v, std::make_index_sequence<sizeof(V)>{});
  } else {
    v = (v << N) | (v >> (32 - N));
  }
}

template <class V>
[[gnu::always_inline]] inline void quarter_round(V& a, V& b, V& c, V& d) {
  a += b;
  d ^= a;
  rotl<16>(d);
  c += d;
  b ^= c;
  rotl<12>(b);
  a += b;
  d ^= a;
  rotl<8>(d);
  c += d;
  b ^= c;
  rotl<7>(b);
}

// Index `i` of a shuffle that works inside each group of four lanes, as the
// SSE/AVX unpack instructions do: pattern entry p < 4 takes lane p of the
// group from the first operand, p >= 4 lane p - 4 from the second.
constexpr int group_index(std::size_t w, std::size_t i, const int (&p)[4]) {
  const int base = static_cast<int>(i / 4 * 4);
  const int k = p[i % 4];
  return k < 4 ? base + k : static_cast<int>(w) + base + k - 4;
}

template <int P0, int P1, int P2, int P3, class V, std::size_t... I>
[[gnu::always_inline]] inline void group_shuffle(const V& a, const V& b,
                                                 V& out,
                                                 std::index_sequence<I...>) {
  constexpr int p[4] = {P0, P1, P2, P3};
  out = __builtin_shufflevector(a, b, group_index(sizeof...(I), I, p)...);
}

template <int P0, int P1, int P2, int P3, class V>
[[gnu::always_inline]] inline void group_shuffle(const V& a, const V& b,
                                                 V& out) {
  group_shuffle<P0, P1, P2, P3>(a, b, out,
                                std::make_index_sequence<sizeof(V) / 4>{});
}

// Lane l counts block counter + l; the 32-bit counter wraps as in the
// scalar definition.
template <class V, std::size_t... L>
[[gnu::always_inline]] inline void lane_counters(std::uint32_t counter, V& out,
                                                 std::index_sequence<L...>) {
  out = V{static_cast<std::uint32_t>(counter + L)...};
}

// XORs group Q of `row` (the 16 bytes of block 4Q + j) into the message.
template <std::size_t Q, class V>
[[gnu::always_inline]] inline void xor_row(const V& row, std::size_t off,
                                           const std::uint8_t* in,
                                           std::uint8_t* out) {
  const Row ks = __builtin_shufflevector(row, row, 4 * Q, 4 * Q + 1,
                                         4 * Q + 2, 4 * Q + 3);
  Row m;
  std::memcpy(&m, in + off + Q * 4 * kChaChaBlockSize, sizeof(m));
  m ^= ks;
  std::memcpy(out + off + Q * 4 * kChaChaBlockSize, &m, sizeof(m));
}

template <class V, std::size_t... Q>
[[gnu::always_inline]] inline void xor_rows(const V& row, std::size_t off,
                                            const std::uint8_t* in,
                                            std::uint8_t* out,
                                            std::index_sequence<Q...>) {
  (xor_row<Q>(row, off, in, out), ...);
}

// The kernel: W blocks in W lanes. After the rounds, each group of four
// words is transposed 4x4 inside every group of four lanes, which turns
// "word i of blocks l..l+3" into "16 bytes of block l" rows.
template <std::size_t W>
[[gnu::always_inline]] inline void chacha_blocks(const std::uint32_t s[16],
                                                 std::uint32_t counter,
                                                 const std::uint8_t* in,
                                                 std::uint8_t* out) {
  using V = Lanes<W>;
  V init[16];
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) init[i] = V{} + s[i];
  lane_counters(counter, init[12], std::make_index_sequence<W>{});
  V x[16];
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) x[i] = init[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) x[i] += init[i];

#pragma GCC unroll 4
  for (std::size_t g = 0; g < 4; ++g) {
    V t[4], rows[4];
    group_shuffle<0, 4, 1, 5>(x[4 * g], x[4 * g + 1], t[0]);
    group_shuffle<0, 4, 1, 5>(x[4 * g + 2], x[4 * g + 3], t[1]);
    group_shuffle<2, 6, 3, 7>(x[4 * g], x[4 * g + 1], t[2]);
    group_shuffle<2, 6, 3, 7>(x[4 * g + 2], x[4 * g + 3], t[3]);
    group_shuffle<0, 1, 4, 5>(t[0], t[1], rows[0]);
    group_shuffle<2, 3, 6, 7>(t[0], t[1], rows[1]);
    group_shuffle<0, 1, 4, 5>(t[2], t[3], rows[2]);
    group_shuffle<2, 3, 6, 7>(t[2], t[3], rows[3]);
#pragma GCC unroll 4
    for (std::size_t j = 0; j < 4; ++j) {
      xor_rows(rows[j], j * kChaChaBlockSize + g * 16, in, out,
               std::make_index_sequence<W / 4>{});
    }
  }
}

void blocks_sse2(const std::uint32_t state[16], std::uint32_t counter,
                 const std::uint8_t* in, std::uint8_t* out) {
  chacha_blocks<4>(state, counter, in, out);
}

[[gnu::target("avx2")]] void blocks_avx2(const std::uint32_t state[16],
                                         std::uint32_t counter,
                                         const std::uint8_t* in,
                                         std::uint8_t* out) {
  chacha_blocks<8>(state, counter, in, out);
}

constexpr ChaChaKernel kSse2{"sse2", 4, blocks_sse2};
constexpr ChaChaKernel kAvx2{"avx2", 8, blocks_avx2};

// The host reads the CPU features once, before main, and hands them to the
// crypto layer, as the SGX SDK does at enclave initialisation. The list is
// constant-initialised to the baseline, so a caller running before this
// initialiser still gets a correct (4-lane) kernel.
const ChaChaKernel* g_kernels[] = {&kSse2, nullptr};
std::size_t g_kernel_count = 1;

[[maybe_unused]] const bool g_features_handed_in = [] {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) g_kernels[g_kernel_count++] = &kAvx2;
  return true;
}();

void init_state(const ChaChaKey& key, const ChaChaNonce& nonce,
                std::uint32_t state[16]) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = util::load_le32(key.data() + i * 4);
  state[12] = 0;
  for (int i = 0; i < 3; ++i) state[13 + i] = util::load_le32(nonce.data() + i * 4);
}

// Runs the kernel over a message prefix shorter than one call, through a
// zero-padded stack copy. `skip` leading blocks of the copy are left zero
// (their keystream is returned in place of message bytes).
void blocks_padded(const ChaChaKernel& kernel, const std::uint32_t state[16],
                   std::uint32_t counter, std::size_t skip,
                   std::span<const std::uint8_t> in, std::uint8_t* out,
                   std::uint8_t* lead_keystream) {
  alignas(32) std::uint8_t buf[8 * kChaChaBlockSize] = {};
  std::uint8_t* body = buf + skip * kChaChaBlockSize;
  std::copy(in.begin(), in.end(), body);
  kernel.blocks(state, counter, buf, buf);
  std::copy_n(body, in.size(), out);
  if (lead_keystream != nullptr) std::memcpy(lead_keystream, buf, 32);
}

}  // namespace

std::span<const ChaChaKernel* const> chacha20_kernels() {
  return {g_kernels, g_kernel_count};
}

void chacha20_xor(const ChaChaKernel& kernel, const ChaChaKey& key,
                  std::uint32_t counter, const ChaChaNonce& nonce,
                  std::span<std::uint8_t> data) {
  std::uint32_t state[16];
  init_state(key, nonce, state);
  const std::size_t step = kernel.lanes * kChaChaBlockSize;
  std::size_t off = 0;
  for (; data.size() - off >= step; off += step) {
    kernel.blocks(state, counter, data.data() + off, data.data() + off);
    counter += static_cast<std::uint32_t>(kernel.lanes);
  }
  if (off < data.size()) {
    blocks_padded(kernel, state, counter, 0, data.subspan(off),
                  data.data() + off, nullptr);
  }
}

std::size_t chacha20_aead_lead(const ChaChaKernel& kernel,
                               const ChaChaKey& key, const ChaChaNonce& nonce,
                               std::span<const std::uint8_t> in,
                               std::uint8_t* out, std::uint8_t poly_key[32]) {
  std::uint32_t state[16];
  init_state(key, nonce, state);
  const std::size_t n =
      std::min(in.size(), (kernel.lanes - 1) * kChaChaBlockSize);
  blocks_padded(kernel, state, 0, 1, in.first(n), out, poly_key);
  return n;
}

}  // namespace detail

void chacha20_xor(const ChaChaKey& key, std::uint32_t counter,
                  const ChaChaNonce& nonce, std::span<std::uint8_t> data) {
  detail::chacha20_xor(*detail::chacha20_kernels().back(), key, counter,
                       nonce, data);
}

std::size_t chacha20_aead_lead(const ChaChaKey& key, const ChaChaNonce& nonce,
                               std::span<const std::uint8_t> in,
                               std::uint8_t* out, std::uint8_t poly_key[32]) {
  return detail::chacha20_aead_lead(*detail::chacha20_kernels().back(), key,
                                    nonce, in, out, poly_key);
}

}  // namespace ea::crypto
