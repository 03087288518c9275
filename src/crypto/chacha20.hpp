// ChaCha20 stream cipher (RFC 8439 §2.4).
//
// Stands in for the AES the paper gets from the Intel IPP library: both are
// per-byte-linear symmetric ciphers, which is the property the inter-enclave
// throughput experiments exercise.
//
// The keystream comes from one kernel written with GCC vector extensions,
// generic over the vector width: each lane computes one 64-byte block, so a
// call makes 4 blocks (SSE2, the baseline ISA) or 8 (AVX2). The variant is
// chosen once, when the library is loaded, from the CPU features the host
// hands in; the message path never queries the CPU. This mirrors the SGX
// SDK, which passes CPUID results to an enclave at initialisation because
// code inside cannot run CPUID. The keystream for a 64 KiB message costs
// about 1.1 cycles/byte with AVX2 and 2.3 with SSE2 on a 2.1 GHz Xeon
// (DESIGN.md §2).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ea::crypto {

inline constexpr std::size_t kChaChaKeySize = 32;
inline constexpr std::size_t kChaChaNonceSize = 12;
inline constexpr std::size_t kChaChaBlockSize = 64;
// Most message bytes chacha20_aead_lead covers: the lanes after block 0 of
// the widest kernel.
inline constexpr std::size_t kChaChaMaxLead = 7 * kChaChaBlockSize;

using ChaChaKey = std::array<std::uint8_t, kChaChaKeySize>;
using ChaChaNonce = std::array<std::uint8_t, kChaChaNonceSize>;

// XORs `data` with the ChaCha20 keystream in place, starting at block
// `counter`. The 32-bit block counter wraps as in RFC 8439.
void chacha20_xor(const ChaChaKey& key, std::uint32_t counter,
                  const ChaChaNonce& nonce, std::span<std::uint8_t> data);

// The first keystream call of the AEAD construction (RFC 8439 §2.8), in
// which block 0 is the one-time Poly1305 key: writes block 0's first 32
// bytes to `poly_key` and, from the same kernel call, `in` XOR blocks
// 1, 2, ... to `out` (which may alias `in`) for as many bytes as the call's
// remaining lanes cover, at most kChaChaMaxLead. Returns that byte count;
// the rest of the message continues at block 1 + count / 64.
std::size_t chacha20_aead_lead(const ChaChaKey& key, const ChaChaNonce& nonce,
                               std::span<const std::uint8_t> in,
                               std::uint8_t* out, std::uint8_t poly_key[32]);

namespace detail {

// One keystream kernel: XORs lanes * 64 bytes of `in` into `out` with
// blocks counter, counter + 1, ... of the cipher state `state`.
struct ChaChaKernel {
  const char* name;
  std::size_t lanes;
  void (*blocks)(const std::uint32_t state[16], std::uint32_t counter,
                 const std::uint8_t* in, std::uint8_t* out);
};

// The kernels this CPU can run, baseline first; the public functions use
// the last one. Exposed so tests can check every variant.
std::span<const ChaChaKernel* const> chacha20_kernels();

void chacha20_xor(const ChaChaKernel& kernel, const ChaChaKey& key,
                  std::uint32_t counter, const ChaChaNonce& nonce,
                  std::span<std::uint8_t> data);
std::size_t chacha20_aead_lead(const ChaChaKernel& kernel,
                               const ChaChaKey& key, const ChaChaNonce& nonce,
                               std::span<const std::uint8_t> in,
                               std::uint8_t* out, std::uint8_t poly_key[32]);

}  // namespace detail
}  // namespace ea::crypto
