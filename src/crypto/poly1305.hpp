// Poly1305 one-time authenticator (RFC 8439 §2.5).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ea::crypto {

inline constexpr std::size_t kPolyKeySize = 32;
inline constexpr std::size_t kPolyTagSize = 16;

using PolyKey = std::array<std::uint8_t, kPolyKeySize>;
using PolyTag = std::array<std::uint8_t, kPolyTagSize>;

// Incremental Poly1305 over a one-time key.
class Poly1305 {
 public:
  explicit Poly1305(const PolyKey& key);

  void update(std::span<const std::uint8_t> data);
  PolyTag finish();

 private:
  // Absorbs `n` whole 16-byte blocks; `hibit` is 2^128 (in limb 2's
  // position) for full blocks and 0 for the padded final partial one.
  void blocks(const std::uint8_t* m, std::size_t n, std::uint64_t hibit);

  // 3 x 44/44/42-bit limbs with 128-bit products ("donna-64" layout).
  std::uint64_t r_[3]{};
  std::uint64_t h_[3]{};
  std::uint64_t pad_[2]{};
  std::uint8_t buffer_[16]{};
  std::size_t buffer_len_ = 0;
};

PolyTag poly1305(const PolyKey& key, std::span<const std::uint8_t> data);

}  // namespace ea::crypto
