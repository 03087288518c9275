#include "crypto/poly1305.hpp"

#include <cstring>

#include "util/bytes.hpp"

namespace ea::crypto {
namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kMask44 = 0xfffffffffff;
constexpr std::uint64_t kMask42 = 0x3ffffffffff;

}  // namespace

Poly1305::Poly1305(const PolyKey& key) {
  // r is clamped per RFC 8439 §2.5.
  const std::uint64_t t0 = util::load_le64(key.data() + 0);
  const std::uint64_t t1 = util::load_le64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  pad_[0] = util::load_le64(key.data() + 16);
  pad_[1] = util::load_le64(key.data() + 24);
}

void Poly1305::blocks(const std::uint8_t* m, std::size_t n,
                      std::uint64_t hibit) {
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // 2^130 = 5 (mod p); the extra * 4 realigns limbs 1 and 2 (44 + 44 + 42
  // bits), whose products overflow past bit 130 by 2 bits.
  const std::uint64_t s1 = r1 * (5 << 2), s2 = r2 * (5 << 2);
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; n > 0; --n, m += 16) {
    const std::uint64_t t0 = util::load_le64(m);
    const std::uint64_t t1 = util::load_le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    const u128 d0 = u128{h0} * r0 + u128{h1} * s2 + u128{h2} * s1;
    u128 d1 = u128{h0} * r1 + u128{h1} * r0 + u128{h2} * s2;
    u128 d2 = u128{h0} * r2 + u128{h1} * r1 + u128{h2} * r0;

    std::uint64_t c = static_cast<std::uint64_t>(d0 >> 44);
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<std::uint64_t>(d1 >> 44);
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<std::uint64_t>(d2 >> 42);
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::update(std::span<const std::uint8_t> data) {
  std::size_t pos = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(data.size(), std::size_t{16} - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos += take;
    if (buffer_len_ == 16) {
      blocks(buffer_, 1, std::uint64_t{1} << 40);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - pos) / 16;
  blocks(data.data() + pos, whole, std::uint64_t{1} << 40);
  pos += whole * 16;
  if (pos < data.size()) {
    std::memcpy(buffer_, data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

PolyTag Poly1305::finish() {
  if (buffer_len_ > 0) {
    // Pad the final partial block with 0x01 then zeros; the hibit is omitted.
    buffer_[buffer_len_] = 1;
    std::memset(buffer_ + buffer_len_ + 1, 0, 16 - buffer_len_ - 1);
    blocks(buffer_, 1, 0);
    buffer_len_ = 0;
  }

  // Fully carry h.
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  std::uint64_t c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // Compute h + -p and select it when h >= p.
  std::uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  std::uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);

  std::uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= p
  g0 &= mask;
  g1 &= mask;
  g2 &= mask;
  mask = ~mask;
  h0 = (h0 & mask) | g0;
  h1 = (h1 & mask) | g1;
  h2 = (h2 & mask) | g2;

  // h + pad mod 2^128.
  const std::uint64_t t0 = pad_[0], t1 = pad_[1];
  h0 += t0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += ((t1 >> 24) & kMask42) + c;
  h2 &= kMask42;

  PolyTag tag{};
  util::store_le64(tag.data(), h0 | (h1 << 44));
  util::store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

PolyTag poly1305(const PolyKey& key, std::span<const std::uint8_t> data) {
  Poly1305 mac(key);
  mac.update(data);
  return mac.finish();
}

}  // namespace ea::crypto
