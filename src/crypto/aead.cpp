#include "crypto/aead.hpp"

#include <algorithm>
#include <cstring>

#include "util/failpoint.hpp"

namespace ea::crypto {
namespace {

PolyTag compute_tag(const PolyKey& poly_key,
                    std::span<const std::uint8_t> aad,
                    std::span<const std::uint8_t> ciphertext) {
  Poly1305 mac(poly_key);
  static constexpr std::uint8_t kZeros[16] = {};
  mac.update(aad);
  if (aad.size() % 16 != 0) {
    mac.update(std::span<const std::uint8_t>(kZeros, 16 - aad.size() % 16));
  }
  mac.update(ciphertext);
  if (ciphertext.size() % 16 != 0) {
    mac.update(
        std::span<const std::uint8_t>(kZeros, 16 - ciphertext.size() % 16));
  }
  std::uint8_t lengths[16];
  util::store_le64(lengths, aad.size());
  util::store_le64(lengths + 8, ciphertext.size());
  mac.update(lengths);
  return mac.finish();
}

std::uint32_t block_after(std::size_t lead) {
  return static_cast<std::uint32_t>(1 + lead / kChaChaBlockSize);
}

// The AEAD core every entry point wraps: encrypts `body` in place and
// returns the tag. The first keystream call makes the Poly1305 key and the
// start of the ciphertext together.
PolyTag seal_in_place(const AeadKey& key, const AeadNonce& nonce,
                      std::span<const std::uint8_t> aad,
                      std::span<std::uint8_t> body) {
  PolyKey poly_key{};
  const std::size_t lead =
      chacha20_aead_lead(key, nonce, body, body.data(), poly_key.data());
  chacha20_xor(key, block_after(lead), nonce, body.subspan(lead));
  return compute_tag(poly_key, aad, body);
}

// Authenticates `body` against `tag` and only then decrypts it in place;
// on failure `body` is left as it was. The lead's plaintext waits on the
// stack until the tag checks out.
bool open_in_place(const AeadKey& key, const AeadNonce& nonce,
                   std::span<const std::uint8_t> aad,
                   std::span<std::uint8_t> body,
                   std::span<const std::uint8_t> tag) {
  // Injected tag mismatch: behaves exactly like a corrupted frame without
  // having to craft one, so fault tests can hit every open() call site.
  if (EA_FAIL_TRIGGERED("crypto.aead.open")) return false;
  PolyKey poly_key{};
  std::uint8_t lead_plain[kChaChaMaxLead] = {};
  const std::size_t lead =
      chacha20_aead_lead(key, nonce, body, lead_plain, poly_key.data());
  if (!util::ct_equal(tag, compute_tag(poly_key, aad, body))) return false;
  std::copy_n(lead_plain, lead, body.data());
  chacha20_xor(key, block_after(lead), nonce, body.subspan(lead));
  return true;
}

}  // namespace

util::Bytes aead_encrypt(const AeadKey& key, const AeadNonce& nonce,
                         std::span<const std::uint8_t> aad,
                         std::span<const std::uint8_t> plaintext) {
  util::Bytes out(plaintext.size() + kAeadTagSize);
  std::copy(plaintext.begin(), plaintext.end(), out.begin());
  const PolyTag tag =
      seal_in_place(key, nonce, aad, std::span(out).first(plaintext.size()));
  std::copy(tag.begin(), tag.end(), out.end() - kAeadTagSize);
  return out;
}

std::optional<util::Bytes> aead_decrypt(const AeadKey& key,
                                        const AeadNonce& nonce,
                                        std::span<const std::uint8_t> aad,
                                        std::span<const std::uint8_t> sealed) {
  if (sealed.size() < kAeadTagSize) return std::nullopt;
  util::Bytes out(sealed.begin(), sealed.end() - kAeadTagSize);
  if (!open_in_place(key, nonce, aad, out, sealed.last(kAeadTagSize))) {
    return std::nullopt;
  }
  return out;
}

util::Bytes seal_with_counter(const AeadKey& key, std::uint64_t counter,
                              std::span<const std::uint8_t> aad,
                              std::span<const std::uint8_t> plaintext) {
  util::Bytes out(plaintext.size() + kAeadOverhead);
  std::copy(plaintext.begin(), plaintext.end(), out.begin() + kAeadNonceSize);
  seal_framed_into(key, counter, aad, out);
  return out;
}

std::optional<util::Bytes> open_framed(const AeadKey& key,
                                       std::span<const std::uint8_t> aad,
                                       std::span<const std::uint8_t> framed) {
  if (framed.size() < kAeadOverhead) return std::nullopt;
  AeadNonce nonce;
  std::memcpy(nonce.data(), framed.data(), nonce.size());
  return aead_decrypt(key, nonce, aad, framed.subspan(nonce.size()));
}

void seal_framed_into(const AeadKey& key, std::uint64_t counter,
                      std::span<const std::uint8_t> aad,
                      std::span<std::uint8_t> frame) {
  AeadNonce nonce{};
  util::store_le64(nonce.data() + 4, counter);
  std::memcpy(frame.data(), nonce.data(), nonce.size());
  auto body = frame.subspan(nonce.size(), frame.size() - kAeadOverhead);
  const PolyTag tag = seal_in_place(key, nonce, aad, body);
  std::memcpy(frame.data() + frame.size() - tag.size(), tag.data(),
              tag.size());
}

bool open_framed_in_place(const AeadKey& key,
                          std::span<const std::uint8_t> aad,
                          std::span<std::uint8_t> framed,
                          std::size_t& plaintext_len) {
  if (framed.size() < kAeadOverhead) return false;
  AeadNonce nonce;
  std::memcpy(nonce.data(), framed.data(), nonce.size());
  auto body = framed.subspan(nonce.size(), framed.size() - kAeadOverhead);
  if (!open_in_place(key, nonce, aad, body, framed.last(kAeadTagSize))) {
    return false;
  }
  plaintext_len = body.size();
  return true;
}

}  // namespace ea::crypto
