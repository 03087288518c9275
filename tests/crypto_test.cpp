#include <gtest/gtest.h>

#include <cstring>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/deterministic.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "util/bytes.hpp"

namespace ea::crypto {
namespace {

using util::Bytes;
using util::from_hex;
using util::to_hex;

// --- Scalar references ---------------------------------------------------------
//
// A scalar ChaCha20 (one block per call) and a 26-bit-limb Poly1305, written
// straight from RFC 8439. The differential tests below hold the vector
// kernels and the 64-bit-limb Poly1305 to them byte for byte.

namespace ref {

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b;
  d = util::rotl32(d ^ a, 16);
  c += d;
  b = util::rotl32(b ^ c, 12);
  a += b;
  d = util::rotl32(d ^ a, 8);
  c += d;
  b = util::rotl32(b ^ c, 7);
}

void chacha20_block(const ChaChaKey& key, std::uint32_t counter,
                    const ChaChaNonce& nonce, std::uint8_t out[64]) {
  std::uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = util::load_le32(key.data() + i * 4);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = util::load_le32(nonce.data() + i * 4);

  std::uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
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
  for (int i = 0; i < 16; ++i) {
    util::store_le32(out + i * 4, x[i] + state[i]);
  }
}

void chacha20_xor(const ChaChaKey& key, std::uint32_t counter,
                  const ChaChaNonce& nonce, std::span<std::uint8_t> data) {
  std::uint8_t block[64];
  std::size_t off = 0;
  while (off < data.size()) {
    chacha20_block(key, counter++, nonce, block);
    std::size_t take = std::min<std::size_t>(64, data.size() - off);
    for (std::size_t i = 0; i < take; ++i) data[off + i] ^= block[i];
    off += take;
  }
}

PolyTag poly1305(const PolyKey& key, std::span<const std::uint8_t> data) {
  // r is clamped per RFC 8439 §2.5.
  std::uint32_t t0 = util::load_le32(key.data() + 0);
  std::uint32_t t1 = util::load_le32(key.data() + 4);
  std::uint32_t t2 = util::load_le32(key.data() + 8);
  std::uint32_t t3 = util::load_le32(key.data() + 12);
  const std::uint64_t r0 = t0 & 0x3ffffff;
  const std::uint64_t r1 = ((t0 >> 26) | (t1 << 6)) & 0x3ffff03;
  const std::uint64_t r2 = ((t1 >> 20) | (t2 << 12)) & 0x3ffc0ff;
  const std::uint64_t r3 = ((t2 >> 14) | (t3 << 18)) & 0x3f03fff;
  const std::uint64_t r4 = (t3 >> 8) & 0x00fffff;
  const std::uint64_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;
  std::uint32_t h[5] = {};

  for (std::size_t off = 0; off < data.size(); off += 16) {
    std::uint8_t block[16] = {};
    const std::size_t take = std::min<std::size_t>(16, data.size() - off);
    std::memcpy(block, data.data() + off, take);
    // A final partial block is padded with 0x01 and drops the hibit.
    if (take < 16) block[take] = 1;
    const std::uint32_t hibit = take < 16 ? 0 : (1u << 24);
    t0 = util::load_le32(block + 0);
    t1 = util::load_le32(block + 4);
    t2 = util::load_le32(block + 8);
    t3 = util::load_le32(block + 12);

    std::uint64_t h0 = h[0] + (t0 & 0x3ffffff);
    std::uint64_t h1 = h[1] + (((t0 >> 26) | (t1 << 6)) & 0x3ffffff);
    std::uint64_t h2 = h[2] + (((t1 >> 20) | (t2 << 12)) & 0x3ffffff);
    std::uint64_t h3 = h[3] + (((t2 >> 14) | (t3 << 18)) & 0x3ffffff);
    std::uint64_t h4 = h[4] + ((t3 >> 8) | hibit);

    std::uint64_t d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
    std::uint64_t d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
    std::uint64_t d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
    std::uint64_t d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
    std::uint64_t d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

    std::uint64_t c;
    c = d0 >> 26;
    h0 = d0 & 0x3ffffff;
    d1 += c;
    c = d1 >> 26;
    h1 = d1 & 0x3ffffff;
    d2 += c;
    c = d2 >> 26;
    h2 = d2 & 0x3ffffff;
    d3 += c;
    c = d3 >> 26;
    h3 = d3 & 0x3ffffff;
    d4 += c;
    c = d4 >> 26;
    h4 = d4 & 0x3ffffff;
    h0 += c * 5;
    c = h0 >> 26;
    h0 &= 0x3ffffff;
    h1 += c;

    h[0] = static_cast<std::uint32_t>(h0);
    h[1] = static_cast<std::uint32_t>(h1);
    h[2] = static_cast<std::uint32_t>(h2);
    h[3] = static_cast<std::uint32_t>(h3);
    h[4] = static_cast<std::uint32_t>(h4);
  }

  std::uint32_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3], h4 = h[4];
  std::uint32_t c;
  c = h1 >> 26;
  h1 &= 0x3ffffff;
  h2 += c;
  c = h2 >> 26;
  h2 &= 0x3ffffff;
  h3 += c;
  c = h3 >> 26;
  h3 &= 0x3ffffff;
  h4 += c;
  c = h4 >> 26;
  h4 &= 0x3ffffff;
  h0 += c * 5;
  c = h0 >> 26;
  h0 &= 0x3ffffff;
  h1 += c;

  // Compute h + -p and select.
  std::uint32_t g0 = h0 + 5;
  c = g0 >> 26;
  g0 &= 0x3ffffff;
  std::uint32_t g1 = h1 + c;
  c = g1 >> 26;
  g1 &= 0x3ffffff;
  std::uint32_t g2 = h2 + c;
  c = g2 >> 26;
  g2 &= 0x3ffffff;
  std::uint32_t g3 = h3 + c;
  c = g3 >> 26;
  g3 &= 0x3ffffff;
  std::uint32_t g4 = h4 + c - (1u << 26);

  std::uint32_t mask = (g4 >> 31) - 1;  // all-ones if h >= p
  g0 &= mask;
  g1 &= mask;
  g2 &= mask;
  g3 &= mask;
  g4 &= mask;
  mask = ~mask;
  h0 = (h0 & mask) | g0;
  h1 = (h1 & mask) | g1;
  h2 = (h2 & mask) | g2;
  h3 = (h3 & mask) | g3;
  h4 = (h4 & mask) | g4;

  // Serialise to 128 bits and add the pad.
  std::uint32_t f0 = h0 | (h1 << 26);
  std::uint32_t f1 = (h1 >> 6) | (h2 << 20);
  std::uint32_t f2 = (h2 >> 12) | (h3 << 14);
  std::uint32_t f3 = (h3 >> 18) | (h4 << 8);

  const std::uint8_t* pad = key.data() + 16;
  std::uint64_t acc;
  PolyTag tag{};
  acc = std::uint64_t{f0} + util::load_le32(pad + 0);
  util::store_le32(tag.data() + 0, static_cast<std::uint32_t>(acc));
  acc = std::uint64_t{f1} + util::load_le32(pad + 4) + (acc >> 32);
  util::store_le32(tag.data() + 4, static_cast<std::uint32_t>(acc));
  acc = std::uint64_t{f2} + util::load_le32(pad + 8) + (acc >> 32);
  util::store_le32(tag.data() + 8, static_cast<std::uint32_t>(acc));
  acc = std::uint64_t{f3} + util::load_le32(pad + 12) + (acc >> 32);
  util::store_le32(tag.data() + 12, static_cast<std::uint32_t>(acc));
  return tag;
}

// RFC 8439 §2.8 from the references: nonce || ciphertext || tag, laid out
// as seal_with_counter frames it.
Bytes seal_framed(const ChaChaKey& key, const ChaChaNonce& nonce,
                  std::span<const std::uint8_t> aad,
                  std::span<const std::uint8_t> plaintext) {
  std::uint8_t block0[64];
  chacha20_block(key, 0, nonce, block0);
  PolyKey poly_key;
  std::memcpy(poly_key.data(), block0, poly_key.size());
  Bytes ct(plaintext.begin(), plaintext.end());
  chacha20_xor(key, 1, nonce, ct);

  Bytes mac_input(aad.begin(), aad.end());
  mac_input.resize((mac_input.size() + 15) / 16 * 16, 0);
  mac_input.insert(mac_input.end(), ct.begin(), ct.end());
  mac_input.resize((mac_input.size() + 15) / 16 * 16, 0);
  std::uint8_t lengths[16];
  util::store_le64(lengths, aad.size());
  util::store_le64(lengths + 8, ct.size());
  mac_input.insert(mac_input.end(), lengths, lengths + 16);
  const PolyTag tag = poly1305(poly_key, mac_input);

  Bytes out(nonce.begin(), nonce.end());
  out.insert(out.end(), ct.begin(), ct.end());
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

}  // namespace ref

// Lengths every differential test covers: each length through 1100 (every
// lane and tail position of both kernels, several calls deep), one page,
// and 64 KiB plus a 15-byte tail.
std::vector<std::size_t> differential_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1100; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(65536 + 15);
  return lengths;
}

Bytes pattern_bytes(std::size_t n, std::uint64_t seed) {
  Bytes out(n);
  FastRng rng(seed);
  rng.fill(out);
  return out;
}

// --- SHA-256 (FIPS 180-4 / NIST CAVS vectors) ------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = util::random_printable(1, 1000);
  for (std::size_t split = 0; split <= msg.size(); split += 97) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split=" << split;
  }
}

// --- HMAC-SHA-256 (RFC 4231) ------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto mac = hmac_sha256(key, util::to_bytes("Hi There"));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  auto mac = hmac_sha256(util::to_bytes("Jefe"),
                         util::to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  auto mac = hmac_sha256(key, data);
  EXPECT_EQ(to_hex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  auto mac = hmac_sha256(
      key, util::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- HKDF (RFC 5869) ----------------------------------------------------------

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  Bytes ikm(22, 0x0b);
  Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, RejectsTooLong) {
  Bytes ikm(22, 0x0b);
  Sha256Digest prk = hkdf_extract({}, ikm);
  EXPECT_THROW(hkdf_expand(prk, {}, 256 * 32), std::invalid_argument);
}

// --- ChaCha20 (RFC 8439 §2.4.2) ----------------------------------------------

ChaChaKey sequential_key() {
  ChaChaKey key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  return key;
}

// §2.4.2: the whole 114-byte ciphertext, two blocks and a tail, from every
// kernel this CPU runs.
TEST(ChaCha20, Rfc8439KeystreamVector) {
  const ChaChaNonce nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const std::string expected =
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d";
  for (const detail::ChaChaKernel* kernel : detail::chacha20_kernels()) {
    SCOPED_TRACE(kernel->name);
    Bytes data = util::to_bytes(plaintext);
    detail::chacha20_xor(*kernel, sequential_key(), 1, nonce, data);
    EXPECT_EQ(to_hex(data), expected);
  }
  Bytes data = util::to_bytes(plaintext);
  ref::chacha20_xor(sequential_key(), 1, nonce, data);
  EXPECT_EQ(to_hex(data), expected);
}

// Appendix A.1 test vector #1: the all-zero key and nonce, blocks 0 and 1.
TEST(ChaCha20, Rfc8439ZeroKeyBlocks) {
  const std::string expected =
      "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
      "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
      "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
      "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f";
  for (const detail::ChaChaKernel* kernel : detail::chacha20_kernels()) {
    SCOPED_TRACE(kernel->name);
    Bytes data(128, 0);
    detail::chacha20_xor(*kernel, ChaChaKey{}, 0, ChaChaNonce{}, data);
    EXPECT_EQ(to_hex(data), expected);
  }
  std::uint8_t block[64];
  ref::chacha20_block(ChaChaKey{}, 0, ChaChaNonce{}, block);
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(block, 64)),
            expected.substr(0, 128));
}

// Every kernel against the scalar block function, at every length through
// 1100 and at 4 KiB and 64 KiB + 15, from counters that include the 32-bit
// wrap inside a vector call.
TEST(ChaCha20, KernelsMatchScalarReference) {
  const ChaChaKey key = sequential_key();
  const ChaChaNonce nonce = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0xff, 0x80};
  const std::uint32_t counters[] = {0, 1, 0xFFFFFFFC, 0xFFFFFFFD, 0xFFFFFFFE,
                                    0xFFFFFFFF};
  ASSERT_FALSE(detail::chacha20_kernels().empty());
  for (const detail::ChaChaKernel* kernel : detail::chacha20_kernels()) {
    SCOPED_TRACE(kernel->name);
    for (std::uint32_t counter : counters) {
      for (std::size_t n : differential_lengths()) {
        const Bytes plain = pattern_bytes(n, n + counter);
        Bytes fast = plain;
        Bytes slow = plain;
        detail::chacha20_xor(*kernel, key, counter, nonce, fast);
        ref::chacha20_xor(key, counter, nonce, slow);
        ASSERT_EQ(fast, slow) << "counter=" << counter << " length=" << n;
      }
    }
  }
}

// The AEAD lead: block 0's key half and blocks 1.. of the same kernel call,
// in place and out of place.
TEST(ChaCha20, AeadLeadMatchesScalarReference) {
  const ChaChaKey key = sequential_key();
  const ChaChaNonce nonce = {0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43,
                             0x44, 0x45, 0x46, 0x47};
  std::uint8_t block0[64];
  ref::chacha20_block(key, 0, nonce, block0);
  for (const detail::ChaChaKernel* kernel : detail::chacha20_kernels()) {
    SCOPED_TRACE(kernel->name);
    const std::size_t cover = (kernel->lanes - 1) * kChaChaBlockSize;
    ASSERT_LE(cover, kChaChaMaxLead);
    for (std::size_t n = 0; n <= kChaChaMaxLead + 70; ++n) {
      const Bytes plain = pattern_bytes(n, n);
      Bytes expected = plain;
      ref::chacha20_xor(key, 1, nonce, expected);

      std::uint8_t poly_key[32];
      Bytes out(n, 0);
      const std::size_t done = detail::chacha20_aead_lead(
          *kernel, key, nonce, plain, out.data(), poly_key);
      ASSERT_EQ(done, std::min(n, cover)) << "length=" << n;
      EXPECT_EQ(0, std::memcmp(poly_key, block0, 32)) << "length=" << n;
      EXPECT_TRUE(std::equal(out.begin(), out.begin() + done, expected.begin()))
          << "length=" << n;

      Bytes in_place = plain;
      detail::chacha20_aead_lead(*kernel, key, nonce, in_place,
                                 in_place.data(), poly_key);
      EXPECT_TRUE(std::equal(in_place.begin(), in_place.begin() + done,
                             expected.begin()))
          << "length=" << n;
    }
  }
}

TEST(ChaCha20, XorIsInvolution) {
  ChaChaKey key{};
  key[0] = 7;
  ChaChaNonce nonce{};
  Bytes data = util::to_bytes(util::random_printable(3, 1000));
  Bytes orig = data;
  chacha20_xor(key, 5, nonce, data);
  EXPECT_NE(data, orig);
  chacha20_xor(key, 5, nonce, data);
  EXPECT_EQ(data, orig);
}

// --- Poly1305 (RFC 8439 §2.5.2) ------------------------------------------------

TEST(Poly1305, Rfc8439Vector) {
  PolyKey key;
  Bytes key_bytes = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  auto tag = poly1305(key, util::to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(to_hex(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  PolyKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  Bytes msg = util::to_bytes(util::random_printable(9, 1100));
  auto expected = poly1305(key, msg);
  for (std::size_t split : {0u, 1u, 15u, 16u, 17u, 100u, 255u, 256u, 257u,
                            511u, 512u, 513u, 1100u}) {
    Poly1305 mac(key);
    mac.update(std::span<const std::uint8_t>(msg.data(), split));
    mac.update(std::span<const std::uint8_t>(msg.data() + split,
                                             msg.size() - split));
    EXPECT_EQ(mac.finish(), expected) << "split=" << split;
  }
  // Three pieces, the middle one shorter than a block.
  for (std::size_t split : {1u, 15u, 16u, 17u, 255u, 511u}) {
    Poly1305 mac(key);
    mac.update(std::span<const std::uint8_t>(msg.data(), split));
    mac.update(std::span<const std::uint8_t>(msg.data() + split, 7));
    mac.update(std::span<const std::uint8_t>(msg.data() + split + 7,
                                             msg.size() - split - 7));
    EXPECT_EQ(mac.finish(), expected) << "split=" << split;
  }
}

// 64-bit limbs against the 26-bit reference at every differential length.
TEST(Poly1305, MatchesScalarReference) {
  for (std::size_t n : differential_lengths()) {
    const Bytes key_bytes = pattern_bytes(kPolyKeySize, 1000 + n);
    PolyKey key;
    std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
    const Bytes msg = pattern_bytes(n, n);
    ASSERT_EQ(poly1305(key, msg), ref::poly1305(key, msg)) << "length=" << n;
  }
}

// All-ones keys and messages keep h near 2^130 - 5, so the final h >= p
// subtraction is taken.
TEST(Poly1305, AllOnesMatchesScalarReference) {
  PolyKey key;
  key.fill(0xff);
  for (std::size_t n : differential_lengths()) {
    const Bytes msg(n, 0xff);
    ASSERT_EQ(poly1305(key, msg), ref::poly1305(key, msg)) << "length=" << n;
  }
}

// Appendix A.3 vectors #5-#9, built to hit the limb carries and the final
// reduction.
TEST(Poly1305, Rfc8439EdgeVectors) {
  struct Case {
    const char* key;
    const char* msg;
    const char* tag;
  };
  const Case cases[] = {
      {"02000000000000000000000000000000"
       "00000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff",
       "03000000000000000000000000000000"},
      {"02000000000000000000000000000000"
       "ffffffffffffffffffffffffffffffff",
       "02000000000000000000000000000000",
       "03000000000000000000000000000000"},
      {"01000000000000000000000000000000"
       "00000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff"
       "f0ffffffffffffffffffffffffffffff"
       "11000000000000000000000000000000",
       "05000000000000000000000000000000"},
      {"01000000000000000000000000000000"
       "00000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff"
       "fbfefefefefefefefefefefefefefefe"
       "01010101010101010101010101010101",
       "00000000000000000000000000000000"},
      {"02000000000000000000000000000000"
       "00000000000000000000000000000000",
       "fdffffffffffffffffffffffffffffff",
       "faffffffffffffffffffffffffffffff"},
  };
  for (const Case& c : cases) {
    const Bytes key_bytes = from_hex(c.key);
    PolyKey key;
    std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
    const Bytes msg = from_hex(c.msg);
    EXPECT_EQ(to_hex(poly1305(key, msg)), c.tag) << c.msg;
    EXPECT_EQ(to_hex(ref::poly1305(key, msg)), c.tag) << c.msg;
  }
}

// --- AEAD (RFC 8439 §2.8.2) -----------------------------------------------------

TEST(Aead, Rfc8439Vector) {
  AeadKey key;
  Bytes key_bytes = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  AeadNonce nonce = {0x07, 0x00, 0x00, 0x00, 0x40, 0x41,
                     0x42, 0x43, 0x44, 0x45, 0x46, 0x47};
  Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes sealed = aead_encrypt(key, nonce, aad, util::to_bytes(plaintext));
  ASSERT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(sealed.data(),
                                                 plaintext.size())),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116");
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(
                sealed.data() + plaintext.size(), kAeadTagSize)),
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = aead_decrypt(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(util::to_string(*opened), plaintext);
}

// Every entry point against the construction built from the scalar
// references: the frames are byte-identical, and each opens back.
TEST(Aead, MatchesScalarReference) {
  AeadKey key;
  const Bytes key_bytes = pattern_bytes(kAeadKeySize, 77);
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  const Bytes aad = util::to_bytes("aad of 17 bytes..");
  for (std::size_t n : differential_lengths()) {
    SCOPED_TRACE(n);
    const std::uint64_t counter = 0x0123456789ull * (n + 1);
    AeadNonce nonce{};
    util::store_le64(nonce.data() + 4, counter);
    const Bytes plain = pattern_bytes(n, n + 3);
    const Bytes expected = ref::seal_framed(key, nonce, aad, plain);

    const Bytes framed = seal_with_counter(key, counter, aad, plain);
    ASSERT_EQ(framed, expected);
    const Bytes sealed = aead_encrypt(key, nonce, aad, plain);
    ASSERT_TRUE(std::equal(sealed.begin(), sealed.end(),
                           expected.begin() + kAeadNonceSize));
    Bytes frame(n + kAeadOverhead, 0);
    if (n > 0) std::memcpy(frame.data() + kAeadNonceSize, plain.data(), n);
    seal_framed_into(key, counter, aad, frame);
    ASSERT_EQ(frame, expected);

    auto opened = open_framed(key, aad, framed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, plain);
    auto decrypted = aead_decrypt(key, nonce, aad, sealed);
    ASSERT_TRUE(decrypted.has_value());
    EXPECT_EQ(*decrypted, plain);
    std::size_t plain_len = 0;
    ASSERT_TRUE(open_framed_in_place(key, aad, frame, plain_len));
    ASSERT_EQ(plain_len, n);
    EXPECT_TRUE(std::equal(plain.begin(), plain.end(),
                           frame.begin() + kAeadNonceSize));
  }
}

// A frame that fails authentication is left exactly as it came, including
// the part the first keystream call already decrypted off to the side.
TEST(Aead, FailedOpenLeavesFrameUntouched) {
  AeadKey key{};
  key[3] = 0x33;
  for (std::size_t n : {0u, 1u, 80u, 191u, 192u, 193u, 448u, 449u, 4096u}) {
    SCOPED_TRACE(n);
    const Bytes plain = pattern_bytes(n, n);
    Bytes frame = seal_with_counter(key, 5, {}, plain);
    frame.back() ^= 0x01;
    const Bytes before = frame;
    std::size_t plain_len = 0;
    EXPECT_FALSE(open_framed_in_place(key, {}, frame, plain_len));
    EXPECT_EQ(frame, before);
  }
}

TEST(Aead, TamperedCiphertextRejected) {
  AeadKey key{};
  key[0] = 1;
  AeadNonce nonce{};
  Bytes sealed = aead_encrypt(key, nonce, {}, util::to_bytes("secret"));
  sealed[2] ^= 0x40;
  EXPECT_FALSE(aead_decrypt(key, nonce, {}, sealed).has_value());
}

TEST(Aead, TamperedAadRejected) {
  AeadKey key{};
  AeadNonce nonce{};
  Bytes aad = util::to_bytes("context");
  Bytes sealed = aead_encrypt(key, nonce, aad, util::to_bytes("secret"));
  Bytes bad_aad = util::to_bytes("Context");
  EXPECT_FALSE(aead_decrypt(key, nonce, bad_aad, sealed).has_value());
  EXPECT_TRUE(aead_decrypt(key, nonce, aad, sealed).has_value());
}

TEST(Aead, WrongKeyRejected) {
  AeadKey key{};
  AeadKey other{};
  other[31] = 9;
  AeadNonce nonce{};
  Bytes sealed = aead_encrypt(key, nonce, {}, util::to_bytes("secret"));
  EXPECT_FALSE(aead_decrypt(other, nonce, {}, sealed).has_value());
}

TEST(Aead, FramedRoundTrip) {
  AeadKey key{};
  key[5] = 0x7a;
  Bytes aad = util::to_bytes("dir0");
  Bytes msg = util::to_bytes("payload data");
  Bytes framed = seal_with_counter(key, 1234, aad, msg);
  EXPECT_EQ(framed.size(), msg.size() + kAeadOverhead);
  auto opened = open_framed(key, aad, framed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(Aead, FramedCountersProduceDistinctCiphertexts) {
  AeadKey key{};
  Bytes msg = util::to_bytes("same message");
  Bytes a = seal_with_counter(key, 1, {}, msg);
  Bytes b = seal_with_counter(key, 2, {}, msg);
  EXPECT_NE(a, b);
}

TEST(Aead, FramedTooShortRejected) {
  AeadKey key{};
  Bytes garbage(kAeadOverhead - 1, 0);
  EXPECT_FALSE(open_framed(key, {}, garbage).has_value());
}

class AeadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadSizes, RoundTripAllSizes) {
  AeadKey key{};
  key[0] = 0x42;
  Bytes msg = util::to_bytes(util::random_printable(GetParam(), GetParam()));
  Bytes framed = seal_with_counter(key, GetParam(), {}, msg);
  auto opened = open_framed(key, {}, framed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadSizes,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 255,
                                           1024, 65536));

// --- Deterministic (SIV) ---------------------------------------------------------

TEST(Deterministic, SameInputSameOutput) {
  Bytes master(32, 0x11);
  DetKey key = derive_det_key(master);
  Bytes a = det_encrypt(key, util::to_bytes("alice"));
  Bytes b = det_encrypt(key, util::to_bytes("alice"));
  Bytes c = det_encrypt(key, util::to_bytes("alicf"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Deterministic, RoundTrip) {
  Bytes master(32, 0x22);
  DetKey key = derive_det_key(master);
  Bytes sealed = det_encrypt(key, util::to_bytes("key-material"));
  auto opened = det_decrypt(key, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(util::to_string(*opened), "key-material");
}

TEST(Deterministic, TamperRejected) {
  Bytes master(32, 0x33);
  DetKey key = derive_det_key(master);
  Bytes sealed = det_encrypt(key, util::to_bytes("key-material"));
  sealed.back() ^= 1;
  EXPECT_FALSE(det_decrypt(key, sealed).has_value());
}

TEST(Deterministic, WrongKeyRejected) {
  Bytes master_a(32, 0x44);
  Bytes master_b(32, 0x45);
  Bytes sealed = det_encrypt(derive_det_key(master_a), util::to_bytes("x"));
  EXPECT_FALSE(det_decrypt(derive_det_key(master_b), sealed).has_value());
}

// --- RNG ---------------------------------------------------------------------------

TEST(Rng, FastRngDeterministicPerSeed) {
  FastRng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  FastRng a2(123), c2(124);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, NextBelowBounds) {
  FastRng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, FillCoversBuffer) {
  FastRng rng(9);
  Bytes buf(100, 0);
  rng.fill(buf);
  int nonzero = 0;
  for (auto b : buf) nonzero += (b != 0);
  EXPECT_GT(nonzero, 50);  // overwhelmingly likely
}

TEST(Rng, SecureRandomDistinctDraws) {
  Bytes a(32, 0), b(32, 0);
  secure_random(a);
  secure_random(b);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace ea::crypto

// --- X25519 (RFC 7748) -----------------------------------------------------------

namespace ea::crypto {
namespace {

X25519Key key_from_hex(const char* hex) {
  util::Bytes b = util::from_hex(hex);
  X25519Key k{};
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

TEST(X25519, Rfc7748Vector1) {
  auto scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point = key_from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(util::to_hex(x25519(scalar, point)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  auto scalar = key_from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point = key_from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(util::to_hex(x25519(scalar, point)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748AliceBobSharedSecret) {
  auto alice_priv = key_from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto bob_priv = key_from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  auto alice_pub = x25519_base(alice_priv);
  auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(util::to_hex(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(util::to_hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  auto k1 = x25519(alice_priv, bob_pub);
  auto k2 = x25519(bob_priv, alice_pub);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(util::to_hex(k1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, KeygenProducesWorkingPairs) {
  for (int i = 0; i < 5; ++i) {
    X25519Key a = x25519_keygen();
    X25519Key b = x25519_keygen();
    EXPECT_NE(a, b);
    EXPECT_EQ(x25519(a, x25519_base(b)), x25519(b, x25519_base(a)));
  }
}

}  // namespace
}  // namespace ea::crypto
