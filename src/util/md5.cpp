#include "util/md5.hpp"

#include <cstring>

#include "util/hex.hpp"

namespace repro {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

// The four auxiliary functions of RFC 1321. F and G are written as
// bit selects with one AND each, equal to the RFC's two-AND forms; H
// and I are as in the RFC.
constexpr std::uint32_t f_fn(std::uint32_t x, std::uint32_t y,
                             std::uint32_t z) noexcept {
  return z ^ (x & (y ^ z));
}
constexpr std::uint32_t g_fn(std::uint32_t x, std::uint32_t y,
                             std::uint32_t z) noexcept {
  return y ^ (z & (x ^ y));
}
constexpr std::uint32_t h_fn(std::uint32_t x, std::uint32_t y,
                             std::uint32_t z) noexcept {
  return x ^ y ^ z;
}
constexpr std::uint32_t i_fn(std::uint32_t x, std::uint32_t y,
                             std::uint32_t z) noexcept {
  return y ^ (x | ~z);
}

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

/// One MD5 step: a = b + ((a + fn(b, c, d) + word + sine) <<< shift).
/// The shift amount and sine constant are template arguments, so every
/// step of the unrolled core compiles to immediates.
template <std::uint32_t (*Fn)(std::uint32_t, std::uint32_t, std::uint32_t),
          int Shift, std::uint32_t Sine>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t word) noexcept {
  a = b + rotl32(a + Fn(b, c, d) + word + Sine, Shift);
}

}  // namespace

Md5::Md5() noexcept {
  std::memcpy(state_, kInit, sizeof(state_));
}

void Md5::process_block(const std::uint8_t* block) noexcept {
  // Little-endian word load, independent of the host byte order.
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 3]) << 24;
  }
  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];

  // Round 1: F, message words in order.
  step<f_fn, 7, 0xd76aa478u>(a, b, c, d, m[0]);
  step<f_fn, 12, 0xe8c7b756u>(d, a, b, c, m[1]);
  step<f_fn, 17, 0x242070dbu>(c, d, a, b, m[2]);
  step<f_fn, 22, 0xc1bdceeeu>(b, c, d, a, m[3]);
  step<f_fn, 7, 0xf57c0fafu>(a, b, c, d, m[4]);
  step<f_fn, 12, 0x4787c62au>(d, a, b, c, m[5]);
  step<f_fn, 17, 0xa8304613u>(c, d, a, b, m[6]);
  step<f_fn, 22, 0xfd469501u>(b, c, d, a, m[7]);
  step<f_fn, 7, 0x698098d8u>(a, b, c, d, m[8]);
  step<f_fn, 12, 0x8b44f7afu>(d, a, b, c, m[9]);
  step<f_fn, 17, 0xffff5bb1u>(c, d, a, b, m[10]);
  step<f_fn, 22, 0x895cd7beu>(b, c, d, a, m[11]);
  step<f_fn, 7, 0x6b901122u>(a, b, c, d, m[12]);
  step<f_fn, 12, 0xfd987193u>(d, a, b, c, m[13]);
  step<f_fn, 17, 0xa679438eu>(c, d, a, b, m[14]);
  step<f_fn, 22, 0x49b40821u>(b, c, d, a, m[15]);

  // Round 2: G, word (5i + 1) mod 16.
  step<g_fn, 5, 0xf61e2562u>(a, b, c, d, m[1]);
  step<g_fn, 9, 0xc040b340u>(d, a, b, c, m[6]);
  step<g_fn, 14, 0x265e5a51u>(c, d, a, b, m[11]);
  step<g_fn, 20, 0xe9b6c7aau>(b, c, d, a, m[0]);
  step<g_fn, 5, 0xd62f105du>(a, b, c, d, m[5]);
  step<g_fn, 9, 0x02441453u>(d, a, b, c, m[10]);
  step<g_fn, 14, 0xd8a1e681u>(c, d, a, b, m[15]);
  step<g_fn, 20, 0xe7d3fbc8u>(b, c, d, a, m[4]);
  step<g_fn, 5, 0x21e1cde6u>(a, b, c, d, m[9]);
  step<g_fn, 9, 0xc33707d6u>(d, a, b, c, m[14]);
  step<g_fn, 14, 0xf4d50d87u>(c, d, a, b, m[3]);
  step<g_fn, 20, 0x455a14edu>(b, c, d, a, m[8]);
  step<g_fn, 5, 0xa9e3e905u>(a, b, c, d, m[13]);
  step<g_fn, 9, 0xfcefa3f8u>(d, a, b, c, m[2]);
  step<g_fn, 14, 0x676f02d9u>(c, d, a, b, m[7]);
  step<g_fn, 20, 0x8d2a4c8au>(b, c, d, a, m[12]);

  // Round 3: H, word (3i + 5) mod 16.
  step<h_fn, 4, 0xfffa3942u>(a, b, c, d, m[5]);
  step<h_fn, 11, 0x8771f681u>(d, a, b, c, m[8]);
  step<h_fn, 16, 0x6d9d6122u>(c, d, a, b, m[11]);
  step<h_fn, 23, 0xfde5380cu>(b, c, d, a, m[14]);
  step<h_fn, 4, 0xa4beea44u>(a, b, c, d, m[1]);
  step<h_fn, 11, 0x4bdecfa9u>(d, a, b, c, m[4]);
  step<h_fn, 16, 0xf6bb4b60u>(c, d, a, b, m[7]);
  step<h_fn, 23, 0xbebfbc70u>(b, c, d, a, m[10]);
  step<h_fn, 4, 0x289b7ec6u>(a, b, c, d, m[13]);
  step<h_fn, 11, 0xeaa127fau>(d, a, b, c, m[0]);
  step<h_fn, 16, 0xd4ef3085u>(c, d, a, b, m[3]);
  step<h_fn, 23, 0x04881d05u>(b, c, d, a, m[6]);
  step<h_fn, 4, 0xd9d4d039u>(a, b, c, d, m[9]);
  step<h_fn, 11, 0xe6db99e5u>(d, a, b, c, m[12]);
  step<h_fn, 16, 0x1fa27cf8u>(c, d, a, b, m[15]);
  step<h_fn, 23, 0xc4ac5665u>(b, c, d, a, m[2]);

  // Round 4: I, word 7i mod 16.
  step<i_fn, 6, 0xf4292244u>(a, b, c, d, m[0]);
  step<i_fn, 10, 0x432aff97u>(d, a, b, c, m[7]);
  step<i_fn, 15, 0xab9423a7u>(c, d, a, b, m[14]);
  step<i_fn, 21, 0xfc93a039u>(b, c, d, a, m[5]);
  step<i_fn, 6, 0x655b59c3u>(a, b, c, d, m[12]);
  step<i_fn, 10, 0x8f0ccc92u>(d, a, b, c, m[3]);
  step<i_fn, 15, 0xffeff47du>(c, d, a, b, m[10]);
  step<i_fn, 21, 0x85845dd1u>(b, c, d, a, m[1]);
  step<i_fn, 6, 0x6fa87e4fu>(a, b, c, d, m[8]);
  step<i_fn, 10, 0xfe2ce6e0u>(d, a, b, c, m[15]);
  step<i_fn, 15, 0xa3014314u>(c, d, a, b, m[6]);
  step<i_fn, 21, 0x4e0811a1u>(b, c, d, a, m[13]);
  step<i_fn, 6, 0xf7537e82u>(a, b, c, d, m[4]);
  step<i_fn, 10, 0xbd3af235u>(d, a, b, c, m[11]);
  step<i_fn, 15, 0x2ad7d2bbu>(c, d, a, b, m[2]);
  step<i_fn, 21, 0xeb86d391u>(b, c, d, a, m[9]);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) noexcept {
  length_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Md5Digest Md5::finish() noexcept {
  const std::uint64_t bit_length = length_ * 8;
  // One 0x80 byte, zeros up to 56 mod 64, then the 64-bit bit length:
  // one or two final blocks, written in a single update.
  std::uint8_t padding[72] = {0x80};
  const std::size_t zeros = (buffered_ < 56 ? 55 : 119) - buffered_;
  for (int i = 0; i < 8; ++i) {
    padding[1 + zeros + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((bit_length >> (8 * i)) & 0xff);
  }
  update(std::span<const std::uint8_t>{padding, 1 + zeros + 8});
  Md5Digest out{};
  for (int i = 0; i < 4; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] & 0xff);
    out[i * 4 + 1] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xff);
    out[i * 4 + 2] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xff);
    out[i * 4 + 3] = static_cast<std::uint8_t>((state_[i] >> 24) & 0xff);
  }
  return out;
}

Md5Digest Md5::digest(std::span<const std::uint8_t> data) noexcept {
  Md5 ctx;
  ctx.update(data);
  return ctx.finish();
}

std::string Md5::hex_digest(std::span<const std::uint8_t> data) {
  const Md5Digest d = digest(data);
  return hex_encode(std::span<const std::uint8_t>{d.data(), d.size()});
}

}  // namespace repro
