#include "crypto/sha2.h"

#include <bit>

namespace dfx::crypto {
namespace {

constexpr std::uint32_t kK256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint64_t kK512[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL, 0xb5c0fbcfec4d3b2fULL,
    0xe9b5dba58189dbbcULL, 0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL,
    0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL, 0xd807aa98a3030242ULL,
    0x12835b0145706fbeULL, 0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL, 0x9bdc06a725c71235ULL,
    0xc19bf174cf692694ULL, 0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL,
    0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL, 0x2de92c6f592b0275ULL,
    0x4a7484aa6ea6e483ULL, 0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL, 0xb00327c898fb213fULL,
    0xbf597fc7beef0ee4ULL, 0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL,
    0x06ca6351e003826fULL, 0x142929670a0e6e70ULL, 0x27b70a8546d22ffcULL,
    0x2e1b21385c26c926ULL, 0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL, 0x81c2c92e47edaee6ULL,
    0x92722c851482353bULL, 0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL,
    0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL, 0xd192e819d6ef5218ULL,
    0xd69906245565a910ULL, 0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL, 0x2748774cdf8eeb99ULL,
    0x34b0bcb5e19b48a8ULL, 0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL,
    0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL, 0x748f82ee5defb2fcULL,
    0x78a5636f43172f60ULL, 0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL, 0xbef9a3f7b2c67915ULL,
    0xc67178f2e372532bULL, 0xca273eceea26619cULL, 0xd186b8c721c0c207ULL,
    0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL, 0x06f067aa72176fbaULL,
    0x0a637dc5a2c898a6ULL, 0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL, 0x3c9ebe0a15c9bebcULL,
    0x431d67c49c100d4cULL, 0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL,
    0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

}  // namespace

Sha256Core::Sha256Core(bool variant224) : variant224_(variant224) {
  if (variant224) {
    h_[0] = 0xc1059ed8; h_[1] = 0x367cd507; h_[2] = 0x3070dd17;
    h_[3] = 0xf70e5939; h_[4] = 0xffc00b31; h_[5] = 0x68581511;
    h_[6] = 0x64f98fa7; h_[7] = 0xbefa4fa4;
  } else {
    h_[0] = 0x6a09e667; h_[1] = 0xbb67ae85; h_[2] = 0x3c6ef372;
    h_[3] = 0xa54ff53a; h_[4] = 0x510e527f; h_[5] = 0x9b05688c;
    h_[6] = 0x1f83d9ab; h_[7] = 0x5be0cd19;
  }
}

void Sha256Core::process_block(const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  std::uint32_t e = h_[4], f = h_[5], g = h_[6], hh = h_[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 =
        std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = hh + s1 + ch + kK256[i] + w[i];
    const std::uint32_t s0 =
        std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    hh = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  h_[0] += a; h_[1] += b; h_[2] += c; h_[3] += d;
  h_[4] += e; h_[5] += f; h_[6] += g; h_[7] += hh;
}

void Sha256Core::update(ByteView data) {
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t i = 0;
  if (buffered_ > 0) {
    while (buffered_ < 64 && i < data.size()) buffer_[buffered_++] = data[i++];
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (i + 64 <= data.size()) {
    process_block(data.data() + i);
    i += 64;
  }
  while (i < data.size()) buffer_[buffered_++] = data[i++];
}

Bytes Sha256Core::finish() {
  // 0x80, zeros up to 56 mod 64, then the 64-bit message length: one
  // update of 9 to 72 bytes.
  std::uint8_t pad[72] = {0x80};
  const std::size_t zeros = (buffered_ < 56 ? 55 : 119) - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[1 + zeros + i] =
        static_cast<std::uint8_t>(total_bits_ >> (56 - i * 8));
  }
  update({pad, 1 + zeros + 8});
  const std::size_t words = variant224_ ? 7 : 8;
  Bytes out;
  out.reserve(words * 4);
  for (std::size_t i = 0; i < words; ++i) {
    out.push_back(static_cast<std::uint8_t>(h_[i] >> 24));
    out.push_back(static_cast<std::uint8_t>(h_[i] >> 16));
    out.push_back(static_cast<std::uint8_t>(h_[i] >> 8));
    out.push_back(static_cast<std::uint8_t>(h_[i] & 0xFFu));
  }
  return out;
}

Sha512Core::Sha512Core(bool variant384) : variant384_(variant384) {
  if (variant384) {
    h_[0] = 0xcbbb9d5dc1059ed8ULL; h_[1] = 0x629a292a367cd507ULL;
    h_[2] = 0x9159015a3070dd17ULL; h_[3] = 0x152fecd8f70e5939ULL;
    h_[4] = 0x67332667ffc00b31ULL; h_[5] = 0x8eb44a8768581511ULL;
    h_[6] = 0xdb0c2e0d64f98fa7ULL; h_[7] = 0x47b5481dbefa4fa4ULL;
  } else {
    h_[0] = 0x6a09e667f3bcc908ULL; h_[1] = 0xbb67ae8584caa73bULL;
    h_[2] = 0x3c6ef372fe94f82bULL; h_[3] = 0xa54ff53a5f1d36f1ULL;
    h_[4] = 0x510e527fade682d1ULL; h_[5] = 0x9b05688c2b3e6c1fULL;
    h_[6] = 0x1f83d9abfb41bd6bULL; h_[7] = 0x5be0cd19137e2179ULL;
  }
}

void Sha512Core::process_block(const std::uint8_t* block) {
  std::uint64_t w[80];
  for (int i = 0; i < 16; ++i) {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v = (v << 8) | block[i * 8 + b];
    }
    w[i] = v;
  }
  for (int i = 16; i < 80; ++i) {
    const std::uint64_t s0 = std::rotr(w[i - 15], 1) ^
                             std::rotr(w[i - 15], 8) ^ (w[i - 15] >> 7);
    const std::uint64_t s1 = std::rotr(w[i - 2], 19) ^
                             std::rotr(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint64_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  std::uint64_t e = h_[4], f = h_[5], g = h_[6], hh = h_[7];
  for (int i = 0; i < 80; ++i) {
    const std::uint64_t s1 =
        std::rotr(e, 14) ^ std::rotr(e, 18) ^ std::rotr(e, 41);
    const std::uint64_t ch = (e & f) ^ (~e & g);
    const std::uint64_t t1 = hh + s1 + ch + kK512[i] + w[i];
    const std::uint64_t s0 =
        std::rotr(a, 28) ^ std::rotr(a, 34) ^ std::rotr(a, 39);
    const std::uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint64_t t2 = s0 + maj;
    hh = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  h_[0] += a; h_[1] += b; h_[2] += c; h_[3] += d;
  h_[4] += e; h_[5] += f; h_[6] += g; h_[7] += hh;
}

void Sha512Core::update(ByteView data) {
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t i = 0;
  if (buffered_ > 0) {
    while (buffered_ < 128 && i < data.size()) {
      buffer_[buffered_++] = data[i++];
    }
    if (buffered_ == 128) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (i + 128 <= data.size()) {
    process_block(data.data() + i);
    i += 128;
  }
  while (i < data.size()) buffer_[buffered_++] = data[i++];
}

Bytes Sha512Core::finish() {
  // 0x80, zeros up to 112 mod 128, then the 128-bit message length: one
  // update of 17 to 144 bytes. The length's high 64 bits are zero for our
  // inputs.
  std::uint8_t pad[144] = {0x80};
  const std::size_t zeros = (buffered_ < 112 ? 111 : 239) - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[1 + zeros + 8 + i] =
        static_cast<std::uint8_t>(total_bits_ >> (56 - i * 8));
  }
  update({pad, 1 + zeros + 16});
  const std::size_t words = variant384_ ? 6 : 8;
  Bytes out;
  out.reserve(words * 8);
  for (std::size_t i = 0; i < words; ++i) {
    for (int b = 7; b >= 0; --b) {
      out.push_back(static_cast<std::uint8_t>(h_[i] >> (b * 8)));
    }
  }
  return out;
}

Bytes sha224(ByteView data) {
  Sha256Core h(true);
  h.update(data);
  return h.finish();
}

Bytes sha256(ByteView data) {
  Sha256Core h(false);
  h.update(data);
  return h.finish();
}

Bytes sha384(ByteView data) {
  Sha512Core h(true);
  h.update(data);
  return h.finish();
}

Bytes sha512(ByteView data) {
  Sha512Core h(false);
  h.update(data);
  return h.finish();
}

}  // namespace dfx::crypto
