#include "crypto/sha1.h"

#include <bit>
#include <cstring>

namespace dfx::crypto {

Sha1::Sha1() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = std::rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f;
    std::uint32_t k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDC;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6;
    }
    const std::uint32_t tmp = std::rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = std::rotl(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::update(ByteView data) {
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

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::finish() {
  // 0x80, zeros up to 56 mod 64, then the 64-bit message length: one
  // update of 9 to 72 bytes.
  std::uint8_t pad[72] = {0x80};
  const std::size_t zeros = (buffered_ < 56 ? 55 : 119) - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[1 + zeros + i] =
        static_cast<std::uint8_t>(total_bits_ >> (56 - i * 8));
  }
  update({pad, 1 + zeros + 8});

  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i] & 0xFFu);
  }
  return out;
}

Bytes Sha1::digest(ByteView data) {
  Sha1 h;
  h.update(data);
  const auto d = h.finish();
  return Bytes(d.begin(), d.end());
}

}  // namespace dfx::crypto
