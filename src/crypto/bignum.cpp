#include "crypto/bignum.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "util/check.hpp"

namespace dfx::crypto {

/// Limb-level access for the fixed-width path below: packs a BigNum's
/// 32-bit limbs into 64-bit ones and back.
struct LimbAccess {
  static const std::vector<std::uint32_t>& limbs(const BigNum& v) {
    return v.limbs_;
  }

  template <std::size_t N>
  static std::array<std::uint64_t, N> pack(const BigNum& v) {
    DFX_DCHECK(v.limbs_.size() <= 2 * N);
    std::array<std::uint64_t, N> out{};
    for (std::size_t i = 0; i < v.limbs_.size(); ++i) {
      out[i / 2] |= static_cast<std::uint64_t>(v.limbs_[i]) << (32 * (i % 2));
    }
    return out;
  }

  template <std::size_t N>
  static BigNum unpack(const std::array<std::uint64_t, N>& limbs) {
    BigNum out;
    out.limbs_.reserve(2 * N);
    for (const std::uint64_t limb : limbs) {
      out.limbs_.push_back(static_cast<std::uint32_t>(limb));
      out.limbs_.push_back(static_cast<std::uint32_t>(limb >> 32));
    }
    out.trim();
    return out;
  }
};

namespace {

constexpr std::uint64_t kBase = 1ULL << 32;

// Small primes for fast trial division before Miller-Rabin. Extending the
// table would change which candidates reach Miller-Rabin's random_below,
// and with it every key generated after the first such candidate.
constexpr std::uint32_t kSmallPrimes[] = {
    3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43,  47,  53,  59,
    61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137};

// Widest modulus the fixed-width path takes: 4 64-bit limbs.
constexpr std::size_t kMontgomeryMaxBits = 256;

__extension__ typedef unsigned __int128 u128;

/// Residues modulo an odd m of N 64-bit limbs in Montgomery form
/// (x·R mod m, R = 2^(64N)), as little-endian limb arrays below m.
/// `mul` is CIOS (coarsely integrated operand scanning, Koç et al. 1996);
/// `sqr` forms the double-width square from the N(N+1)/2 distinct limb
/// products and reduces it word by word. Both end with one conditional
/// subtraction. R² mod m and -m⁻¹ mod 2⁶⁴ are computed once, in the
/// constructor, with no division.
template <std::size_t N>
class Montgomery {
 public:
  using Value = std::array<std::uint64_t, N>;

  explicit Montgomery(const BigNum& m) : m_(LimbAccess::pack<N>(m)) {
    DFX_DCHECK(m.is_odd() && m.bit_length() > 64 * (N - 1) &&
               m.bit_length() <= 64 * N && m.bit_length() >= 2);
    // m⁻¹ mod 2⁶⁴ by Newton's iteration: m·m ≡ 1 mod 8 for odd m, and each
    // step doubles the number of correct low bits (3 → 96).
    std::uint64_t inv = m_[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - m_[0] * inv;
    m_neg_inv_ = ~inv + 1;
    // R mod m: start from the top bit of m (below m, since m is odd and
    // wider than one bit) and double up to 2^(64N).
    const std::size_t bits = m.bit_length();
    one_[(bits - 1) / 64] = std::uint64_t{1} << ((bits - 1) % 64);
    for (std::size_t k = bits - 1; k < 64 * N; ++k) double_in_place(one_);
    // R² mod m is the Montgomery form of 2^(64N). Climb the exponent's
    // bits from 2¹·R: squaring doubles the exponent, doubling adds one.
    constexpr std::size_t kRBits = 64 * N;
    std::size_t top = 0;
    while ((kRBits >> (top + 1)) != 0) ++top;
    r2_ = one_;
    double_in_place(r2_);
    for (std::size_t k = top; k-- > 0;) {
      r2_ = sqr(r2_);
      if (((kRBits >> k) & 1U) != 0) double_in_place(r2_);
    }
    minus_one_ = m_;
    sub_in_place(minus_one_, one_);
  }

  /// Montgomery form of v; requires v < m.
  Value from_bignum(const BigNum& v) const {
    return mul(LimbAccess::pack<N>(v), r2_);
  }
  BigNum to_bignum(const Value& v) const {
    Value unit{};
    unit[0] = 1;
    return LimbAccess::unpack<N>(mul(v, unit));
  }

  bool is_one(const Value& v) const { return v == one_; }
  bool is_minus_one(const Value& v) const { return v == minus_one_; }

  Value mul(const Value& a, const Value& b) const {
    std::array<std::uint64_t, N + 2> t{};
    for (std::size_t i = 0; i < N; ++i) {
      std::uint64_t carry = 0;
      for (std::size_t j = 0; j < N; ++j) {
        const u128 s = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
        t[j] = static_cast<std::uint64_t>(s);
        carry = static_cast<std::uint64_t>(s >> 64);
      }
      u128 s = static_cast<u128>(t[N]) + carry;
      t[N] = static_cast<std::uint64_t>(s);
      t[N + 1] = static_cast<std::uint64_t>(s >> 64);
      // Add q·m with q chosen so the low limb cancels, then shift one limb.
      const std::uint64_t q = t[0] * m_neg_inv_;
      s = static_cast<u128>(q) * m_[0] + t[0];
      carry = static_cast<std::uint64_t>(s >> 64);
      for (std::size_t j = 1; j < N; ++j) {
        s = static_cast<u128>(q) * m_[j] + t[j] + carry;
        t[j - 1] = static_cast<std::uint64_t>(s);
        carry = static_cast<std::uint64_t>(s >> 64);
      }
      s = static_cast<u128>(t[N]) + carry;
      t[N - 1] = static_cast<std::uint64_t>(s);
      t[N] = t[N + 1] + static_cast<std::uint64_t>(s >> 64);
    }
    Value out;
    std::copy_n(t.begin(), N, out.begin());
    if (t[N] != 0 || !less(out, m_)) sub_in_place(out, m_);
    return out;
  }

  Value sqr(const Value& a) const {
    // t = a², from each cross product a[i]·a[j] (i < j) once, doubled, plus
    // the diagonal; one spare limb absorbs the reduction's carry.
    std::array<std::uint64_t, 2 * N + 1> t{};
    for (std::size_t i = 0; i < N; ++i) {
      std::uint64_t carry = 0;
      for (std::size_t j = i + 1; j < N; ++j) {
        const u128 s = static_cast<u128>(a[i]) * a[j] + t[i + j] + carry;
        t[i + j] = static_cast<std::uint64_t>(s);
        carry = static_cast<std::uint64_t>(s >> 64);
      }
      t[i + N] = carry;
    }
    for (std::size_t k = 2 * N; k-- > 1;) t[k] = (t[k] << 1) | (t[k - 1] >> 63);
    t[0] <<= 1;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < N; ++i) {
      u128 s = static_cast<u128>(a[i]) * a[i] + t[2 * i] + carry;
      t[2 * i] = static_cast<std::uint64_t>(s);
      s = static_cast<u128>(t[2 * i + 1]) + static_cast<std::uint64_t>(s >> 64);
      t[2 * i + 1] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    // Montgomery reduction: N times, cancel the lowest live limb with q·m.
    for (std::size_t i = 0; i < N; ++i) {
      const std::uint64_t q = t[i] * m_neg_inv_;
      carry = 0;
      for (std::size_t j = 0; j < N; ++j) {
        const u128 s = static_cast<u128>(q) * m_[j] + t[i + j] + carry;
        t[i + j] = static_cast<std::uint64_t>(s);
        carry = static_cast<std::uint64_t>(s >> 64);
      }
      for (std::size_t k = i + N; carry != 0 && k <= 2 * N; ++k) {
        const u128 s = static_cast<u128>(t[k]) + carry;
        t[k] = static_cast<std::uint64_t>(s);
        carry = static_cast<std::uint64_t>(s >> 64);
      }
    }
    Value out;
    std::copy_n(t.begin() + N, N, out.begin());
    if (t[2 * N] != 0 || !less(out, m_)) sub_in_place(out, m_);
    return out;
  }

  /// a^exp, a and the result in Montgomery form; left-to-right binary.
  Value pow(const Value& a, const BigNum& exp) const {
    const std::size_t bits = exp.bit_length();
    if (bits == 0) return one_;
    const std::vector<std::uint32_t>& e = LimbAccess::limbs(exp);
    Value x = a;
    for (std::size_t i = bits - 1; i-- > 0;) {
      x = sqr(x);
      if (((e[i / 32] >> (i % 32)) & 1U) != 0) x = mul(x, a);
    }
    return x;
  }

 private:
  static bool less(const Value& a, const Value& b) {
    for (std::size_t i = N; i-- > 0;) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
  }

  /// a -= b modulo 2^(64N).
  static void sub_in_place(Value& a, const Value& b) {
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < N; ++i) {
      const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
      a[i] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>(d >> 64) & 1U;
    }
  }

  /// v = 2v mod m, for v < m.
  void double_in_place(Value& v) const {
    const std::uint64_t carry = v[N - 1] >> 63;
    for (std::size_t i = N; i-- > 1;) v[i] = (v[i] << 1) | (v[i - 1] >> 63);
    v[0] <<= 1;
    if (carry != 0 || !less(v, m_)) sub_in_place(v, m_);
  }

  Value m_;
  std::uint64_t m_neg_inv_ = 0;  // -m⁻¹ mod 2⁶⁴
  Value one_{};                  // R mod m: 1 in Montgomery form
  Value minus_one_{};            // m - 1 in Montgomery form
  Value r2_{};                   // R² mod m
};

/// Residues as plain BigNums with one division per product: Miller-Rabin's
/// context for candidates wider than kMontgomeryMaxBits.
class DivisionRing {
 public:
  using Value = BigNum;

  explicit DivisionRing(const BigNum& m) : m_(m), minus_one_(m - BigNum(1)) {}

  /// Requires v < m, as Montgomery<N>::from_bignum does.
  Value from_bignum(const BigNum& v) const { return v; }
  bool is_one(const Value& v) const { return v == BigNum(1); }
  bool is_minus_one(const Value& v) const { return v == minus_one_; }
  Value sqr(const Value& a) const { return (a * a) % m_; }
  Value pow(const Value& a, const BigNum& exp) const {
    return BigNum::modexp(a, exp, m_);
  }

 private:
  BigNum m_;
  BigNum minus_one_;
};

/// Whether m takes the Montgomery path.
bool fixed_width(const BigNum& m) {
  const std::size_t bits = m.bit_length();
  return m.is_odd() && bits >= 2 && bits <= kMontgomeryMaxBits;
}

/// Call fn(Montgomery<N>) with N = the 64-bit limb count of m, which
/// `fixed_width(m)` must accept.
template <typename Fn>
auto with_montgomery(const BigNum& m, Fn&& fn) {
  switch ((m.bit_length() + 63) / 64) {
    case 1:
      return fn(Montgomery<1>(m));
    case 2:
      return fn(Montgomery<2>(m));
    case 3:
      return fn(Montgomery<3>(m));
    default:
      return fn(Montgomery<4>(m));
  }
}

/// Miller-Rabin rounds for odd n > 137 with n - 1 = d·2^r, in one
/// arithmetic context for n.
template <typename Ring>
bool miller_rabin(const Ring& ring, const BigNum& n, const BigNum& d,
                  std::size_t r, Rng& rng, int rounds) {
  const BigNum bound = n - BigNum(4);
  for (int round = 0; round < rounds; ++round) {
    const BigNum a = BigNum(2) + BigNum::random_below(rng, bound);
    auto x = ring.pow(ring.from_bignum(a), d);
    if (ring.is_one(x) || ring.is_minus_one(x)) continue;
    bool witness = true;
    for (std::size_t i = 1; i < r; ++i) {
      x = ring.sqr(x);
      if (ring.is_minus_one(x)) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace

BigNum::BigNum(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32 != 0) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigNum::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::from_bytes(ByteView data) {
  BigNum out;
  // Bytes are big-endian; limbs little-endian.
  std::size_t i = data.size();
  while (i > 0) {
    std::uint32_t limb = 0;
    int shift = 0;
    while (shift < 32 && i > 0) {
      limb |= static_cast<std::uint32_t>(data[--i]) << shift;
      shift += 8;
    }
    out.limbs_.push_back(limb);
  }
  out.trim();
  return out;
}

Bytes BigNum::to_bytes() const {
  if (limbs_.empty()) return {0};
  Bytes out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int b = 3; b >= 0; --b) {
      out.push_back(static_cast<std::uint8_t>(limbs_[i] >> (b * 8)));
    }
  }
  // Strip leading zero bytes.
  std::size_t start = 0;
  while (start + 1 < out.size() && out[start] == 0) ++start;
  return Bytes(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
}

Bytes BigNum::to_bytes_padded(std::size_t size) const {
  Bytes raw = to_bytes();
  if (raw.size() == 1 && raw[0] == 0) raw.clear();
  // Silently dropping high-order bytes would corrupt signatures; a value
  // wider than the requested field is a caller bug, not an encoding choice.
  DFX_CHECK(raw.size() <= size, "%zu-byte value into a %zu-byte field",
            raw.size(), size);
  Bytes out(size - raw.size(), 0);
  append(out, raw);
  return out;
}

BigNum BigNum::from_hex(std::string_view hex) {
  BigNum out;
  for (char c : hex) {
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      throw std::invalid_argument("BigNum::from_hex: bad digit");
    }
    out = (out << 4) + BigNum(static_cast<std::uint64_t>(v));
  }
  return out;
}

std::string BigNum::to_hex() const {
  if (limbs_.empty()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 7; nib >= 0; --nib) {
      out.push_back(digits[(limbs_[i] >> (nib * 4)) & 0xF]);
    }
  }
  const std::size_t nz = out.find_first_not_of('0');
  return nz == std::string::npos ? "0" : out.substr(nz);
}

std::size_t BigNum::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

int BigNum::cmp(const BigNum& o) const {
  if (limbs_.size() != o.limbs_.size()) {
    return limbs_.size() < o.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] < o.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigNum BigNum::operator+(const BigNum& o) const {
  BigNum out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < o.limbs_.size()) sum += o.limbs_[i];
    out.limbs_.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry != 0) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigNum BigNum::operator-(const BigNum& o) const {
  if (*this < o) throw std::underflow_error("BigNum subtraction underflow");
  BigNum out;
  out.limbs_.reserve(limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < o.limbs_.size()) diff -= o.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_.push_back(static_cast<std::uint32_t>(diff));
  }
  out.trim();
  return out;
}

BigNum BigNum::operator*(const BigNum& o) const {
  if (limbs_.empty() || o.limbs_.empty()) return {};
  BigNum out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      std::uint64_t cur = out.limbs_[i + j] + carry +
                          static_cast<std::uint64_t>(limbs_[i]) * o.limbs_[j];
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + o.limbs_.size();
    while (carry != 0) {
      std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigNum BigNum::operator<<(std::size_t bits) const {
  if (limbs_.empty() || bits == 0) {
    BigNum out = *this;
    if (bits == 0) return out;
  }
  if (limbs_.empty()) return {};
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return {};
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

void BigNum::divmod(const BigNum& num, const BigNum& den, BigNum& quot,
                    BigNum& rem) {
  if (den.is_zero()) throw std::domain_error("BigNum division by zero");
  quot = BigNum();
  rem = BigNum();
  if (num < den) {
    rem = num;
    return;
  }
  // Single-limb divisor: straightforward short division.
  if (den.limbs_.size() == 1) {
    const std::uint64_t d = den.limbs_[0];
    quot.limbs_.assign(num.limbs_.size(), 0);
    std::uint64_t carry = 0;
    for (std::size_t i = num.limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (carry << 32) | num.limbs_[i];
      quot.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      carry = cur % d;
    }
    quot.trim();
    rem = BigNum(carry);
    return;
  }
  // Knuth TAOCP vol. 2, Algorithm D, with 32-bit limbs.
  const std::size_t n = den.limbs_.size();
  DFX_DCHECK(n >= 2 && num.limbs_.size() >= n);
  const std::size_t m = num.limbs_.size() - n;
  // D1: normalise so the divisor's top limb has its high bit set.
  int shift = 0;
  {
    std::uint32_t top = den.limbs_.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  const BigNum u_norm = num << static_cast<std::size_t>(shift);
  const BigNum v_norm = den << static_cast<std::size_t>(shift);
  std::vector<std::uint32_t> u = u_norm.limbs_;
  // Normalisation adds at most one limb, so n+m+1 always covers u.
  DFX_DCHECK(u.size() <= n + m + 1);
  if (u.size() < n + m + 1) u.resize(n + m + 1, 0);
  const std::vector<std::uint32_t>& v = v_norm.limbs_;

  quot.limbs_.assign(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat from the top two limbs.
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t q_hat = numerator / v[n - 1];
    std::uint64_t r_hat = numerator % v[n - 1];
    while (q_hat >= kBase ||
           q_hat * v[n - 2] > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v[n - 1];
      if (r_hat >= kBase) break;
    }
    // D4: multiply-and-subtract.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = q_hat * v[i] + carry;
      carry = p >> 32;
      const std::int64_t t = static_cast<std::int64_t>(u[i + j]) -
                             static_cast<std::int64_t>(p & 0xFFFFFFFFULL) -
                             borrow;
      u[i + j] = static_cast<std::uint32_t>(t);
      borrow = t < 0 ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(u[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    u[j + n] = static_cast<std::uint32_t>(t);
    // D5/D6: if we subtracted too much, add the divisor back once.
    if (t < 0) {
      --q_hat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<std::uint32_t>(s);
        add_carry = s >> 32;
      }
      u[j + n] = static_cast<std::uint32_t>(u[j + n] + add_carry);
    }
    quot.limbs_[j] = static_cast<std::uint32_t>(q_hat);
  }
  quot.trim();
  // D8: denormalise the remainder.
  rem.limbs_.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  rem.trim();
  rem = rem >> static_cast<std::size_t>(shift);
}

BigNum BigNum::operator%(const BigNum& o) const {
  BigNum q, r;
  divmod(*this, o, q, r);
  return r;
}

BigNum BigNum::operator/(const BigNum& o) const {
  BigNum q, r;
  divmod(*this, o, q, r);
  return q;
}

BigNum BigNum::modexp(const BigNum& base, const BigNum& exp, const BigNum& m) {
  if (m.is_zero()) throw std::domain_error("modexp: zero modulus");
  if (fixed_width(m)) {
    return with_montgomery(m, [&](const auto& ring) {
      const auto b = base < m ? ring.from_bignum(base)
                              : ring.from_bignum(base % m);
      return ring.to_bignum(ring.pow(b, exp));
    });
  }
  // Square-and-multiply with a division per product.
  BigNum result(1);
  BigNum b = base % m;
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    const bool bit = ((exp.limbs_[i / 32] >> (i % 32)) & 1U) != 0;
    if (bit) result = (result * b) % m;
    b = (b * b) % m;
  }
  return result;
}

BigNum BigNum::gcd(BigNum a, BigNum b) {
  while (!b.is_zero()) {
    BigNum r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigNum BigNum::modinv(const BigNum& a, const BigNum& m) {
  // Extended Euclid on non-negative values, tracking coefficients with an
  // explicit sign since BigNum is unsigned.
  BigNum old_r = a % m;
  BigNum r = m;
  BigNum old_s(1);
  BigNum s;
  bool old_s_neg = false;
  bool s_neg = false;
  while (!r.is_zero()) {
    BigNum q, rem;
    divmod(old_r, r, q, rem);
    // new_s = old_s - q * s (signed)
    BigNum qs = q * s;
    BigNum new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_r = std::move(r);
    r = std::move(rem);
    old_s = std::move(s);
    old_s_neg = s_neg;
    s = std::move(new_s);
    s_neg = new_s_neg;
  }
  if (old_r != BigNum(1)) return {};  // not invertible
  BigNum inv = old_s % m;
  if (old_s_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

BigNum BigNum::random_below(Rng& rng, const BigNum& bound) {
  if (bound.is_zero()) throw std::invalid_argument("random_below: zero bound");
  const std::size_t bytes = (bound.bit_length() + 7) / 8;
  Bytes buf(bytes);
  // Each draw lands below the bound with probability > 1/256; a bound this
  // generous only trips on a broken RNG.
  DFX_BOUNDED_LOOP(guard, 100000);
  while (true) {
    guard.tick();
    rng.fill(buf);
    BigNum candidate = from_bytes(buf);
    if (candidate < bound) return candidate;
  }
}

BigNum BigNum::random_bits(Rng& rng, std::size_t bits) {
  if (bits == 0) return {};
  const std::size_t bytes = (bits + 7) / 8;
  Bytes buf(bytes);
  rng.fill(buf);
  // Clear excess top bits, then force the top bit on.
  const std::size_t excess = bytes * 8 - bits;
  buf[0] = static_cast<std::uint8_t>(buf[0] & (0xFF >> excess));
  buf[0] = static_cast<std::uint8_t>(buf[0] | (0x80 >> excess));
  return from_bytes(buf);
}

bool BigNum::is_probable_prime(const BigNum& n, Rng& rng, int rounds) {
  if (!n.is_odd()) return n.limbs_.size() == 1 && n.limbs_[0] == 2;
  if (n.limbs_.size() == 1 && n.limbs_[0] == 1) return false;
  // Trial division straight from the limbs; n is prime if it is the small
  // prime that divides it.
  for (const std::uint32_t p : kSmallPrimes) {
    std::uint64_t rem = 0;
    for (std::size_t i = n.limbs_.size(); i-- > 0;) {
      rem = ((rem << 32) | n.limbs_[i]) % p;
    }
    if (rem == 0) return n.limbs_.size() == 1 && n.limbs_[0] == p;
  }
  // Write n-1 = d * 2^r.
  BigNum d = n - BigNum(1);
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  if (fixed_width(n)) {
    return with_montgomery(n, [&](const auto& ring) {
      return miller_rabin(ring, n, d, r, rng, rounds);
    });
  }
  return miller_rabin(DivisionRing(n), n, d, r, rng, rounds);
}

BigNum BigNum::generate_prime(Rng& rng, std::size_t bits) {
  if (bits < 8) throw std::invalid_argument("generate_prime: too small");
  // Prime density near 2^bits is ~1/(bits·ln 2); 1M draws is astronomically
  // more than any honest run needs and converts an RNG bug into a fail-fast.
  DFX_BOUNDED_LOOP(guard, 1 << 20);
  while (true) {
    guard.tick();
    BigNum candidate = random_bits(rng, bits);
    if (!candidate.is_odd()) candidate = candidate + BigNum(1);
    if (is_probable_prime(candidate, rng, 16)) return candidate;
  }
}

}  // namespace dfx::crypto
