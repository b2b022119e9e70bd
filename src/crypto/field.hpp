// field.hpp — Montgomery arithmetic modulo the NIST P-192 and P-256 primes.
//
// Every coordinate operation on the ECDH hot path (ecdh.cpp) runs through
// Fe<Prime>: four little-endian 64-bit limbs holding a·R mod p, R = 2^256.
// Multiplication is word-serial CIOS Montgomery reduction parameterised by
// the compile-time p, so each prime gets the same code path with its zero
// limbs folded away. Both primes end in the limb 2^64 - 1, so
// -p^-1 = 1 mod 2^64 and each round needs no multiply to find its quotient
// digit. Addition and subtraction are carry chains with one conditional
// correction. Values enter and leave through canonical U256 (from / value);
// Montgomery form never leaves this layer.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bigint.hpp"

namespace blap::crypto::field {

__extension__ typedef unsigned __int128 u128;
using Limbs = std::array<std::uint64_t, 4>;

/// p = 2^256 - 2^224 + 2^192 + 2^96 - 1.
struct P256 {
  static constexpr Limbs kP = {0xffffffffffffffffULL, 0x00000000ffffffffULL, 0,
                               0xffffffff00000001ULL};
};
/// p = 2^192 - 2^64 - 1.
struct P192 {
  static constexpr Limbs kP = {0xffffffffffffffffULL, 0xfffffffffffffffeULL,
                               0xffffffffffffffffULL, 0};
};

/// out = a + b, returning the carry-out.
constexpr std::uint64_t add_limbs(const Limbs& a, const Limbs& b, Limbs& out) {
  u128 c = 0;
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) {
    c = static_cast<u128>(a[i]) + b[i] + (c >> 64);
    out[i] = static_cast<std::uint64_t>(c);
  }
  return static_cast<std::uint64_t>(c >> 64);
}

/// out = a - b, returning the borrow-out (1 if a < b).
constexpr std::uint64_t sub_limbs(const Limbs& a, const Limbs& b, Limbs& out) {
  std::uint64_t borrow = 0;
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  return borrow;
}

/// x - p when x (plus carry * 2^256) >= p, else x. Requires x < 2p.
constexpr Limbs reduce_once(const Limbs& x, std::uint64_t carry, const Limbs& p) {
  Limbs d{};
  const std::uint64_t borrow = sub_limbs(x, p, d);
  // Keep x only when it was already below p: borrow out and no carry in.
  const std::uint64_t keep = 0 - (borrow & (carry ^ 1));
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) d[i] = (x[i] & keep) | (d[i] & ~keep);
  return d;
}

/// 2^bits mod p by repeated doubling (compile-time constants only).
constexpr Limbs pow2_mod(int bits, const Limbs& p) {
  Limbs x{1, 0, 0, 0};
  for (int i = 0; i < bits; ++i) {
    const std::uint64_t carry = add_limbs(x, x, x);
    x = reduce_once(x, carry, p);
  }
  return x;
}

/// Element of GF(p) in Montgomery form; the limbs are always < p.
template <class Prime>
class Fe {
 public:
  static constexpr Limbs kP = Prime::kP;

  constexpr Fe() = default;

  /// v mod p, for any 256-bit v.
  [[nodiscard]] static Fe from(const U256& v) { return Fe(mont_mul(v.limbs(), kR2)); }
  [[nodiscard]] static constexpr Fe one() { return Fe(kR); }

  /// Canonical value in [0, p).
  [[nodiscard]] U256 value() const { return U256(mont_mul(w_, Limbs{1, 0, 0, 0})); }
  [[nodiscard]] bool is_zero() const { return (w_[0] | w_[1] | w_[2] | w_[3]) == 0; }

  friend Fe operator+(const Fe& a, const Fe& b) {
    Limbs s{};
    const std::uint64_t carry = add_limbs(a.w_, b.w_, s);
    return Fe(reduce_once(s, carry, kP));
  }
  friend Fe operator-(const Fe& a, const Fe& b) {
    Limbs d{};
    const std::uint64_t mask = 0 - sub_limbs(a.w_, b.w_, d);
    add_limbs(d, Limbs{kP[0] & mask, kP[1] & mask, kP[2] & mask, kP[3] & mask}, d);
    return Fe(d);
  }
  friend Fe operator*(const Fe& a, const Fe& b) { return Fe(mont_mul(a.w_, b.w_)); }
  [[nodiscard]] Fe sq() const { return *this * *this; }

  /// this^e, left-to-right square-and-multiply from e's top set bit.
  [[nodiscard]] Fe pow(const Limbs& e) const {
    std::size_t i = 256;
    while (i > 0 && ((e[(i - 1) / 64] >> ((i - 1) % 64)) & 1) == 0) --i;
    Fe r = one();
    while (i-- > 0) {
      r = r.sq();
      if ((e[i / 64] >> (i % 64)) & 1) r = r * *this;
    }
    return r;
  }
  /// this^-1 = this^(p-2) (Fermat); zero maps to zero.
  [[nodiscard]] Fe inverse() const { return pow(kPMinus2); }

  friend bool operator==(const Fe&, const Fe&) = default;

 private:
  constexpr explicit Fe(const Limbs& w) : w_(w) {}

  /// a * b * 2^-256 mod p (CIOS). Requires a * b < p * 2^256.
  static constexpr Limbs mont_mul(const Limbs& a, const Limbs& b) {
    std::uint64_t t[6] = {};
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) {
      u128 c = 0;
#pragma GCC unroll 4
      for (std::size_t j = 0; j < 4; ++j) {
        c = static_cast<u128>(a[j]) * b[i] + t[j] + (c >> 64);
        t[j] = static_cast<std::uint64_t>(c);
      }
      c = static_cast<u128>(t[4]) + (c >> 64);
      t[4] = static_cast<std::uint64_t>(c);
      t[5] = static_cast<std::uint64_t>(c >> 64);
      // m = t[0] * (-p^-1 mod 2^64) = t[0] makes t + m*p divisible by 2^64:
      // t[0] + m * (2^64 - 1) = m * 2^64, so limb 0 only carries m. Drop it.
      const std::uint64_t m = t[0];
      c = static_cast<u128>(m) << 64;
#pragma GCC unroll 3
      for (std::size_t j = 1; j < 4; ++j) {
        c = static_cast<u128>(m) * kP[j] + t[j] + (c >> 64);
        t[j - 1] = static_cast<std::uint64_t>(c);
      }
      c = static_cast<u128>(t[4]) + (c >> 64);
      t[3] = static_cast<std::uint64_t>(c);
      t[4] = t[5] + static_cast<std::uint64_t>(c >> 64);
    }
    return reduce_once(Limbs{t[0], t[1], t[2], t[3]}, t[4], kP);
  }

  static_assert(kP[0] == ~std::uint64_t{0}, "reduction assumes -p^-1 = 1 mod 2^64");
  static constexpr Limbs kR = pow2_mod(256, kP);
  static constexpr Limbs kR2 = pow2_mod(512, kP);
  static constexpr Limbs kPMinus2 = {kP[0] - 2, kP[1], kP[2], kP[3]};  // kP[0] >= 2

  Limbs w_{};
};

}  // namespace blap::crypto::field
