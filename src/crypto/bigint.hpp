// bigint.hpp — fixed-width 256-bit unsigned integers and generic reduction.
//
// U256 is the value type of the ECDH layer: private scalars, affine
// coordinates, curve constants, snapshot bytes. It is a little-endian
// 4x64-bit limb integer with no modulus attached. The field arithmetic over
// the NIST P-192 / P-256 primes lives in field.hpp (Montgomery form, one
// reduction path specialised per prime), and the reduction of a keygen
// draw modulo the curve order in EcCurve::reduce_mod_order(); this header
// keeps only what works for an arbitrary modulus: the 256x256 -> 512-bit
// product and the bit-serial remainder every fast path is tested against.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace blap::crypto {

/// 256-bit unsigned integer, little-endian limbs (w[0] = least significant).
class U256 {
 public:
  static constexpr std::size_t kLimbs = 4;

  constexpr U256() = default;
  explicit constexpr U256(std::uint64_t v) : w_{v, 0, 0, 0} {}
  explicit constexpr U256(std::array<std::uint64_t, kLimbs> w) : w_(w) {}

  /// Parse big-endian hex (no 0x prefix, up to 64 digits).
  [[nodiscard]] static std::optional<U256> from_hex(std::string_view hex);

  /// Load from big-endian bytes (at most 32; shorter inputs are
  /// zero-extended on the left).
  [[nodiscard]] static std::optional<U256> from_bytes_be(BytesView bytes);

  /// Serialize as exactly 32 big-endian bytes.
  [[nodiscard]] std::array<std::uint8_t, 32> to_bytes_be() const;

  /// Big-endian hex, fixed 64 digits.
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const;
  [[nodiscard]] bool bit(std::size_t i) const;  // i in [0, 255]
  [[nodiscard]] std::size_t bit_length() const;
  [[nodiscard]] bool is_odd() const { return (w_[0] & 1) != 0; }

  [[nodiscard]] const std::array<std::uint64_t, kLimbs>& limbs() const { return w_; }

  /// a + b, returning the carry-out bit.
  static std::uint64_t add(const U256& a, const U256& b, U256& out);
  /// a - b, returning the borrow-out bit (1 if a < b).
  static std::uint64_t sub(const U256& a, const U256& b, U256& out);

  friend std::strong_ordering operator<=>(const U256& a, const U256& b);
  friend bool operator==(const U256& a, const U256& b) = default;

 private:
  std::array<std::uint64_t, kLimbs> w_{};
};

/// 512-bit product of two U256 values.
class U512 {
 public:
  static constexpr std::size_t kLimbs = 8;

  constexpr U512() = default;

  [[nodiscard]] static U512 mul(const U256& a, const U256& b);
  /// Widen a U256 (high limbs zero).
  [[nodiscard]] static U512 widen(const U256& v);

  [[nodiscard]] bool bit(std::size_t i) const;
  [[nodiscard]] std::size_t bit_length() const;

  [[nodiscard]] const std::array<std::uint64_t, kLimbs>& limbs() const { return w_; }

 private:
  std::array<std::uint64_t, kLimbs> w_{};
};

/// value mod modulus by binary long division — slow but obviously correct;
/// the single oracle the differential tests of the field layer and of the
/// curve-order reduction compare against.
[[nodiscard]] U256 mod_binary_reference(const U512& value, const U256& modulus);

}  // namespace blap::crypto
