#include "crypto/bigint.hpp"

namespace blap::crypto {

__extension__ typedef unsigned __int128 u128;

std::optional<U256> U256::from_hex(std::string_view hex) {
  if (hex.empty() || hex.size() > 64) return std::nullopt;
  U256 out;
  std::size_t nibble = 0;  // counted from the least-significant end
  for (std::size_t i = hex.size(); i-- > 0;) {
    const char c = hex[i];
    int v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else return std::nullopt;
    out.w_[nibble / 16] |= static_cast<std::uint64_t>(v) << (4 * (nibble % 16));
    ++nibble;
  }
  return out;
}

std::optional<U256> U256::from_bytes_be(BytesView bytes) {
  if (bytes.size() > 32) return std::nullopt;
  U256 out;
  std::size_t bit = 0;
  for (std::size_t i = bytes.size(); i-- > 0;) {
    out.w_[bit / 64] |= static_cast<std::uint64_t>(bytes[i]) << (bit % 64);
    bit += 8;
  }
  return out;
}

std::array<std::uint8_t, 32> U256::to_bytes_be() const {
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i)
    out[31 - i] = static_cast<std::uint8_t>(w_[i / 8] >> (8 * (i % 8)));
  return out;
}

std::string U256::to_hex() const {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out(64, '0');
  for (std::size_t i = 0; i < 64; ++i) {
    const std::size_t nibble = 63 - i;
    out[i] = digits[(w_[nibble / 16] >> (4 * (nibble % 16))) & 0xF];
  }
  return out;
}

bool U256::is_zero() const { return (w_[0] | w_[1] | w_[2] | w_[3]) == 0; }

bool U256::bit(std::size_t i) const { return (w_[i / 64] >> (i % 64)) & 1; }

std::size_t U256::bit_length() const {
  for (std::size_t limb = kLimbs; limb-- > 0;) {
    if (w_[limb] != 0)
      return 64 * limb + (64 - static_cast<std::size_t>(__builtin_clzll(w_[limb])));
  }
  return 0;
}

std::uint64_t U256::add(const U256& a, const U256& b, U256& out) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const u128 s = static_cast<u128>(a.w_[i]) + b.w_[i] + carry;
    out.w_[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<std::uint64_t>(s >> 64);
  }
  return carry;
}

std::uint64_t U256::sub(const U256& a, const U256& b, U256& out) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const u128 d = static_cast<u128>(a.w_[i]) - b.w_[i] - borrow;
    out.w_[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  return borrow;
}

std::strong_ordering operator<=>(const U256& a, const U256& b) {
  for (std::size_t i = U256::kLimbs; i-- > 0;) {
    if (a.w_[i] != b.w_[i]) return a.w_[i] <=> b.w_[i];
  }
  return std::strong_ordering::equal;
}

U512 U512::mul(const U256& a, const U256& b) {
  U512 out;
  for (std::size_t i = 0; i < U256::kLimbs; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < U256::kLimbs; ++j) {
      const u128 cur = static_cast<u128>(a.limbs()[i]) * b.limbs()[j] + out.w_[i + j] + carry;
      out.w_[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.w_[i + U256::kLimbs] += carry;
  }
  return out;
}

U512 U512::widen(const U256& v) {
  U512 out;
  for (std::size_t i = 0; i < U256::kLimbs; ++i) out.w_[i] = v.limbs()[i];
  return out;
}

bool U512::bit(std::size_t i) const { return (w_[i / 64] >> (i % 64)) & 1; }

std::size_t U512::bit_length() const {
  for (std::size_t limb = kLimbs; limb-- > 0;) {
    if (w_[limb] != 0)
      return 64 * limb + (64 - static_cast<std::size_t>(__builtin_clzll(w_[limb])));
  }
  return 0;
}

U256 mod_binary_reference(const U512& value, const U256& modulus) {
  // Binary long division: scan bits from most significant, shifting the
  // remainder left and subtracting the modulus whenever it fits.
  U256 rem;
  const std::size_t bits = value.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    // rem = rem << 1 | bit(i); a carry out of the shift means rem >= 2^256,
    // which is >= modulus for any modulus we use, so subtract immediately.
    std::uint64_t carry = rem.bit(255) ? 1 : 0;
    U256 shifted;
    U256::add(rem, rem, shifted);
    if (value.bit(i)) {
      U256 one(1);
      U256::add(shifted, one, shifted);
    }
    rem = shifted;
    if (carry || rem >= modulus) {
      U256 reduced;
      U256::sub(rem, modulus, reduced);
      rem = reduced;
      // After one subtraction rem < modulus is guaranteed because the
      // pre-shift remainder was < modulus (so shifted < 2*modulus + 1; for
      // odd moduli that is <= 2*modulus - 1, one subtraction suffices).
    }
  }
  return rem;
}

}  // namespace blap::crypto
