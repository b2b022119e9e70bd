// saferplus.hpp — the SAFER+ block cipher (128-bit key, 8 rounds), plus the
// modified variant Ar' used by the Bluetooth legacy authentication functions.
//
// Bluetooth's legacy security algorithms E1 (authentication), E21/E22 (key
// generation) and E3 (encryption key) are all built from SAFER+ as specified
// in Bluetooth Core, Vol 2, Part H. Two variants appear:
//   * Ar  — plain SAFER+ encryption of a 16-byte block;
//   * Ar' — identical except the round-1 input is re-combined into the
//           round-3 input (making it a non-invertible hash building block).
//
// The implementation follows the SAFER+ AES-candidate reference description:
// exp/log tables over GF(257) with generator 45, the xor/add mixed key
// layers, the Pseudo-Hadamard Transform and the "Armenian shuffle"
// permutation, and the 3-bit-rotation key schedule with e-table biases.
// No official test vectors ship offline, so tests validate structure:
// determinism, key/plaintext avalanche, Ar invertibility via independent
// re-derivation, and Ar/Ar' divergence from round 3 onward.
#pragma once

#include <array>
#include <cstdint>

namespace blap::crypto {

class SaferPlus {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr std::size_t kRounds = 8;
  using Block = std::array<std::uint8_t, kBlockSize>;
  using Key = std::array<std::uint8_t, kKeySize>;

  explicit SaferPlus(const Key& key);

  /// Ar — plain SAFER+ encryption.
  [[nodiscard]] Block ar(const Block& input) const;

  /// Ar' — modified SAFER+ where the original input is re-added (using the
  /// same xor/add pattern as the key layers) to the input of round 3.
  [[nodiscard]] Block ar_prime(const Block& input) const;

  /// Access the exp table (45^i mod 257, with 256 -> 0); exposed for tests.
  [[nodiscard]] static const std::array<std::uint8_t, 256>& exp_table();
  /// Access the log table (inverse of exp); exposed for tests.
  [[nodiscard]] static const std::array<std::uint8_t, 256>& log_table();
  /// Round key `index` (0..16; key 0 is the raw key); exposed for tests.
  [[nodiscard]] const Block& subkey(std::size_t index) const { return subkeys_.at(index); }

 private:
  [[nodiscard]] Block run(const Block& input, bool prime) const;

  // 17 round keys: rounds r=0..7 use keys 2r and 2r+1; key 16 is the output
  // transform key.
  std::array<Block, 2 * kRounds + 1> subkeys_{};
};

}  // namespace blap::crypto
