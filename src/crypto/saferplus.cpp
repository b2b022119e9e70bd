#include "crypto/saferplus.hpp"

namespace blap::crypto {

namespace {
/// Positions where the first key layer XORs (true) vs adds (false):
/// bytes 1,4,5,8,9,12,13,16 (1-based) use XOR.
constexpr std::array<bool, 16> kXorPosition = {true, false, false, true, true, false,
                                               false, true, true, false, false, true,
                                               true, false, false, true};

/// The "Armenian shuffle" byte permutation applied after each PHT layer
/// (0-based; [9,12,13,16,3,2,7,6,11,10,15,14,1,8,5,4] in the paper's 1-based
/// notation).
constexpr std::array<std::uint8_t, 16> kShuffle = {8, 11, 12, 15, 2, 1, 6, 5,
                                                   10, 9, 14, 13, 0, 7, 4, 3};

struct Tables {
  std::array<std::uint8_t, 256> exp{};
  std::array<std::uint8_t, 256> log{};
  Tables() {
    // exp[i] = 45^i mod 257, with the value 256 represented as 0.
    std::uint32_t value = 1;
    for (std::size_t i = 0; i < 256; ++i) {
      exp[i] = static_cast<std::uint8_t>(value & 0xFF);  // 256 -> 0
      log[exp[i]] = static_cast<std::uint8_t>(i);
      value = (value * 45) % 257;
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

std::uint8_t rotl8(std::uint8_t v, int s) {
  return static_cast<std::uint8_t>((v << s) | (v >> (8 - s)));
}

/// Pseudo-Hadamard Transform on pairs + Armenian shuffle, applied four times.
void linear_layer(SaferPlus::Block& b) {
  for (int iter = 0; iter < 4; ++iter) {
    SaferPlus::Block t{};
    for (std::size_t i = 0; i < 8; ++i) {
      const std::uint8_t a = b[2 * i];
      const std::uint8_t c = b[2 * i + 1];
      t[2 * i] = static_cast<std::uint8_t>(2 * a + c);
      t[2 * i + 1] = static_cast<std::uint8_t>(a + c);
    }
    for (std::size_t i = 0; i < 16; ++i) b[i] = t[kShuffle[i]];
  }
}
}  // namespace

const std::array<std::uint8_t, 256>& SaferPlus::exp_table() { return tables().exp; }
const std::array<std::uint8_t, 256>& SaferPlus::log_table() { return tables().log; }

SaferPlus::SaferPlus(const Key& key) {
  const auto& exp = tables().exp;

  // 17-byte key register; byte 16 is the XOR checksum of the key.
  std::array<std::uint8_t, 17> reg{};
  std::uint8_t checksum = 0;
  for (std::size_t i = 0; i < kKeySize; ++i) {
    reg[i] = key[i];
    checksum ^= key[i];
  }
  reg[16] = checksum;

  // Subkey 1 is the raw key.
  for (std::size_t j = 0; j < kBlockSize; ++j) subkeys_[0][j] = key[j];

  // Subkeys 2..17: rotate every register byte left 3 bits, select 16 bytes
  // starting one position further each round, and add the biases
  // B_p[j] = (45^(45^(17p + j + 1) mod 257) mod 257) mod 256 (p = 1-based
  // subkey index, Vol 2 Part H). 45 has order 256 mod 257, so both
  // exponents reduce mod 256: the inner one runs to 17*17 + 16 = 305, and
  // the outer one is 256 exactly when exp[] holds 0 (45^256 = 45^0 = 1).
  for (std::size_t i = 1; i <= 16; ++i) {
    for (auto& b : reg) b = rotl8(b, 3);
    for (std::size_t j = 0; j < kBlockSize; ++j) {
      const std::uint8_t selected = reg[(i + j) % 17];
      const std::uint8_t bias = exp[exp[(17 * (i + 1) + j + 1) % 256]];
      subkeys_[i][j] = static_cast<std::uint8_t>(selected + bias);
    }
  }
}

SaferPlus::Block SaferPlus::run(const Block& input, bool prime) const {
  const auto& exp = tables().exp;
  const auto& log = tables().log;

  Block state = input;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Ar': the original input is re-combined into the input of round 3,
    // using the same xor/add positional pattern as the key layers.
    if (prime && round == 2) {
      for (std::size_t j = 0; j < kBlockSize; ++j) {
        if (kXorPosition[j]) state[j] ^= input[j];
        else state[j] = static_cast<std::uint8_t>(state[j] + input[j]);
      }
    }

    const Block& k1 = subkeys_[2 * round];
    const Block& k2 = subkeys_[2 * round + 1];
    for (std::size_t j = 0; j < kBlockSize; ++j) {
      if (kXorPosition[j]) {
        state[j] = static_cast<std::uint8_t>(exp[state[j] ^ k1[j]] + k2[j]);
      } else {
        state[j] = static_cast<std::uint8_t>(log[static_cast<std::uint8_t>(state[j] + k1[j])] ^
                                             k2[j]);
      }
    }
    linear_layer(state);
  }

  // Output transform with subkey 17 (xor at xor-positions, add elsewhere).
  const Block& k17 = subkeys_[16];
  for (std::size_t j = 0; j < kBlockSize; ++j) {
    if (kXorPosition[j]) state[j] ^= k17[j];
    else state[j] = static_cast<std::uint8_t>(state[j] + k17[j]);
  }
  return state;
}

SaferPlus::Block SaferPlus::ar(const Block& input) const { return run(input, false); }

SaferPlus::Block SaferPlus::ar_prime(const Block& input) const { return run(input, true); }

}  // namespace blap::crypto
