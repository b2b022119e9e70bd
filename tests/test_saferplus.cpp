// Structural validation of the SAFER+ implementation under E1/E21/E22/E3.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "crypto/saferplus.hpp"

namespace blap::crypto {
namespace {

SaferPlus::Key key_of(std::uint8_t fill) {
  SaferPlus::Key k{};
  k.fill(fill);
  return k;
}

TEST(SaferPlusTables, ExpLogAreInverses) {
  const auto& exp = SaferPlus::exp_table();
  const auto& log = SaferPlus::log_table();
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(log[exp[static_cast<std::size_t>(i)]], i);
  }
}

TEST(SaferPlusTables, ExpIsPermutationWithKnownFixedPoints) {
  const auto& exp = SaferPlus::exp_table();
  // 45^0 = 1 and 45^128 = 256 == 0 (the GF(257) convention).
  EXPECT_EQ(exp[0], 1);
  EXPECT_EQ(exp[128], 0);
  std::array<bool, 256> seen{};
  for (int i = 0; i < 256; ++i) seen[exp[static_cast<std::size_t>(i)]] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// base^e mod 257 by square-and-multiply, independent of the exp table.
unsigned pow_mod_257(unsigned base, unsigned e) {
  unsigned result = 1;
  for (base %= 257; e != 0; e >>= 1, base = base * base % 257) {
    if (e & 1U) result = result * base % 257;
  }
  return result;
}

// With an all-zero key every register byte stays zero through the 3-bit
// rotations, so subkey p (1-based, p >= 2) is exactly the bias vector
// B_p[j] = (45^(45^(17p + j + 1) mod 257) mod 257) mod 256 of Vol 2 Part H.
TEST(SaferPlusKeySchedule, ZeroKeySubkeysAreTheSpecBiases) {
  const SaferPlus cipher(key_of(0x00));
  EXPECT_EQ(cipher.subkey(0), SaferPlus::Block{});
  for (unsigned p = 2; p <= 17; ++p) {
    SaferPlus::Block bias{};
    for (unsigned j = 0; j < SaferPlus::kBlockSize; ++j) {
      bias[j] = static_cast<std::uint8_t>(pow_mod_257(45, pow_mod_257(45, 17 * p + j + 1)) % 256);
    }
    EXPECT_EQ(cipher.subkey(p - 1), bias) << "subkey " << p;
  }
}

TEST(SaferPlus, Deterministic) {
  const SaferPlus cipher(key_of(0x5A));
  SaferPlus::Block input{};
  input.fill(0x33);
  EXPECT_EQ(cipher.ar(input), cipher.ar(input));
  EXPECT_EQ(cipher.ar_prime(input), cipher.ar_prime(input));
}

TEST(SaferPlus, ArAndArPrimeDiffer) {
  const SaferPlus cipher(key_of(0x5A));
  SaferPlus::Block input{};
  input.fill(0x33);
  EXPECT_NE(cipher.ar(input), cipher.ar_prime(input));
}

TEST(SaferPlus, KeyAvalanche) {
  SaferPlus::Key k1 = key_of(0x00);
  SaferPlus::Key k2 = k1;
  k2[0] ^= 0x01;
  SaferPlus::Block input{};
  const auto out1 = SaferPlus(k1).ar(input);
  const auto out2 = SaferPlus(k2).ar(input);
  int differing_bits = 0;
  for (std::size_t i = 0; i < 16; ++i) differing_bits += __builtin_popcount(out1[i] ^ out2[i]);
  EXPECT_GT(differing_bits, 30);
}

TEST(SaferPlus, PlaintextAvalanche) {
  const SaferPlus cipher(key_of(0xA5));
  SaferPlus::Block p1{};
  SaferPlus::Block p2{};
  p2[15] ^= 0x01;
  const auto out1 = cipher.ar(p1);
  const auto out2 = cipher.ar(p2);
  int differing_bits = 0;
  for (std::size_t i = 0; i < 16; ++i) differing_bits += __builtin_popcount(out1[i] ^ out2[i]);
  EXPECT_GT(differing_bits, 30);
}

TEST(SaferPlus, OutputLooksBalanced) {
  // Encrypt a counter sequence; output bytes should span a wide range.
  const SaferPlus cipher(key_of(0x42));
  std::array<int, 256> histogram{};
  for (std::uint8_t i = 0; i < 200; ++i) {
    SaferPlus::Block input{};
    input[0] = i;
    const auto out = cipher.ar(input);
    for (auto b : out) histogram[b]++;
  }
  int nonzero = 0;
  for (int h : histogram)
    if (h > 0) ++nonzero;
  EXPECT_GT(nonzero, 200);  // 3200 samples over 256 buckets
}

TEST(SaferPlus, ArIsInjectiveOnSample) {
  // A block cipher must be a permutation; collisions on a sample would
  // indicate a broken round structure.
  const SaferPlus cipher(key_of(0x17));
  std::set<std::string> outputs;
  for (int i = 0; i < 512; ++i) {
    SaferPlus::Block input{};
    input[0] = static_cast<std::uint8_t>(i);
    input[1] = static_cast<std::uint8_t>(i >> 8);
    outputs.insert(hex(cipher.ar(input)));
  }
  EXPECT_EQ(outputs.size(), 512u);
}

// Different keys must induce different permutations (sweep over byte fills).
class SaferKeySweep : public ::testing::TestWithParam<int> {};

TEST_P(SaferKeySweep, DistinctKeysDistinctCiphertexts) {
  SaferPlus::Block input{};
  input.fill(0x99);
  const auto base = SaferPlus(key_of(0x00)).ar(input);
  const auto out = SaferPlus(key_of(static_cast<std::uint8_t>(GetParam()))).ar(input);
  EXPECT_NE(out, base);
}

INSTANTIATE_TEST_SUITE_P(KeyFills, SaferKeySweep, ::testing::Values(1, 2, 3, 7, 15, 16, 127, 255));

}  // namespace
}  // namespace blap::crypto
