// Unit tests for the 256-bit modular arithmetic under the ECDH implementation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ecdh.hpp"
#include "crypto/field.hpp"

namespace blap::crypto {
namespace {

__extension__ typedef unsigned __int128 u128;
using Fe256 = field::Fe<field::P256>;
using Fe192 = field::Fe<field::P192>;

TEST(U256, FromHexAndBack) {
  auto v = U256::from_hex("0123456789abcdef");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->to_hex(),
            std::string(48, '0') + "0123456789abcdef");
  // to_hex is fixed 64 digits
  EXPECT_EQ(v->to_hex().size(), 64u);
}

TEST(U256, FromHexRejectsBadInput) {
  EXPECT_FALSE(U256::from_hex("").has_value());
  EXPECT_FALSE(U256::from_hex("xyz").has_value());
  EXPECT_FALSE(U256::from_hex(std::string(65, 'f')).has_value());
}

TEST(U256, BytesRoundTrip) {
  auto v = *U256::from_hex("deadbeef00112233445566778899aabbccddeeff0102030405060708090a0b0c");
  const auto bytes = v.to_bytes_be();
  auto back = U256::from_bytes_be(BytesView(bytes.data(), bytes.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, v);
}

TEST(U256, ShortBytesAreZeroExtended) {
  const Bytes b = {0x01, 0x02};
  auto v = U256::from_bytes_be(b);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, U256(0x0102));
}

TEST(U256, AdditionWithCarryOut) {
  U256 max = *U256::from_hex(std::string(64, 'f'));
  U256 out;
  EXPECT_EQ(U256::add(max, U256(1), out), 1u);
  EXPECT_TRUE(out.is_zero());
}

TEST(U256, SubtractionWithBorrow) {
  U256 out;
  EXPECT_EQ(U256::sub(U256(0), U256(1), out), 1u);
  EXPECT_EQ(out, *U256::from_hex(std::string(64, 'f')));
}

TEST(U256, Comparison) {
  EXPECT_LT(U256(1), U256(2));
  auto big = *U256::from_hex("100000000000000000000000000000000");  // 2^128
  EXPECT_GT(big, U256(0xffffffffffffffffULL));
}

TEST(U256, BitAccessAndLength) {
  auto v = *U256::from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(32));
  EXPECT_EQ(v.bit_length(), 64u);
  EXPECT_EQ(U256(0).bit_length(), 0u);
  EXPECT_EQ(U256(1).bit_length(), 1u);
}

TEST(U512, MulSmallValues) {
  const U512 prod = U512::mul(U256(0xFFFFFFFFULL), U256(0xFFFFFFFFULL));
  EXPECT_EQ(mod_binary_reference(prod, *U256::from_hex("10000000000000000")),
            U256(0xFFFFFFFE00000001ULL));
}

TEST(Mod, ReducesWideProduct) {
  // (2^255) * 2 mod (2^255 - 19-ish prime substitute): use p = 2^61 - 1.
  const U256 p(0x1FFFFFFFFFFFFFFFULL);
  const U256 a(0x1234567890ABCDEFULL);
  const U256 b(0x0FEDCBA987654321ULL);
  // Verify against __int128 arithmetic.
  const u128 wide = static_cast<u128>(0x1234567890ABCDEFULL) * 0x0FEDCBA987654321ULL;
  const std::uint64_t expect = static_cast<std::uint64_t>(wide % 0x1FFFFFFFFFFFFFFFULL);
  EXPECT_EQ(mod_binary_reference(U512::mul(a, b), p), U256(expect));
}

TEST(ModularOps, AddSubInverse) {
  const U256 a = *U256::from_hex("123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0");
  const U256 b = *U256::from_hex("fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210");
  const Fe256 am = Fe256::from(a);
  const Fe256 bm = Fe256::from(b);
  EXPECT_EQ((am + bm) - bm, am);
  EXPECT_EQ((am - bm) + bm, am);
  const Fe192 am192 = Fe192::from(a);
  const Fe192 bm192 = Fe192::from(b);
  EXPECT_EQ((am192 + bm192) - bm192, am192);
  EXPECT_EQ((am192 - bm192) + bm192, am192);
}

TEST(PowMod, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for both field primes.
  const auto minus1 = [](field::Limbs p) { return p[0] -= 1, p; };
  for (std::uint64_t a = 2; a < 10; ++a) {
    EXPECT_EQ(Fe256::from(U256(a)).pow(minus1(Fe256::kP)), Fe256::one()) << a;
    EXPECT_EQ(Fe192::from(U256(a)).pow(minus1(Fe192::kP)), Fe192::one()) << a;
  }
}

TEST(PowMod, KnownSmallCase) {
  EXPECT_EQ(Fe256::from(U256(3)).pow({7, 0, 0, 0}).value(), U256(2187));  // 3^7
  EXPECT_EQ(Fe192::from(U256(3)).pow({7, 0, 0, 0}).value(), U256(2187));
}

TEST(InvModPrime, ProducesMultiplicativeInverse) {
  const Fe256 a = Fe256::from(*U256::from_hex("deadbeefcafebabe0123456789abcdef"));
  EXPECT_EQ(a * a.inverse(), Fe256::one());
  const Fe192 b = Fe192::from(*U256::from_hex("deadbeefcafebabe0123456789abcdef"));
  EXPECT_EQ(b * b.inverse(), Fe192::one());
}

TEST(InvModPrime, SmallPrime) {
  // Small operands: 3^-1 is (2p + 1) / 3 for P-256 (p = 1 mod 3) and
  // (p + 1) / 3 for P-192 (p = 2 mod 3); 1 is its own inverse.
  const U256 inv3_256 = *U256::from_hex(
      "aaaaaaaa00000000aaaaaaaaaaaaaaaaaaaaaaab555555555555555555555555");
  const U256 inv3_192 = *U256::from_hex("555555555555555555555555555555550000000000000000");
  EXPECT_EQ(Fe256::from(U256(3)).inverse().value(), inv3_256);
  EXPECT_EQ(Fe192::from(U256(3)).inverse().value(), inv3_192);
  EXPECT_EQ(Fe256::one().inverse(), Fe256::one());
  EXPECT_TRUE(Fe256().inverse().is_zero());
}

// Property sweep: field products of 64-bit operands (which never reach p)
// equal the exact 128-bit product.
class MulModProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MulModProperty, MatchesInt128Reference) {
  const std::uint64_t a = GetParam() * 0x9E3779B97F4A7C15ULL + 1;
  const std::uint64_t b = GetParam() * 0xBF58476D1CE4E5B9ULL + 7;
  const u128 expect = static_cast<u128>(a) * b;
  const U256 wide({static_cast<std::uint64_t>(expect), static_cast<std::uint64_t>(expect >> 64), 0,
                   0});
  EXPECT_EQ((Fe256::from(U256(a)) * Fe256::from(U256(b))).value(), wide);
  EXPECT_EQ((Fe192::from(U256(a)) * Fe192::from(U256(b))).value(), wide);
}

INSTANTIATE_TEST_SUITE_P(ManyOperands, MulModProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace blap::crypto

// Differential tests of the keygen draw reduction modulo each curve order
// (EcCurve::reduce_mod_order) against the bit-serial reference. The suite
// names date from the word-level long division it replaced.
namespace blap::crypto {
namespace {

const EcCurve* const kCurves[] = {&EcCurve::p256(), &EcCurve::p192()};

class ModDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModDifferential, KnuthMatchesBinaryReference) {
  blap::Rng rng(GetParam() * 1315423911ULL + 3);
  for (const EcCurve* curve : kCurves) {
    for (int i = 0; i < 8; ++i) {
      const U256 draw({rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()});
      EXPECT_EQ(curve->reduce_mod_order(draw),
                mod_binary_reference(U512::widen(draw), curve->order()))
          << curve->name() << " draw=" << draw.to_hex();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomOperands, ModDifferential,
                         ::testing::Range<std::uint64_t>(0, 50));

TEST(ModDifferential, EdgeCases) {
  const U256 ones({~0ULL, ~0ULL, ~0ULL, ~0ULL});
  for (const EcCurve* curve : kCurves) {
    const U256& n = curve->order();
    U256 n_minus_1, n_plus_1, two_n;
    U256::sub(n, U256(1), n_minus_1);
    U256::add(n, U256(1), n_plus_1);
    const bool two_n_fits = U256::add(n, n, two_n) == 0;
    std::vector<U256> draws = {U256(),
                               U256(1),
                               n_minus_1,
                               n,
                               n_plus_1,
                               ones,
                               U256({~0ULL, ~0ULL, ~0ULL, 0}),  // 2^192 - 1
                               U256({0, 0, 0, 1}),              // 2^192
                               U256({~0ULL, ~0ULL, ~0ULL, 1}),
                               U256({0, 0, 0, ~0ULL})};
    if (two_n_fits) {
      U256 two_n_minus_1;
      U256::sub(two_n, U256(1), two_n_minus_1);
      draws.push_back(two_n);
      draws.push_back(two_n_minus_1);
    }
    for (const U256& draw : draws)
      EXPECT_EQ(curve->reduce_mod_order(draw),
                mod_binary_reference(U512::widen(draw), n))
          << curve->name() << " draw=" << draw.to_hex();
  }
}

}  // namespace
}  // namespace blap::crypto

// Differential tests of the Montgomery field layer (field.hpp) against the
// bit-serial reference, on both NIST primes.
namespace blap::crypto {
namespace {

template <class Prime>
class FieldDifferential : public ::testing::Test {
 protected:
  using F = field::Fe<Prime>;
  static U256 p() { return U256(Prime::kP); }
  static U256 ref_reduce(const U256& v) { return mod_binary_reference(U512::widen(v), p()); }
  static U256 ref_mul(const U256& a, const U256& b) {
    return mod_binary_reference(U512::mul(a, b), p());
  }
  static U256 ref_add(const U256& a, const U256& b) {
    U256 sum;
    const std::uint64_t carry = U256::add(a, b, sum);
    if (carry == 0 && sum < p()) return sum;
    U256 out;
    U256::sub(sum, p(), out);
    return out;
  }
  static U256 ref_sub(const U256& a, const U256& b) {
    U256 diff;
    if (U256::sub(a, b, diff) != 0) U256::add(diff, p(), diff);
    return diff;
  }
  static U256 minus(std::uint64_t k) {
    U256 out;
    U256::sub(p(), U256(k), out);
    return out;
  }

  /// 0, 1, 2, p-1, p-2, (p-1)/2, (p+1)/2 and R mod p (R = 2^256, the
  /// Montgomery image of 1).
  static std::vector<U256> edges() {
    std::vector<U256> out = {U256(0), U256(1), U256(2), minus(1), minus(2)};
    const U256 p_minus_1 = minus(1);
    const auto& h = p_minus_1.limbs();
    const U256 half({(h[0] >> 1) | (h[1] << 63), (h[1] >> 1) | (h[2] << 63),
                     (h[2] >> 1) | (h[3] << 63), h[3] >> 1});
    U256 half_up;
    U256::add(half, U256(1), half_up);
    out.push_back(half);
    out.push_back(half_up);
    out.push_back(ref_add(ref_reduce(*U256::from_hex(std::string(64, 'f'))), U256(1)));
    return out;
  }

  static void check_pair(const U256& a, const U256& b) {
    const F fa = F::from(a);
    const F fb = F::from(b);
    ASSERT_EQ(fa.value(), a) << a.to_hex();
    EXPECT_EQ((fa * fb).value(), ref_mul(a, b)) << a.to_hex() << " * " << b.to_hex();
    EXPECT_EQ(fa.sq().value(), ref_mul(a, a)) << a.to_hex();
    EXPECT_EQ((fa + fb).value(), ref_add(a, b)) << a.to_hex() << " + " << b.to_hex();
    EXPECT_EQ((fa - fb).value(), ref_sub(a, b)) << a.to_hex() << " - " << b.to_hex();
  }

  static void check_inverse(const U256& a) {
    const F inv = F::from(a).inverse();
    if (a.is_zero()) {
      EXPECT_TRUE(inv.is_zero());
      return;
    }
    EXPECT_EQ(ref_mul(inv.value(), a), U256(1)) << a.to_hex();
  }

  static U256 random_element(Rng& rng) {
    return ref_reduce(U256({rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()}));
  }
};

using Primes = ::testing::Types<field::P256, field::P192>;
TYPED_TEST_SUITE(FieldDifferential, Primes);

TYPED_TEST(FieldDifferential, EdgeOperandsMatchBinaryReference) {
  const auto edges = TestFixture::edges();
  for (const U256& a : edges) {
    for (const U256& b : edges) TestFixture::check_pair(a, b);
    TestFixture::check_inverse(a);
  }
}

TYPED_TEST(FieldDifferential, RandomOperandsMatchBinaryReference) {
  Rng rng(0xF1E1D);
  for (int i = 0; i < 300; ++i) {
    const U256 a = TestFixture::random_element(rng);
    TestFixture::check_pair(a, TestFixture::random_element(rng));
    if (i % 10 == 0) TestFixture::check_inverse(a);
  }
}

TYPED_TEST(FieldDifferential, FromReducesAnyWidth) {
  using Elem = typename TestFixture::F;
  U256 p_plus_1;
  U256::add(TestFixture::p(), U256(1), p_plus_1);
  const U256 all_ones = *U256::from_hex(std::string(64, 'f'));
  Rng rng(0x5EED);
  for (const U256& v : {TestFixture::p(), p_plus_1, all_ones,
                        U256({rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()})})
    EXPECT_EQ(Elem::from(v).value(), TestFixture::ref_reduce(v)) << v.to_hex();
}

// Montgomery products whose reduction lands in [p, 2p) and so take the
// final conditional subtraction. Random P-192 operands almost never do
// (p is 64 bits short of R); these operands were solved for offline.
TEST(FieldDifferential, ProductsTakingTheFinalSubtraction) {
  using F256 = field::Fe<field::P256>;
  using F192 = field::Fe<field::P192>;
  const U256 a256 = *U256::from_hex(
      "a07712a455498bc67d45d4f971020082b2b8bd3d73684598de5963b7b1a59acc");
  const U256 b256 = *U256::from_hex(
      "0b4a940612212aab20d9625d83bc23de51a976191339b82da16edaa3b9d80095");
  EXPECT_EQ((F256::from(a256) * F256::from(b256)).value(),
            *U256::from_hex("fffffffe00000003fffffffd0000000200000001fffffffe0000000300000000"));
  const U256 a192 = *U256::from_hex("da669158024184cf7603f2c67f8579f253763cfb0bd410fb");
  const U256 b192 = *U256::from_hex("58b6a73d7ffa68e699f0a6a6d2ec4b5119b531ec53bcf019");
  EXPECT_EQ((F192::from(a192) * F192::from(b192)).value(), U256(0xffffffffffffffffULL));
  EXPECT_EQ((F192::from(a192) * F192::from(b192)).value(),
            mod_binary_reference(U512::mul(a192, b192), U256(field::P192::kP)));
}

}  // namespace
}  // namespace blap::crypto
