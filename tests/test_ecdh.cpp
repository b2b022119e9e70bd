// ECDH validation: NIST curve constants, known scalar multiples, and the
// Diffie–Hellman agreement property SSP relies on.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "crypto/ecdh.hpp"

namespace blap::crypto {
namespace {

TEST(EcCurve, GeneratorsAreOnCurve) {
  EXPECT_TRUE(EcCurve::p256().on_curve(EcCurve::p256().generator()));
  EXPECT_TRUE(EcCurve::p192().on_curve(EcCurve::p192().generator()));
}

TEST(EcCurve, NistCurvesHaveAMinusThree) {
  // The a = -3 doubling formula is only valid for these curves.
  for (const EcCurve* curve : {&EcCurve::p256(), &EcCurve::p192()}) {
    U256 p_minus_3;
    U256::sub(curve->p(), U256(3), p_minus_3);
    EXPECT_EQ(curve->a(), p_minus_3) << curve->name();
  }
}

TEST(EcCurve, P256DoubleGeneratorMatchesKnownValue) {
  const auto& curve = EcCurve::p256();
  const EcPoint twog = curve.double_point(curve.generator());
  EXPECT_EQ(twog.x.to_hex(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(twog.y.to_hex(),
            "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

TEST(EcCurve, P192DoubleGeneratorMatchesKnownValue) {
  const auto& curve = EcCurve::p192();
  const EcPoint twog = curve.double_point(curve.generator());
  EXPECT_EQ(twog.x.to_hex().substr(16),
            "dafebf5828783f2ad35534631588a3f629a70fb16982a888");
  EXPECT_EQ(twog.y.to_hex().substr(16),
            "dd6bda0d993da0fa46b27bbc141b868f59331afa5c7e93ab");
}

TEST(EcCurve, AddMatchesDouble) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  EXPECT_EQ(curve.add(g, g), curve.double_point(g));
}

TEST(EcCurve, ThreeGTwoWays) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  const EcPoint via_add = curve.add(curve.double_point(g), g);
  const EcPoint via_mult = curve.multiply(U256(3), g);
  EXPECT_EQ(via_add, via_mult);
  EXPECT_TRUE(curve.on_curve(via_mult));
}

TEST(EcCurve, OrderTimesGeneratorIsInfinity) {
  const auto& curve = EcCurve::p256();
  EXPECT_TRUE(curve.multiply(curve.order(), curve.generator()).is_infinity());
}

TEST(EcCurve, P192OrderTimesGeneratorIsInfinity) {
  const auto& curve = EcCurve::p192();
  EXPECT_TRUE(curve.multiply(curve.order(), curve.generator()).is_infinity());
}

TEST(EcCurve, AddingInverseGivesInfinity) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  U256 neg_y;
  U256::sub(curve.p(), g.y, neg_y);
  const EcPoint minus_g = EcPoint::affine(g.x, neg_y);
  EXPECT_TRUE(curve.on_curve(minus_g));
  EXPECT_TRUE(curve.add(g, minus_g).is_infinity());
}

TEST(EcCurve, InfinityIsAdditiveIdentity) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  EXPECT_EQ(curve.add(g, EcPoint::at_infinity()), g);
  EXPECT_EQ(curve.add(EcPoint::at_infinity(), g), g);
}

TEST(EcCurve, RejectsOffCurvePoint) {
  const auto& curve = EcCurve::p256();
  EcPoint bogus = curve.generator();
  U256::add(bogus.y, U256(1), bogus.y);  // G.y + 1 < p
  EXPECT_FALSE(curve.on_curve(bogus));
}

TEST(Ecdh, SharedSecretAgrees) {
  Rng rng(2022);
  const auto& curve = EcCurve::p256();
  const EcKeyPair alice = generate_keypair(curve, rng);
  const EcKeyPair bob = generate_keypair(curve, rng);
  const auto s_alice = ecdh_shared_secret(curve, alice.private_key, bob.public_key);
  const auto s_bob = ecdh_shared_secret(curve, bob.private_key, alice.public_key);
  ASSERT_TRUE(s_alice.has_value());
  ASSERT_TRUE(s_bob.has_value());
  EXPECT_EQ(*s_alice, *s_bob);
}

TEST(Ecdh, P192SharedSecretAgrees) {
  Rng rng(7);
  const auto& curve = EcCurve::p192();
  const EcKeyPair alice = generate_keypair(curve, rng);
  const EcKeyPair bob = generate_keypair(curve, rng);
  const auto s_alice = ecdh_shared_secret(curve, alice.private_key, bob.public_key);
  const auto s_bob = ecdh_shared_secret(curve, bob.private_key, alice.public_key);
  ASSERT_TRUE(s_alice && s_bob);
  EXPECT_EQ(*s_alice, *s_bob);
}

TEST(Ecdh, RejectsInvalidPeerPoint) {
  // The fixed-coordinate invalid-curve attack (paper ref [10]) is closed by
  // validating the peer point before multiplying.
  Rng rng(5);
  const auto& curve = EcCurve::p256();
  const EcKeyPair alice = generate_keypair(curve, rng);
  EcPoint off_curve = EcPoint::affine(U256(1), U256(1));
  EXPECT_FALSE(ecdh_shared_secret(curve, alice.private_key, off_curve).has_value());
  EXPECT_FALSE(ecdh_shared_secret(curve, alice.private_key, EcPoint::at_infinity()).has_value());
}

TEST(Ecdh, DistinctKeyPairsDistinctSecrets) {
  Rng rng(9);
  const auto& curve = EcCurve::p256();
  const EcKeyPair a = generate_keypair(curve, rng);
  const EcKeyPair b = generate_keypair(curve, rng);
  const EcKeyPair c = generate_keypair(curve, rng);
  const auto s_ab = ecdh_shared_secret(curve, a.private_key, b.public_key);
  const auto s_ac = ecdh_shared_secret(curve, a.private_key, c.public_key);
  ASSERT_TRUE(s_ab && s_ac);
  EXPECT_NE(*s_ab, *s_ac);
}

TEST(Ecdh, KeypairPrivateScalarInRange) {
  Rng rng(123);
  const auto& curve = EcCurve::p256();
  for (int i = 0; i < 8; ++i) {
    const EcKeyPair kp = generate_keypair(curve, rng);
    EXPECT_FALSE(kp.private_key.is_zero());
    EXPECT_LT(kp.private_key, curve.order());
    EXPECT_TRUE(curve.on_curve(kp.public_key));
  }
}

// Scalar-multiplication consistency sweep: (k+1)G == kG + G for many k.
class ScalarMulProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalarMulProperty, IncrementalConsistency) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  const EcPoint kg = curve.multiply(U256(GetParam()), g);
  const EcPoint k1g = curve.multiply(U256(GetParam() + 1), g);
  EXPECT_EQ(curve.add(kg, g), k1g);
}

INSTANTIATE_TEST_SUITE_P(SmallScalars, ScalarMulProperty,
                         ::testing::Values(1, 2, 3, 5, 16, 100, 255, 65537));

}  // namespace
}  // namespace blap::crypto

// Differential test of EcCurve::multiply (fixed-base comb for G, width-5
// NAF otherwise) against a plain double-and-add whose field operations
// all go through the bit-serial mod_binary_reference.
namespace blap::crypto {
namespace {

class ReferenceCurve {
 public:
  explicit ReferenceCurve(const EcCurve& curve) : c_(curve) {}

  EcPoint multiply(const U256& k, const EcPoint& point) const {
    Jac acc;
    const Jac base{point.x, point.y, U256(1), point.is_infinity()};
    for (std::size_t i = k.bit_length(); i-- > 0;) {
      acc = dbl(acc);
      if (k.bit(i)) acc = add(acc, base);
    }
    if (acc.infinity) return EcPoint::at_infinity();
    const U256 zinv = pow(acc.z, p_minus(2));
    const U256 zinv2 = mul(zinv, zinv);
    return EcPoint::affine(mul(acc.x, zinv2), mul(acc.y, mul(zinv2, zinv)));
  }

 private:
  struct Jac {
    U256 x, y, z;
    bool infinity = true;
  };

  U256 mul(const U256& a, const U256& b) const {
    return mod_binary_reference(U512::mul(a, b), c_.p());
  }
  U256 add(const U256& a, const U256& b) const {
    U256 sum;
    if (U256::add(a, b, sum) == 0 && sum < c_.p()) return sum;
    U256::sub(sum, c_.p(), sum);
    return sum;
  }
  U256 sub(const U256& a, const U256& b) const {
    U256 diff;
    if (U256::sub(a, b, diff) != 0) U256::add(diff, c_.p(), diff);
    return diff;
  }
  U256 p_minus(std::uint64_t k) const {
    U256 out;
    U256::sub(c_.p(), U256(k), out);
    return out;
  }
  U256 pow(const U256& a, const U256& e) const {
    U256 r(1);
    for (std::size_t i = e.bit_length(); i-- > 0;) {
      r = mul(r, r);
      if (e.bit(i)) r = mul(r, a);
    }
    return r;
  }

  // Generic-a doubling (dbl-1998-cmo), independent of the a = -3 shortcut.
  Jac dbl(const Jac& p) const {
    if (p.infinity || p.y.is_zero()) return {};
    const U256 yy = mul(p.y, p.y);
    const U256 zz = mul(p.z, p.z);
    const U256 s = mul(U256(4), mul(p.x, yy));
    const U256 m = add(mul(U256(3), mul(p.x, p.x)), mul(c_.a(), mul(zz, zz)));
    const U256 x3 = sub(mul(m, m), add(s, s));
    const U256 y3 = sub(mul(m, sub(s, x3)), mul(U256(8), mul(yy, yy)));
    return {x3, y3, mul(U256(2), mul(p.y, p.z)), false};
  }
  Jac add(const Jac& p, const Jac& q) const {
    if (p.infinity) return q;
    if (q.infinity) return p;
    const U256 z1z1 = mul(p.z, p.z);
    const U256 z2z2 = mul(q.z, q.z);
    const U256 u1 = mul(p.x, z2z2);
    const U256 u2 = mul(q.x, z1z1);
    const U256 s1 = mul(p.y, mul(z2z2, q.z));
    const U256 s2 = mul(q.y, mul(z1z1, p.z));
    if (u1 == u2) return s1 == s2 ? dbl(p) : Jac{};
    const U256 h = sub(u2, u1);
    const U256 r = sub(s2, s1);
    const U256 hh = mul(h, h);
    const U256 hhh = mul(hh, h);
    const U256 v = mul(u1, hh);
    const U256 x3 = sub(sub(mul(r, r), hhh), add(v, v));
    const U256 y3 = sub(mul(r, sub(v, x3)), mul(s1, hhh));
    return {x3, y3, mul(mul(p.z, q.z), h), false};
  }

  const EcCurve& c_;
};

/// Edge scalars: 0, 1, 2, n-1, n, n+1, powers of two on and around the
/// comb's 32-bit columns, all-ones windows, long zero runs, NAF digits that
/// go negative and carry past bit 255, plus randoms.
std::vector<U256> edge_scalars(const EcCurve& curve) {
  const U256& n = curve.order();
  U256 n_minus_1, n_plus_1;
  U256::sub(n, U256(1), n_minus_1);
  U256::add(n, U256(1), n_plus_1);
  std::vector<U256> out = {U256(0), U256(1), U256(2), U256(15), U256(16), U256(31), n_minus_1, n, n_plus_1};
  for (std::size_t bit : {31u, 32u, 63u, 64u, 191u, 224u, 255u}) {
    std::array<std::uint64_t, 4> w{};
    w[bit / 64] = std::uint64_t{1} << (bit % 64);
    out.emplace_back(w);
  }
  out.push_back(*U256::from_hex(std::string(64, 'f')));
  out.push_back(*U256::from_hex(std::string(64, 'b')));
  out.push_back(*U256::from_hex("f0f0f0f0ffffffff0000000000000000000000000000000000000000f000000f"));
  out.push_back(*U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001"));
  Rng rng(0xEC);
  for (int i = 0; i < 3; ++i)
    out.emplace_back(std::array<std::uint64_t, 4>{rng.next_u64(), rng.next_u64(), rng.next_u64(),
                                                  rng.next_u64()});
  return out;
}

class ScalarMulDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ScalarMulDifferential, MatchesReferenceDoubleAndAdd) {
  // Param: bit 0 picks the curve, bit 1 picks G (comb) or a random point
  // (NAF).
  const EcCurve& curve = (GetParam() & 1) != 0 ? EcCurve::p192() : EcCurve::p256();
  const ReferenceCurve ref(curve);
  EcPoint point = curve.generator();
  if ((GetParam() & 2) != 0) {
    point = ref.multiply(*U256::from_hex("2545f4914f6cdd1d9e3779b97f4a7c15"), point);
    ASSERT_TRUE(curve.on_curve(point));
  }
  for (const U256& k : edge_scalars(curve))
    EXPECT_EQ(curve.multiply(k, point), ref.multiply(k, point))
        << curve.name() << " k=" << k.to_hex();
}

INSTANTIATE_TEST_SUITE_P(CurvesAndPoints, ScalarMulDifferential, ::testing::Range(0, 4));

}  // namespace
}  // namespace blap::crypto
