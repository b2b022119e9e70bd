#include "crypto/ecdh.hpp"

#include <array>
#include <cassert>

#include "crypto/field.hpp"

namespace blap::crypto {

namespace {
U256 hx(std::string_view s) {
  auto v = U256::from_hex(s);
  assert(v.has_value());
  return *v;
}

/// Jacobian projective point: (X, Y, Z) represents affine (X/Z^2, Y/Z^3).
template <class F>
struct Jacobian {
  F x, y, z;
  bool infinity = true;
};

/// Affine point in Montgomery form (an entry of the fixed-base table).
template <class F>
struct Affine {
  F x, y;
  bool infinity = true;
};

template <class F>
Jacobian<F> to_jacobian(const EcPoint& p) {
  if (p.is_infinity()) return {};
  return {F::from(p.x), F::from(p.y), F::one(), false};
}

template <class F>
EcPoint to_affine(const Jacobian<F>& p) {
  if (p.infinity || p.z.is_zero()) return EcPoint::at_infinity();
  const F zinv = p.z.inverse();
  const F zinv2 = zinv.sq();
  return EcPoint::affine((p.x * zinv2).value(), (p.y * zinv2 * zinv).value());
}

/// dbl-2001-b for a = -3 (both NIST curves): 3M + 5S.
template <class F>
Jacobian<F> dbl(const Jacobian<F>& p) {
  if (p.infinity || p.y.is_zero()) return {};
  const F delta = p.z.sq();
  const F gamma = p.y.sq();
  const F beta = p.x * gamma;
  const F t = (p.x - delta) * (p.x + delta);
  const F alpha = t + t + t;  // 3(X - Z^2)(X + Z^2) = 3X^2 + a Z^4
  const F beta2 = beta + beta;
  const F beta4 = beta2 + beta2;
  const F x3 = alpha.sq() - (beta4 + beta4);
  const F z3 = (p.y + p.z).sq() - gamma - delta;
  const F gamma_sq = gamma.sq();
  const F gamma_sq2 = gamma_sq + gamma_sq;
  const F gamma_sq4 = gamma_sq2 + gamma_sq2;
  const F y3 = alpha * (beta4 - x3) - (gamma_sq4 + gamma_sq4);
  return {x3, y3, z3, false};
}

/// add-1998-cmo-2 with the doubling and inverse cases: 12M + 4S.
template <class F>
Jacobian<F> add(const Jacobian<F>& p, const Jacobian<F>& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const F z1z1 = p.z.sq();
  const F z2z2 = q.z.sq();
  const F u1 = p.x * z2z2;
  const F u2 = q.x * z1z1;
  const F s1 = p.y * z2z2 * q.z;
  const F s2 = q.y * z1z1 * p.z;
  const F h = u2 - u1;
  const F r = s2 - s1;
  if (h.is_zero()) return r.is_zero() ? dbl(p) : Jacobian<F>{};
  const F hh = h.sq();
  const F hhh = hh * h;
  const F v = u1 * hh;
  const F x3 = r.sq() - hhh - (v + v);
  const F y3 = r * (v - x3) - s1 * hhh;
  const F z3 = p.z * q.z * h;
  return {x3, y3, z3, false};
}

/// Mixed addition with an affine q (Z2 = 1): 8M + 3S.
template <class F>
Jacobian<F> add(const Jacobian<F>& p, const Affine<F>& q) {
  if (q.infinity) return p;
  if (p.infinity) return {q.x, q.y, F::one(), false};
  const F z1z1 = p.z.sq();
  const F u2 = q.x * z1z1;
  const F s2 = q.y * z1z1 * p.z;
  const F h = u2 - p.x;
  const F r = s2 - p.y;
  if (h.is_zero()) return r.is_zero() ? dbl(p) : Jacobian<F>{};
  const F hh = h.sq();
  const F hhh = hh * h;
  const F v = p.x * hh;
  const F x3 = r.sq() - hhh - (v + v);
  const F y3 = r * (v - x3) - p.y * hhh;
  const F z3 = p.z * h;
  return {x3, y3, z3, false};
}

/// Width-5 NAF of k, least significant digit first: every digit is 0 or odd
/// in [-15, 15], and each nonzero digit is followed by at least four zeros.
/// Returns the digit count (at most 257: k + 15 can carry past bit 255).
std::size_t wnaf5(const U256& k, std::array<std::int8_t, 257>& digits) {
  std::array<std::uint64_t, 5> v{k.limbs()[0], k.limbs()[1], k.limbs()[2], k.limbs()[3], 0};
  std::size_t len = 0;
  while ((v[0] | v[1] | v[2] | v[3] | v[4]) != 0) {
    int d = 0;
    if (v[0] & 1) {
      d = static_cast<int>(v[0] & 31);
      if (d > 15) d -= 32;
      // v -= d clears the low five bits. A positive d is v mod 32, so it
      // never borrows; a negative one may carry out of the low limb.
      const std::uint64_t low = v[0];
      v[0] = low - static_cast<std::uint64_t>(static_cast<std::int64_t>(d));
      if (d < 0 && v[0] < low) {
        for (std::size_t i = 1; i < v.size() && ++v[i] == 0; ++i) {}
      }
    }
    digits[len++] = static_cast<std::int8_t>(d);
    for (std::size_t i = 0; i + 1 < v.size(); ++i) v[i] = (v[i] >> 1) | (v[i + 1] << 63);
    v[4] >>= 1;
  }
  return len;
}

/// k * p by width-5 NAF: a table of the odd multiples p, 3p, ..., 15p, then
/// one doubling per digit and one addition (or subtraction) per nonzero digit.
template <class F>
Jacobian<F> multiply_wnaf(const U256& k, const Jacobian<F>& p) {
  std::array<std::int8_t, 257> digits{};
  const std::size_t len = wnaf5(k, digits);
  std::array<Jacobian<F>, 8> odd{};  // odd[i] = (2i + 1) p
  odd[0] = p;
  const Jacobian<F> twice = dbl(p);
  for (std::size_t i = 1; i < odd.size(); ++i) odd[i] = add(odd[i - 1], twice);
  Jacobian<F> acc;
  for (std::size_t i = len; i-- > 0;) {
    acc = dbl(acc);
    const int d = digits[i];
    if (d > 0) {
      acc = add(acc, odd[static_cast<std::size_t>(d / 2)]);
    } else if (d < 0) {
      Jacobian<F> minus = odd[static_cast<std::size_t>(-d / 2)];
      minus.y = F() - minus.y;
      acc = add(acc, minus);
    }
  }
  return acc;
}

/// Fixed-base comb: tooth j of a 256-bit scalar is bit 32j + column, and
/// entry i of the table is sum over set bits j of i of 2^(32j) G, affine.
/// A multiply is 32 doublings and at most 32 mixed additions. 255 entries
/// of two 32-byte coordinates: about 18 KB per curve.
constexpr std::size_t kCombTeeth = 8;
constexpr std::size_t kCombSpacing = 256 / kCombTeeth;

template <class F>
using CombTable = std::array<Affine<F>, std::size_t{1} << kCombTeeth>;

template <class F>
CombTable<F> build_comb(const EcPoint& g) {
  std::array<Jacobian<F>, std::size_t{1} << kCombTeeth> jac{};
  Jacobian<F> tooth = to_jacobian<F>(g);
  for (std::size_t j = 0; j < kCombTeeth; ++j) {
    const std::size_t bit = std::size_t{1} << j;
    jac[bit] = tooth;
    for (std::size_t i = 1; i < bit; ++i) jac[bit + i] = add(jac[i], tooth);
    for (std::size_t d = 0; d < kCombSpacing; ++d) tooth = dbl(tooth);
  }
  // Montgomery's trick: one inversion normalizes the whole table.
  std::array<F, std::size_t{1} << kCombTeeth> prefix{};
  F run = F::one();
  for (std::size_t i = 1; i < jac.size(); ++i) {
    prefix[i] = run;
    if (!jac[i].infinity) run = run * jac[i].z;
  }
  F inv = run.inverse();
  CombTable<F> table{};
  for (std::size_t i = jac.size(); i-- > 1;) {
    if (jac[i].infinity) continue;
    const F zinv = inv * prefix[i];
    inv = inv * jac[i].z;
    const F zinv2 = zinv.sq();
    table[i] = {jac[i].x * zinv2, jac[i].y * zinv2 * zinv, false};
  }
  return table;
}

template <class F>
Jacobian<F> multiply_base(const U256& k, const EcPoint& g) {
  static const CombTable<F> table = build_comb<F>(g);
  Jacobian<F> acc;
  for (std::size_t col = kCombSpacing; col-- > 0;) {
    acc = dbl(acc);
    std::size_t index = 0;
    for (std::size_t j = 0; j < kCombTeeth; ++j)
      index |= static_cast<std::size_t>(k.bit(kCombSpacing * j + col)) << j;
    if (index != 0) acc = add(acc, table[index]);
  }
  return acc;
}

template <class F>
bool on_curve(const EcPoint& point, const U256& a, const U256& b) {
  const F x = F::from(point.x);
  return F::from(point.y).sq() == (x.sq() + F::from(a)) * x + F::from(b);
}
}  // namespace

template <class Fn>
auto EcCurve::on_field(Fn&& fn) const {
  if (field_ == Field::kP256) return fn(field::Fe<field::P256>{});
  return fn(field::Fe<field::P192>{});
}

EcCurve::EcCurve(const char* name, std::size_t coord_size, Field field, U256 p, U256 a, U256 b,
                 U256 gx, U256 gy, U256 n)
    : name_(name), coord_size_(coord_size), field_(field), p_(p), a_(a), b_(b), n_(n),
      g_(EcPoint::affine(gx, gy)) {
  // The point formulas use a = -3 and the field type's compile-time prime.
  [[maybe_unused]] U256 p_minus_3;
  U256::sub(p_, U256(3), p_minus_3);
  assert(a_ == p_minus_3);
  assert(on_field([&](auto f) { return U256(decltype(f)::kP) == p_; }));
}

const EcCurve& EcCurve::p256() {
  static const EcCurve curve(
      "P-256", 32, Field::kP256,
      hx("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"),
      hx("ffffffff00000001000000000000000000000000fffffffffffffffffffffffc"),
      hx("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"),
      hx("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
      hx("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
      hx("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"));
  return curve;
}

const EcCurve& EcCurve::p192() {
  static const EcCurve curve(
      "P-192", 24, Field::kP192,
      hx("fffffffffffffffffffffffffffffffeffffffffffffffff"),
      hx("fffffffffffffffffffffffffffffffefffffffffffffffc"),
      hx("64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1"),
      hx("188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012"),
      hx("07192b95ffc8da78631011ed6b24cdd573f977a11e794811"),
      hx("ffffffffffffffffffffffff99def836146bc9b1b4d22831"));
  return curve;
}

bool EcCurve::on_curve(const EcPoint& point) const {
  if (point.is_infinity()) return false;
  if (point.x >= p_ || point.y >= p_) return false;
  return on_field([&](auto f) { return crypto::on_curve<decltype(f)>(point, a_, b_); });
}

EcPoint EcCurve::add(const EcPoint& lhs, const EcPoint& rhs) const {
  return on_field([&](auto f) {
    using F = decltype(f);
    return to_affine(crypto::add(to_jacobian<F>(lhs), to_jacobian<F>(rhs)));
  });
}

EcPoint EcCurve::double_point(const EcPoint& point) const {
  return on_field([&](auto f) { return to_affine(dbl(to_jacobian<decltype(f)>(point))); });
}

EcPoint EcCurve::multiply(const U256& k, const EcPoint& point) const {
  return on_field([&](auto f) {
    using F = decltype(f);
    if (point == g_) return to_affine(multiply_base<F>(k, g_));
    return to_affine(multiply_wnaf(k, to_jacobian<F>(point)));
  });
}

U256 EcCurve::reduce_mod_order(const U256& draw) const {
  U256 v = draw;
  if (field_ == Field::kP192) {
    // n = 2^192 - c with c < 2^95. Fold the top limb h: draw = h * 2^192 +
    // low = low + h * c (mod n), and h * c < 2^159, so v < 2^192 + 2^159.
    U256 c;
    U256::sub(U256({0, 0, 0, 1}), n_, c);
    const U512 folded = U512::mul(U256(draw.limbs()[3]), c);
    const auto& f = folded.limbs();
    const auto& w = draw.limbs();
    U256::add(U256({w[0], w[1], w[2], 0}), U256({f[0], f[1], f[2], f[3]}), v);
  }
  // Now v < 2n (for P-256 because 2^256 - n < 2^224 < n): one conditional
  // subtraction finishes the reduction.
  U256 reduced;
  return U256::sub(v, n_, reduced) == 0 ? reduced : v;
}

EcKeyPair generate_keypair(const EcCurve& curve, Rng& rng) {
  for (;;) {
    const auto raw = rng.bytes<32>();
    auto candidate = U256::from_bytes_be(BytesView(raw.data(), raw.size()));
    const U256 scalar = curve.reduce_mod_order(*candidate);
    if (scalar.is_zero()) continue;
    return EcKeyPair{scalar, curve.multiply(scalar, curve.generator())};
  }
}

std::optional<U256> ecdh_shared_secret(const EcCurve& curve, const U256& private_key,
                                       const EcPoint& peer_public) {
  if (!curve.on_curve(peer_public)) return std::nullopt;
  const EcPoint shared = curve.multiply(private_key, peer_public);
  if (shared.is_infinity()) return std::nullopt;
  return shared.x;
}

}  // namespace blap::crypto
