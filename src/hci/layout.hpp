// layout.hpp — one wire-layout description per HCI/LMP PDU.
//
// Every typed PDU (HCI command and event structs, the LMP payload helpers)
// lists its fields once, in wire order, inside one of the BLAP_* macros at
// the end of this file, e.g.
//
//   BLAP_HCI_COMMAND(DisconnectCmd, op::kDisconnect, "HCI_Disconnect",
//                    u16(handle), u8(reason))
//
// One generic walker derives encode() and decode() from that list, so the
// rules below hold for every PDU by construction rather than per body:
//
//   * short input rejects: a field that runs out of bytes fails the whole
//     decode, and no partial value is ever returned;
//   * trailing bytes are tolerated, except where a field kind consumes an
//     exact-size tail (zero-padded names, the EIR block), which refuses
//     them, or the raw rest (Command_Complete's return parameters), which
//     absorbs them into the value;
//   * range checks live in the kind: enum_byte's maximum, the PIN's 1..16
//     length, the curve point's 24/32 width, constant's expected byte.
//
// A field kind binds one member (or none) by reference and has three
// members: put(w) appends it, get(r) reads it back (false on short or
// out-of-range input), draw(rng) sets a seeded value that round-trips.
//
// The per-family registries (command_rows(), event_rows(), lmp_rows()) hold
// one Row per wire code in ascending order; code names, the fuzz harness's
// per-code probes and the fuzz dictionary's code tokens derive from them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/bdaddr.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace blap::hci::layout {

namespace detail {

inline std::string draw_text(Rng& rng, std::size_t min_len, std::size_t max_len) {
  std::string s(min_len + rng.uniform(max_len - min_len + 1), '\0');
  for (char& c : s) c = static_cast<char>('a' + rng.uniform(26));
  return s;
}

/// Up to n bytes of `s`, zero-padded to exactly `width` bytes.
inline void put_padded(ByteWriter& w, const std::string& s, std::size_t n, std::size_t width) {
  n = std::min(n, s.size());
  for (std::size_t i = 0; i < width; ++i) w.u8(i < n ? static_cast<std::uint8_t>(s[i]) : 0);
}

}  // namespace detail

/// The field kinds. A PDU's field list sees these names unqualified.
namespace kinds {

/// N-byte little-endian integer (or enum) member; decode rejects values
/// above Max.
template <unsigned N, std::uint32_t Max, typename T>
struct Int {
  T& v;
  void put(ByteWriter& w) const {
    const auto x = static_cast<std::uint32_t>(v);
    for (unsigned i = 0; i < N; ++i) w.u8(static_cast<std::uint8_t>(x >> (8 * i)));
  }
  bool get(ByteReader& r) const {
    if (r.remaining() < N) return false;
    std::uint32_t x = 0;
    for (unsigned i = 0; i < N; ++i) x |= static_cast<std::uint32_t>(*r.u8()) << (8 * i);
    if (x > Max) return false;
    v = static_cast<T>(x);
    return true;
  }
  void draw(Rng& rng) const { v = static_cast<T>(rng.uniform(Max + 1ull)); }
};

template <typename T> constexpr Int<1, 0xFF, T> u8(T& v) { return {v}; }
template <typename T> constexpr Int<2, 0xFFFF, T> u16(T& v) { return {v}; }
template <typename T> constexpr Int<3, 0xFFFFFF, T> u24(T& v) { return {v}; }
template <typename T> constexpr Int<4, 0xFFFFFFFF, T> u32(T& v) { return {v}; }
/// One byte holding an enum (or flag) whose valid codes are 0..Max.
template <std::uint8_t Max, typename T> constexpr Int<1, Max, T> enum_byte(T& v) { return {v}; }

/// BD_ADDR, HCI wire order (LAP first).
template <typename T>
struct Addr {
  T& v;
  void put(ByteWriter& w) const { v.to_wire(w); }
  bool get(ByteReader& r) const {
    const auto addr = BdAddr::from_wire(r);
    if (addr) v = *addr;
    return addr.has_value();
  }
  void draw(Rng& rng) const { v = BdAddr(rng.bytes<BdAddr::kSize>()); }
};
template <typename T> constexpr Addr<T> addr(T& v) { return {v}; }

/// Class_of_Device, 3 bytes little-endian.
template <typename T>
struct Cod {
  T& v;
  void put(ByteWriter& w) const { v.to_wire(w); }
  bool get(ByteReader& r) const {
    const auto cod = ClassOfDevice::from_wire(r);
    if (cod) v = *cod;
    return cod.has_value();
  }
  void draw(Rng& rng) const {
    v = ClassOfDevice(static_cast<std::uint32_t>(rng.uniform(1u << 24)));
  }
};
template <typename T> constexpr Cod<T> cod(T& v) { return {v}; }

/// 16-byte link key, least-significant byte first on the wire: the byte
/// order the paper's Fig. 11 shows ("in big-endian" once reversed).
template <typename T>
struct Key {
  T& v;
  void put(ByteWriter& w) const {
    for (std::size_t i = 16; i-- > 0;) w.u8(v[i]);
  }
  bool get(ByteReader& r) const {
    const auto wire = r.array<16>();
    if (!wire) return false;
    for (std::size_t i = 0; i < 16; ++i) v[i] = (*wire)[15 - i];
    return true;
  }
  void draw(Rng& rng) const { v = rng.bytes<16>(); }
};
template <typename T> constexpr Key<T> lsb_key(T& v) { return {v}; }

/// A byte with no member: written as B, and decode rejects any other value
/// (Num_Responses = 1 in the inquiry result events).
template <std::uint8_t B>
struct Constant {
  void put(ByteWriter& w) const { w.u8(B); }
  bool get(ByteReader& r) const {
    const auto b = r.u8();
    return b && *b == B;
  }
  void draw(Rng&) const {}
};
template <std::uint8_t B> constexpr Constant<B> constant() { return {}; }

/// N reserved bytes: written as zeros, skipped whatever their value.
template <std::size_t N>
struct Reserved {
  void put(ByteWriter& w) const {
    for (std::size_t i = 0; i < N; ++i) w.u8(0);
  }
  bool get(ByteReader& r) const { return r.skip(N); }
  void draw(Rng&) const {}
};
template <std::size_t N> constexpr Reserved<N> reserved_bytes() { return {}; }

/// String zero-padded to exactly N bytes: the exact-size tail of its PDU,
/// so decode refuses trailing bytes. Encode keeps at most N-1 bytes (a
/// terminator always fits); decode stops at the first zero.
template <std::size_t N, typename T>
struct PaddedName {
  T& v;
  void put(ByteWriter& w) const { detail::put_padded(w, v, N - 1, N); }
  bool get(ByteReader& r) const {
    if (r.remaining() != N) return false;
    const BytesView block = r.rest();
    v.assign(block.begin(), std::find(block.begin(), block.end(), 0));
    return r.skip(N);
  }
  void draw(Rng& rng) const { v = detail::draw_text(rng, 0, N - 1); }
};
template <std::size_t N, typename T> constexpr PaddedName<N, T> padded_name(T& v) { return {v}; }

/// Legacy PIN: a length byte (1..16), then 16 zero-padded PIN bytes.
template <typename T>
struct Pin {
  T& v;
  void put(ByteWriter& w) const {
    w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(v.size(), 16)));
    detail::put_padded(w, v, 16, 16);
  }
  bool get(ByteReader& r) const {
    const auto len = r.u8();
    const auto bytes = r.array<16>();
    if (!len || !bytes || *len == 0 || *len > 16) return false;
    v.assign(bytes->begin(), bytes->begin() + *len);
    return true;
  }
  void draw(Rng& rng) const { v = detail::draw_text(rng, 1, 16); }
};
template <typename T> constexpr Pin<T> length_prefixed_pin(T& v) { return {v}; }

/// Name carried in a 240-byte Extended Inquiry Response block, the exact-size
/// tail of its event. Encode writes one Complete Local Name (0x09) structure
/// of at most 238 bytes; decode walks the structures to the first 0x09 and
/// yields an empty name when there is none.
template <typename T>
struct EirName {
  static constexpr std::size_t kBlock = 240;
  static constexpr std::uint8_t kCompleteLocalName = 0x09;
  T& v;
  void put(ByteWriter& w) const {
    w.u8(static_cast<std::uint8_t>(std::min(v.size(), kBlock - 2) + 1)).u8(kCompleteLocalName);
    detail::put_padded(w, v, kBlock - 2, kBlock - 2);
  }
  bool get(ByteReader& r) const {
    if (r.remaining() != kBlock) return false;
    const BytesView eir = r.rest();
    for (std::size_t at = 0; at < eir.size();) {
      const std::size_t length = eir[at];
      if (length == 0 || at + 1 + length > eir.size()) break;
      if (eir[at + 1] == kCompleteLocalName) {
        v.assign(eir.begin() + static_cast<std::ptrdiff_t>(at + 2),
                 eir.begin() + static_cast<std::ptrdiff_t>(at + 1 + length));
        break;
      }
      at += 1 + length;
    }
    return r.skip(kBlock);
  }
  void draw(Rng& rng) const { v = detail::draw_text(rng, 0, kBlock - 2); }
};
template <typename T> constexpr EirName<T> eir_name(T& v) { return {v}; }

/// Everything after the preceding fields, trailing bytes included.
template <typename T>
struct Rest {
  static constexpr bool kAbsorbsTail = true;
  T& v;
  void put(ByteWriter& w) const { w.raw(v); }
  bool get(ByteReader& r) const {
    v = to_bytes(r.rest());
    return r.skip(r.remaining());
  }
  void draw(Rng& rng) const { v = rng.buffer(rng.uniform(9)); }
};
template <typename T> constexpr Rest<T> raw_rest(T& v) { return {v}; }

/// Curve point as [width u8][x][y], both coordinates `width` bytes; decode
/// accepts the P-192 (24) and P-256 (32) widths only.
template <typename T>
struct XyPair {
  T& x;
  T& y;
  void put(ByteWriter& w) const { w.u8(static_cast<std::uint8_t>(x.size())).raw(x).raw(y); }
  bool get(ByteReader& r) const {
    const auto width = r.u8();
    if (!width || (*width != 24 && *width != 32)) return false;
    auto xs = r.bytes(*width);
    auto ys = r.bytes(*width);
    if (!xs || !ys) return false;
    x = std::move(*xs);
    y = std::move(*ys);
    return true;
  }
  void draw(Rng& rng) const {
    const std::size_t width = rng.uniform(2) == 0 ? 24 : 32;
    x = rng.buffer(width);
    y = rng.buffer(width);
  }
};
template <typename T> constexpr XyPair<T> width_prefixed_xy(T& x, T& y) { return {x, y}; }

}  // namespace kinds

// --- the walker --------------------------------------------------------------

template <typename T>
Bytes encode_fields(const T& value) {
  ByteWriter w;
  std::apply([&](const auto&... f) { (f.put(w), ...); }, value.fields());
  return std::move(w).take();
}

template <typename T>
std::optional<T> decode_fields(BytesView params) {
  ByteReader r(params);
  T value{};
  if (!std::apply([&](const auto&... f) { return (f.get(r) && ...); }, value.fields()))
    return std::nullopt;
  return value;
}

template <typename T>
T draw_fields(Rng& rng) {
  T value{};
  std::apply([&](const auto&... f) { (f.draw(rng), ...); }, value.fields());
  return value;
}

template <typename T>
inline constexpr bool absorbs_tail_v = []<typename... F>(std::type_identity<std::tuple<F...>>) {
  return (requires { F::kAbsorbsTail; } || ...);
}(std::type_identity<decltype(std::declval<T&>().fields())>{});

// --- registries ----------------------------------------------------------------

/// One registry row: a wire code and its spec name and, when a typed struct
/// carries the code, the struct's name plus two functions derived from its
/// layout. Name-only rows leave the last four members empty.
template <typename Code, typename Wire>
struct Row {
  Code code;
  const char* name;
  const char* label = nullptr;  // the typed struct's C++ name
  /// Decode a parameter block, then re-encode it; nullopt when decode rejects.
  std::optional<Wire> (*canon)(BytesView params) = nullptr;
  /// Encode a value whose every field is drawn from `rng`.
  Wire (*draw)(Rng& rng) = nullptr;
  bool absorbs_tail = false;
};

template <typename T>
using WireOf = decltype(std::declval<const T&>().encode());

template <typename T>
std::optional<WireOf<T>> canonical(BytesView params) {
  if (auto value = T::decode(params)) return value->encode();
  return std::nullopt;
}

template <typename T>
WireOf<T> drawn(Rng& rng) {
  return draw_fields<T>(rng).encode();
}

/// Row for a typed struct under an explicit code and name (the LMP payload
/// helpers serve more than one opcode, so they carry neither).
template <typename T, typename Code>
constexpr Row<Code, WireOf<T>> typed_row(Code code, const char* name, const char* label) {
  return {code, name, label, &canonical<T>, &drawn<T>, absorbs_tail_v<T>};
}

/// Row for an HCI struct, which declares its own kCode and kName.
template <typename T>
constexpr auto typed_row(const char* label) {
  return typed_row<T>(T::kCode, T::kName, label);
}

/// The row for `code`, or null. Rows are in ascending code order.
template <typename Code, typename Wire>
const Row<Code, Wire>* find_row(std::span<const Row<Code, Wire>> rows, Code code) {
  const auto it = std::ranges::lower_bound(rows, code, {}, &Row<Code, Wire>::code);
  return it != rows.end() && it->code == code ? &*it : nullptr;
}

}  // namespace blap::hci::layout

/// Registry row for the typed struct T, labelled with T's own name.
#define BLAP_LAYOUT_ROW(T) ::blap::hci::layout::typed_row<T>(#T)
/// The same under an explicit code and name.
#define BLAP_LAYOUT_ROW_AT(T, code, name) ::blap::hci::layout::typed_row<T>(code, name, #T)

/// The field list, in wire order, as kinds bound to this object's members,
/// and decode() derived from it. Shared by the three macros below.
#define BLAP_LAYOUT_CODEC(T, ...)                                               \
  [[nodiscard]] auto fields() const {                                           \
    using namespace ::blap::hci::layout::kinds;                                 \
    return std::tuple{__VA_ARGS__};                                             \
  }                                                                             \
  [[nodiscard]] auto fields() {                                                 \
    using namespace ::blap::hci::layout::kinds;                                 \
    return std::tuple{__VA_ARGS__};                                             \
  }                                                                             \
  [[nodiscard]] static std::optional<T> decode(::blap::BytesView params) {      \
    return ::blap::hci::layout::decode_fields<T>(params);                       \
  }

/// Declares an HCI command struct's opcode, spec name and field list, and
/// derives encode()/decode() from them. Use inside the struct, after its
/// data members.
#define BLAP_HCI_COMMAND(T, opcode, name, ...)                                  \
  BLAP_HCI_PDU_(T, std::uint16_t, opcode, name, make_command, __VA_ARGS__)

/// The same for an HCI event struct.
#define BLAP_HCI_EVENT(T, event_code, name, ...)                                \
  BLAP_HCI_PDU_(T, std::uint8_t, event_code, name, make_event, __VA_ARGS__)

#define BLAP_HCI_PDU_(T, code_type, code, name, make, ...)                      \
  static constexpr code_type kCode = code;                                      \
  static constexpr const char* kName = name;                                    \
  BLAP_LAYOUT_CODEC(T, __VA_ARGS__)                                             \
  [[nodiscard]] ::blap::hci::HciPacket encode() const {                         \
    return ::blap::hci::make(kCode, ::blap::hci::layout::encode_fields(*this)); \
  }

/// A bare parameter block (LMP payloads, command return parameters):
/// encode()/decode() work on the block's bytes alone.
#define BLAP_PARAMS(T, ...)                                                     \
  BLAP_LAYOUT_CODEC(T, __VA_ARGS__)                                             \
  [[nodiscard]] ::blap::Bytes encode() const {                                  \
    return ::blap::hci::layout::encode_fields(*this);                           \
  }
