// state_io.hpp — versioned byte serialization for simulation snapshots.
//
// StateWriter/StateReader are the byte-level primitives. The format is
// explicit and boring on purpose: fixed little-endian integers,
// length-prefixed byte strings, and tagged sections with a byte count, so
// that
//   * a snapshot is a pure function of the logical simulation state (no
//     pointers, no padding, no hash-order),
//   * a reader can verify it is looking at the section it expects and
//     reject truncated or mismatched input without UB, and
//   * the top-level version field gates any future layout change.
//
// One field list per component. A snapshotted component does not write a
// save and a load routine; it writes one function template
//
//   template <class Io> void visit_state(Io& io);
//
// that names each serialized field once, in wire order, and runs with
// Io = Saver on capture and Io = Loader on restore. Widths come from the
// field's type (field() below); a field stored at another width says so
// (io.u32(count)). Behaviour that differs by direction or RestoreMode is
// explicit code around the list (`if (io.rewind()) ...`), never a second
// list. Dispatch is static: each field compiles to the same straight-line
// read or write a hand-written routine would. The `Io` parameter name is
// part of the contract: blap-taint treats an `Io` receiver as a snapshot
// writer when it looks for key material leaving the declassified sections.
//
// Storage reuse: a Loader writes into the containers the component already
// holds. seq loads into the existing elements, optional reuses a held
// object, and in kRewind map/keyed recycle the live map's nodes (kInPlace
// builds maps aside: its field lists read the live entries). Every reused
// element is first reset to its default value (reset() below), so a member
// a field list leaves out carries no residue from before the restore. Reuse
// holds for the containers and optionals a field list names; the ones
// nested inside a reused element are freed by that element's reset and
// rebuilt by its load.
//
// Error model: no exceptions. A reader that runs out of bytes or hits a tag
// mismatch sets a sticky failure flag and every subsequent read returns a
// zero value; callers check ok() once at the end of a load. Every element
// count is checked against the bytes left before anything is sized from
// it. Writers cannot fail; a Saver's fail() records a writer-side contract
// breach (e.g. an endpoint outside the roster) for the caller to report.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bdaddr.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/uuid.hpp"

namespace blap::state {

/// How a component should apply a loaded state.
///
///  * kRewind  — the fork path: the scheduler queue has been cleared, and
///    the component must reset itself *entirely* to the serialized state,
///    clearing any callback-holding residue (pending operations, attached
///    taps beyond the captured count, user-agent pointers). Only valid for
///    snapshots captured at a strict/quiescent point.
///  * kInPlace — the round-trip-test path: the snapshot is being restored
///    onto the very state it was captured from, with the scheduler queue
///    (and its closures) intact. The component overwrites every serialized
///    field and leaves non-serializable members (EventHandles, callbacks)
///    untouched.
enum class RestoreMode : std::uint8_t { kRewind, kInPlace };

/// Four-character section tag packed into a u32 ("SCHD", "CTRL", ...).
constexpr std::uint32_t tag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

class StateWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// Length-prefixed byte string.
  void bytes(BytesView v) {
    u64(v.size());
    out_.insert(out_.end(), v.begin(), v.end());
  }
  void str(const std::string& v) {
    bytes(BytesView(reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
  }
  /// resize + memcpy, not a range insert: GCC 12's -Wstringop-overflow
  /// misfires on a range insert into a still-empty vector.
  template <std::size_t N>
  void fixed(const std::array<std::uint8_t, N>& v) {
    const std::size_t at = out_.size();
    out_.resize(at + N);
    std::memcpy(out_.data() + at, v.data(), N);
  }

  /// Open a tagged section; returns a token to pass to end_section. Sections
  /// may nest. The byte count is patched in when the section closes, so a
  /// reader can skip sections it does not understand.
  std::size_t begin_section(std::uint32_t section_tag) {
    u32(section_tag);
    const std::size_t at = out_.size();
    u64(0);  // placeholder for the payload length
    return at;
  }
  void end_section(std::size_t token) {
    const std::uint64_t payload = out_.size() - token - 8;
    for (int i = 0; i < 8; ++i)
      out_[token + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((payload >> (8 * i)) & 0xFF);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  /// Little-endian store with one size change, not one per byte.
  template <class T>
  void le(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i)
      out_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::vector<std::uint8_t> out_;
};

class StateReader {
 public:
  explicit StateReader(BytesView data) : data_(data) {}

  [[nodiscard]] bool ok() const { return !failed_; }
  /// Force the reader into the failed state (semantic validation errors).
  void fail(const std::string& why) {
    if (!failed_) error_ = why;
    failed_ = true;
  }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  template <std::size_t N>
  std::array<std::uint8_t, N> fixed() {
    std::array<std::uint8_t, N> out{};
    const BytesView v = view(N);
    if (v.size() == N) std::memcpy(out.data(), v.data(), N);
    return out;
  }
  /// The next `n` raw bytes, in place; empty (and the reader failed) when
  /// fewer remain.
  BytesView view(std::uint64_t n) {
    if (!need(n)) return {};
    const BytesView out = data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

  /// Skip `n` raw bytes (structural validation walks that hop over section
  /// payloads without parsing them).
  void skip(std::uint64_t n) { (void)view(n); }

  /// Read a section header and verify the tag. Returns the payload length
  /// (0 on failure). On tag mismatch the reader fails sticky.
  std::uint64_t expect_section(std::uint32_t section_tag) {
    const std::uint32_t got = u32();
    const std::uint64_t len = u64();
    if (failed_) return 0;
    if (got != section_tag) {
      fail("section tag mismatch");
      return 0;
    }
    if (!check(len)) {
      fail("section length exceeds input");
      return 0;
    }
    return len;
  }

 private:
  /// Little-endian load behind one bounds check, not one per byte.
  template <class T>
  T le() {
    if (!need(sizeof(T))) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += sizeof(T);
    return static_cast<T>(v);
  }
  [[nodiscard]] bool check(std::uint64_t n) const { return n <= data_.size() - pos_; }
  bool need(std::uint64_t n) {
    if (failed_ || !check(n)) {
      fail("input truncated");
      return false;
    }
    return true;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

namespace detail {
template <class T, template <class...> class Tmpl>
inline constexpr bool kIs = false;
template <template <class...> class Tmpl, class... A>
inline constexpr bool kIs<Tmpl<A...>, Tmpl> = true;
template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;
template <class T>
inline constexpr bool kIsByteArray = false;
template <std::size_t N>
inline constexpr bool kIsByteArray<std::array<std::uint8_t, N>> = true;
template <class T>
inline constexpr bool kNoEncoding = false;
}  // namespace detail

/// The natural encoding of one field, shared by both directions: wire
/// primitives go to Io::wire, everything else is composed from them here.
///   bool/u8/u16/u32/u64/double/string/Bytes/byte arrays  as is
///   enums                        at their (unsigned) underlying width
///   std::array<T, N>             N elements, no count
///   vector/deque                 u64 count + elements
///   map                          u64 count + (key, value) pairs
///   optional                     presence bool + value
///   pair                         first, second
///   BdAddr/Uuid/ClassOfDevice    6 bytes / 16 bytes / u32 raw
///   Rng                          its four state words
///   a class with visit_state     its own field list
template <class Io, class T>
void field(Io& io, T& v) {
  using U = std::remove_cv_t<T>;
  if constexpr (std::is_same_v<U, bool> || std::is_same_v<U, std::uint8_t> ||
                std::is_same_v<U, std::uint16_t> || std::is_same_v<U, std::uint32_t> ||
                std::is_same_v<U, std::uint64_t> || std::is_same_v<U, double> ||
                std::is_same_v<U, std::string> || std::is_same_v<U, Bytes> ||
                detail::kIsByteArray<U>) {
    io.wire(v);
  } else if constexpr (std::is_enum_v<U>) {
    using Raw = std::underlying_type_t<U>;
    io.proxy(static_cast<Raw>(v), [&v](Raw raw) { v = static_cast<U>(raw); });
  } else if constexpr (detail::kIsArray<U>) {
    for (auto& e : v) field(io, e);
  } else if constexpr (detail::kIs<U, std::pair>) {
    field(io, v.first);
    field(io, v.second);
  } else if constexpr (detail::kIs<U, std::vector> || detail::kIs<U, std::deque>) {
    io.seq(v, [&io](auto& e) { field(io, e); });
  } else if constexpr (detail::kIs<U, std::map>) {
    io.map(v, [&io](const auto&, auto& value) { field(io, value); });
  } else if constexpr (detail::kIs<U, std::optional>) {
    io.optional(v, [&io](auto& value) { field(io, value); });
  } else if constexpr (std::is_same_v<U, BdAddr>) {
    io.proxy(v.bytes(), [&v](const auto& b) { v = BdAddr(b); });
  } else if constexpr (std::is_same_v<U, Uuid>) {
    io.proxy(v.bytes(), [&v](const auto& b) { v = Uuid(b); });
  } else if constexpr (std::is_same_v<U, ClassOfDevice>) {
    io.proxy(v.raw(), [&v](std::uint32_t raw) { v = ClassOfDevice(raw); });
  } else if constexpr (std::is_same_v<U, Rng>) {
    io.proxy(v.state(), [&v](const auto& words) { v.set_state(words); });
  } else if constexpr (requires { v.visit_state(io); }) {
    v.visit_state(io);
  } else {
    static_assert(detail::kNoEncoding<U>,
                  "no natural encoding: state the width (io.u8/io.u32) or give the "
                  "type a visit_state field list");
  }
}

/// Resets an element a Loader reuses to its default value, so no member a
/// field list leaves out carries residue from before the restore. Strings
/// and containers are left as they are: loading overwrites them whole, and
/// resets each element it reuses, so their buffers keep their capacity. A
/// type whose field list loads every member in full may define
/// `reset_for_reuse()` to keep a member's buffer instead (BondRecord keeps
/// its services vector's).
template <class T>
void reset(T& v) {
  if constexpr (std::is_same_v<T, std::string> || detail::kIs<T, std::vector> ||
                detail::kIs<T, std::deque> || detail::kIs<T, std::map>) {
  } else if constexpr (requires { v.reset_for_reuse(); }) {
    v.reset_for_reuse();
  } else {
    v = T{};
  }
}

/// The direction-independent surface of Saver and Loader.
template <class Io>
class FieldVisitor {
 public:
  /// Visit each field in order at its natural encoding.
  template <class... T>
  void operator()(T&... fields) {
    (field(self(), fields), ...);
  }
  /// A field stored at a width other than its type's (signed counters).
  template <class T>
  void u8(T& v) {
    self().proxy(static_cast<std::uint8_t>(v), [&v](std::uint8_t raw) { v = static_cast<T>(raw); });
  }
  template <class T>
  void u32(T& v) {
    self().proxy(static_cast<std::uint32_t>(v),
                 [&v](std::uint32_t raw) { v = static_cast<T>(raw); });
  }

 private:
  Io& self() { return static_cast<Io&>(*this); }
};

/// Capture direction: every field is written.
class Saver : public FieldVisitor<Saver> {
 public:
  static constexpr bool kLoading = false;
  explicit Saver(StateWriter& w) : w_(w) {}

  void wire(bool v) { w_.boolean(v); }
  void wire(std::uint8_t v) { w_.u8(v); }
  void wire(std::uint16_t v) { w_.u16(v); }
  void wire(std::uint32_t v) { w_.u32(v); }
  void wire(std::uint64_t v) { w_.u64(v); }
  void wire(double v) { w_.f64(v); }
  void wire(const std::string& v) { w_.str(v); }
  void wire(const Bytes& v) { w_.bytes(v); }
  template <std::size_t N>
  void wire(const std::array<std::uint8_t, N>& v) {
    w_.fixed(v);
  }

  /// A derived value: written as computed; `set` applies it on load.
  template <class T, class Set>
  void proxy(const T& value, Set&& /*set*/) {
    field(*this, value);
  }
  /// u64 count, then `fn(element)` for each element.
  template <class C, class Fn>
  void seq(C& c, Fn&& fn) {
    w_.u64(c.size());
    for (auto& e : c) fn(e);
  }
  /// u64 count, then per entry the key and `fn(key, value)`.
  template <class M, class Fn>
  void map(M& m, Fn&& fn) {
    w_.u64(m.size());
    for (auto& [key, value] : m) {
      auto k = key;
      field(*this, k);
      fn(k, value);
    }
  }
  /// A map whose key is a field of its value: only the values travel
  /// (`fn(value)`); the loader re-derives each key with `key_of`.
  template <class M, class Key, class Fn>
  void keyed(M& m, Key&& /*key_of*/, Fn&& fn) {
    w_.u64(m.size());
    for (auto& entry : m) fn(entry.second);
  }
  /// Presence bool, then `fn(value)` (std::optional or std::unique_ptr).
  template <class P, class Fn>
  void optional(P& p, Fn&& fn) {
    w_.boolean(static_cast<bool>(p));
    if (p) fn(*p);
  }
  /// Callbacks (taps, observers, sniffers) cannot be serialized; only their
  /// count travels, and a rewind drops those attached after the capture.
  template <class C>
  void live_count(C& c) {
    w_.u64(c.size());
  }
  /// A tagged section with a patched-in byte count around `fn()`.
  template <class Fn>
  void section(std::uint32_t section_tag, Fn&& fn) {
    const auto token = w_.begin_section(section_tag);
    fn();
    w_.end_section(token);
  }

  static constexpr bool rewind() { return false; }
  static constexpr bool in_place() { return false; }
  void fail(const std::string& /*why*/) { ok_ = false; }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  StateWriter& w_;
  bool ok_ = true;
};

/// Restore direction: every field is read back in the same order. `mode`
/// only matters to components holding live callbacks or timers; plain data
/// (a FaultPlan in a replay bundle) loads the same either way.
class Loader : public FieldVisitor<Loader> {
 public:
  static constexpr bool kLoading = true;
  explicit Loader(StateReader& r, RestoreMode mode = RestoreMode::kInPlace)
      : r_(r), mode_(mode) {}

  void wire(bool& v) { v = r_.boolean(); }
  void wire(std::uint8_t& v) { v = r_.u8(); }
  void wire(std::uint16_t& v) { v = r_.u16(); }
  void wire(std::uint32_t& v) { v = r_.u32(); }
  void wire(std::uint64_t& v) { v = r_.u64(); }
  void wire(double& v) { v = r_.f64(); }
  // Assign in place: a restore onto a live simulation reuses the buffers.
  // (A string assigned from a byte iterator range copies through a
  // temporary string; from a char pointer it does not.)
  void wire(std::string& v) {
    const BytesView b = view();
    v.assign(reinterpret_cast<const char*>(b.data()), b.size());
  }
  void wire(Bytes& v) {
    const BytesView b = view();
    v.assign(b.begin(), b.end());
  }
  template <std::size_t N>
  void wire(std::array<std::uint8_t, N>& v) {
    v = r_.fixed<N>();
  }

  template <class T, class Set>
  void proxy(const T& /*value*/, Set&& set) {
    T loaded{};
    field(*this, loaded);
    set(loaded);
  }
  /// Loads into the elements `c` already holds, each reset first, and
  /// appends or drops elements to match the loaded count.
  template <class C, class Fn>
  void seq(C& c, Fn&& fn) {
    const std::uint64_t n = count();
    std::size_t i = 0;
    for (; i < n && r_.ok(); ++i) {
      if (i < c.size()) {
        reset(c[i]);
        fn(c[i]);
      } else {
        fn(c.emplace_back());
      }
    }
    if (c.size() > i) c.erase(c.begin() + static_cast<std::ptrdiff_t>(i), c.end());
  }
  /// kRewind recycles the live map's nodes (each value reset first) into
  /// the loaded entries. kInPlace builds the map aside and swaps it in only
  /// on success, so a field list can still consult the live entries (they
  /// keep their timers).
  template <class M, class Fn>
  void map(M& m, Fn&& fn) {
    const std::uint64_t n = count();
    M fresh;
    for (std::uint64_t i = 0; i < n && r_.ok(); ++i) {
      typename M::key_type key{};
      field(*this, key);
      auto node = take_node(m);
      node.key() = key;
      fn(node.key(), node.mapped());
      fresh.insert(fresh.end(), std::move(node));
    }
    if (rewind() || r_.ok()) m.swap(fresh);
  }
  /// As map(), for a map whose key is re-derived from its loaded value.
  template <class M, class Key, class Fn>
  void keyed(M& m, Key&& key_of, Fn&& fn) {
    const std::uint64_t n = count();
    M fresh;
    for (std::uint64_t i = 0; i < n && r_.ok(); ++i) {
      auto node = take_node(m);
      fn(node.mapped());
      node.key() = key_of(node.mapped());
      fresh.insert(fresh.end(), std::move(node));
    }
    if (rewind() || r_.ok()) m.swap(fresh);
  }
  /// Reuses a held value (reset first) when the input says present.
  template <class P, class Fn>
  void optional(P& p, Fn&& fn) {
    if (!r_.boolean()) {
      p.reset();
      return;
    }
    if (p) {
      reset(*p);
    } else if constexpr (detail::kIs<P, std::unique_ptr>) {
      p = std::make_unique<typename P::element_type>();
    } else {
      p.emplace();
    }
    fn(*p);
  }
  template <class C>
  void live_count(C& c) {
    const std::uint64_t n = r_.u64();
    if (rewind() && c.size() > n) c.resize(static_cast<std::size_t>(n));
  }
  /// Reads the section header, runs `fn()` only if it is intact, and fails
  /// the reader unless `fn()` consumed exactly the recorded byte count.
  template <class Fn>
  void section(std::uint32_t section_tag, Fn&& fn) {
    const std::uint64_t len = r_.expect_section(section_tag);
    if (!r_.ok()) return;
    const std::size_t before = r_.remaining();
    fn();
    if (r_.ok() && before - r_.remaining() != len) r_.fail("section length mismatch");
  }

  /// An element count from the input: every element occupies at least one
  /// byte, so a count beyond the bytes left is malformed, never an
  /// allocation size.
  std::uint64_t count() {
    const std::uint64_t n = r_.u64();
    if (n > r_.remaining()) r_.fail("element count exceeds input");
    return r_.ok() ? n : 0;
  }
  /// A length-prefixed byte string (as Saver::wire writes a string or
  /// Bytes), in place: for checking stored bytes without copying them.
  BytesView view() { return r_.view(r_.u64()); }

  [[nodiscard]] bool rewind() const { return mode_ == RestoreMode::kRewind; }
  [[nodiscard]] bool in_place() const { return mode_ == RestoreMode::kInPlace; }
  void fail(const std::string& why) { r_.fail(why); }
  [[nodiscard]] bool ok() const { return r_.ok(); }

 private:
  /// The node for the next loaded map entry: in kRewind the live map's
  /// first node, its value reset; otherwise (or once the live map runs
  /// out) a new node holding a default value.
  template <class M>
  typename M::node_type take_node(M& live) {
    if (rewind() && !live.empty()) {
      auto node = live.extract(live.begin());
      reset(node.mapped());
      return node;
    }
    M one;
    one.try_emplace(typename M::key_type{});
    return one.extract(one.begin());
  }

  StateReader& r_;
  RestoreMode mode_;
};

}  // namespace blap::state
