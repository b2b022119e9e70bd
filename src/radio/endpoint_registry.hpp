// endpoint_registry.hpp — population-scale endpoint bookkeeping for the
// radio medium.
//
// The medium used to keep one std::vector<RadioEndpoint*> and answer every
// question about it by linear scan: page() walked all n endpoints to find
// the (usually one or two) owners of the target BD_ADDR, start_inquiry()
// walked all n to find the scanners, and attached() — the liveness check
// every delayed callback re-runs — was an O(n) std::find. Fine for the
// paper's two-device cells; a wall at the ROADMAP's 100k-device crowds.
//
// This registry replaces the vector with a structure-of-arrays slot table
// plus ordered indexes:
//
//   * SoA slot table — parallel vectors of endpoint pointer, indexed
//     BD_ADDR, attach sequence, generation counter and the two scan bits.
//     A slot is reused after detach with its generation bumped, so an
//     EndpointHandle{slot, generation} gives O(1) generation-checked
//     liveness: resolve() returns the pointer iff the same attachment is
//     still live. This is the same trick the Scheduler uses for event
//     cancellation.
//
//   * by_address_ — std::map keyed (BD_ADDR, attach_seq). page() resolves
//     its candidate set in O(log n + candidates). The attach_seq in the key
//     makes the map a deterministic multimap: when several endpoints own
//     one address (the BD_ADDR-spoofing race at the heart of the paper),
//     candidates enumerate in *attach order* — exactly the order the old
//     linear scan produced, which is load-bearing because each candidate
//     draws its page latency from the shared Rng stream in that order.
//
//   * inquiry_scanners_ — std::map attach_seq -> slot holding only the
//     endpoints whose inquiry-scan bit is set, so an inquiry in a 100k
//     crowd touches the scanners and nobody else.
//
//   * by_attach_order_ — attach_seq -> slot over the whole attachment set;
//     serialization iterates it to write the same attach-order byte layout
//     the endpoint vector produced.
//
// Staleness contract: the indexed address and scan bits are snapshots of
// the endpoint's virtuals taken at attach()/refresh() time. Whoever mutates
// an attached endpoint's identity or scan state must call
// RadioMedium::notify_endpoint_changed() (Controller does, from its HCI
// write paths). Lookups that tolerate a missed scan-bit notify re-check the
// live virtual on the (small) candidate set; a missed *address* notify is a
// contract violation and is documented as such.
//
// All containers are ordered (std::map) — iteration order feeds Rng draw
// order and event schedule order, so it must be hash- and address-layout-
// independent. blap-lint rule D5 enforces this for src/radio/.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/bdaddr.hpp"

namespace blap::radio {

class RadioEndpoint;

/// Generation-checked reference to an attachment. A default-constructed
/// handle (generation 0) is never live; slots issue generations from 1.
/// Cheap to copy into scheduler closures — the replacement for capturing a
/// raw RadioEndpoint* that a detach could dangle.
struct EndpointHandle {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;

  [[nodiscard]] bool valid() const { return generation != 0; }
};

class EndpointRegistry {
 public:
  /// Attach `endpoint`, indexing its current address and scan bits.
  /// Idempotent: re-attaching a live endpoint returns its existing handle.
  EndpointHandle attach(RadioEndpoint* endpoint);

  /// Drop `endpoint` and bump its slot generation, so every outstanding
  /// handle to this attachment goes stale. No-op if not attached.
  void detach(RadioEndpoint* endpoint);

  /// Re-read `endpoint`'s address and scan bits and update the indexes.
  /// No-op if not attached, or if none of the three changed. Attach seq
  /// (and so iteration position) is kept.
  void refresh(RadioEndpoint* endpoint);

  /// Rebuild the attachment set from `in_order` (snapshot restore).
  /// Endpoints already attached keep their slot and generation — an
  /// in-place restore must not invalidate handles captured by events that
  /// are still queued — but every endpoint is re-sequenced to its position
  /// in `in_order`, so iteration order afterwards matches the snapshot.
  /// When `in_order` already is the live attachment order the indexes are
  /// kept as they are: attach seqs only decide order.
  void load(std::span<RadioEndpoint* const> in_order);

  [[nodiscard]] bool contains(const RadioEndpoint* endpoint) const {
    return slot_of_.find(endpoint) != slot_of_.end();
  }

  /// Handle for a live attachment; an invalid handle if not attached.
  [[nodiscard]] EndpointHandle handle_of(const RadioEndpoint* endpoint) const;

  /// O(1): the endpoint iff the attachment `h` refers to is still live.
  [[nodiscard]] RadioEndpoint* resolve(EndpointHandle h) const {
    if (h.slot >= endpoints_.size() || generations_[h.slot] != h.generation) return nullptr;
    return endpoints_[h.slot];
  }

  /// The address `endpoint` is currently indexed under (which trails the
  /// live virtual until notify/refresh). Meaningless if not attached.
  [[nodiscard]] BdAddr address_of(const RadioEndpoint* endpoint) const;

  [[nodiscard]] std::size_t size() const { return by_attach_order_.size(); }
  [[nodiscard]] std::size_t inquiry_scanner_count() const { return inquiry_scanners_.size(); }

  /// Whole attachment set, in attach order.
  template <typename Fn>
  void for_each_attached(Fn&& fn) const {
    for (const auto& [seq, slot] : by_attach_order_) fn(endpoints_[slot]);
  }

  /// Endpoints indexed as owning `address`, in attach order — the page-race
  /// candidate set. The callback gets the handle too, so the caller can
  /// capture liveness for delayed events without a second lookup.
  template <typename Fn>
  void for_each_candidate(const BdAddr& address, Fn&& fn) const {
    for (auto it = by_address_.lower_bound({address, 0});
         it != by_address_.end() && it->first.first == address; ++it) {
      const std::uint32_t slot = it->second;
      fn(endpoints_[slot], EndpointHandle{slot, generations_[slot]});
    }
  }

  /// Endpoints indexed as inquiry-scanning, in attach order.
  template <typename Fn>
  void for_each_inquiry_scanner(Fn&& fn) const {
    for (const auto& [seq, slot] : inquiry_scanners_) fn(endpoints_[slot]);
  }

 private:
  /// True when `in_order` lists exactly the attachment set, in attach order.
  [[nodiscard]] bool attached_in_order(std::span<RadioEndpoint* const> in_order) const;
  std::uint32_t acquire_slot(RadioEndpoint* endpoint);
  void index_slot(std::uint32_t slot);
  void unindex_slot(std::uint32_t slot);

  // SoA slot table. endpoints_[slot] is nullptr while the slot is free.
  std::vector<RadioEndpoint*> endpoints_;
  std::vector<BdAddr> addresses_;            // as indexed (see staleness contract)
  std::vector<std::uint64_t> attach_seqs_;
  std::vector<std::uint32_t> generations_;   // current generation per slot
  std::vector<std::uint8_t> inquiry_scan_;   // as indexed
  std::vector<std::uint8_t> page_scan_;      // as indexed
  std::vector<std::uint32_t> free_slots_;

  std::uint64_t next_attach_seq_ = 0;
  std::map<std::pair<BdAddr, std::uint64_t>, std::uint32_t> by_address_;
  std::map<std::uint64_t, std::uint32_t> by_attach_order_;
  std::map<std::uint64_t, std::uint32_t> inquiry_scanners_;
  // Pointer-keyed, so iteration order is address-layout-dependent; only
  // load() iterates it, and only to retire slots (not observable).
  std::map<const RadioEndpoint*, std::uint32_t> slot_of_;
};

}  // namespace blap::radio
