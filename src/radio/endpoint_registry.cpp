#include "radio/endpoint_registry.hpp"

#include "radio/radio_medium.hpp"

namespace blap::radio {

std::uint32_t EndpointRegistry::acquire_slot(RadioEndpoint* endpoint) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(endpoints_.size());
    endpoints_.push_back(nullptr);
    addresses_.push_back(BdAddr{});
    attach_seqs_.push_back(0);
    // Generations start at 1 so a default EndpointHandle (generation 0)
    // never resolves.
    generations_.push_back(1);
    inquiry_scan_.push_back(0);
    page_scan_.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  endpoints_[slot] = endpoint;
  slot_of_[endpoint] = slot;
  return slot;
}

void EndpointRegistry::index_slot(std::uint32_t slot) {
  RadioEndpoint* endpoint = endpoints_[slot];
  addresses_[slot] = endpoint->radio_address();
  inquiry_scan_[slot] = endpoint->inquiry_scan_enabled() ? 1 : 0;
  page_scan_[slot] = endpoint->page_scan_enabled() ? 1 : 0;
  by_address_.emplace(std::make_pair(addresses_[slot], attach_seqs_[slot]), slot);
  by_attach_order_.emplace(attach_seqs_[slot], slot);
  if (inquiry_scan_[slot] != 0) inquiry_scanners_.emplace(attach_seqs_[slot], slot);
}

void EndpointRegistry::unindex_slot(std::uint32_t slot) {
  by_address_.erase({addresses_[slot], attach_seqs_[slot]});
  by_attach_order_.erase(attach_seqs_[slot]);
  inquiry_scanners_.erase(attach_seqs_[slot]);
}

EndpointHandle EndpointRegistry::attach(RadioEndpoint* endpoint) {
  const auto it = slot_of_.find(endpoint);
  if (it != slot_of_.end()) return EndpointHandle{it->second, generations_[it->second]};
  const std::uint32_t slot = acquire_slot(endpoint);
  attach_seqs_[slot] = next_attach_seq_++;
  index_slot(slot);
  return EndpointHandle{slot, generations_[slot]};
}

void EndpointRegistry::detach(RadioEndpoint* endpoint) {
  const auto it = slot_of_.find(endpoint);
  if (it == slot_of_.end()) return;
  const std::uint32_t slot = it->second;
  unindex_slot(slot);
  ++generations_[slot];  // every outstanding handle to this attachment dies
  endpoints_[slot] = nullptr;
  free_slots_.push_back(slot);
  slot_of_.erase(it);
}

void EndpointRegistry::refresh(RadioEndpoint* endpoint) {
  const auto it = slot_of_.find(endpoint);
  if (it == slot_of_.end()) return;
  const std::uint32_t slot = it->second;
  if (addresses_[slot] == endpoint->radio_address() &&
      inquiry_scan_[slot] == (endpoint->inquiry_scan_enabled() ? 1 : 0) &&
      page_scan_[slot] == (endpoint->page_scan_enabled() ? 1 : 0))
    return;  // nothing indexed has changed
  unindex_slot(slot);
  index_slot(slot);
}

EndpointHandle EndpointRegistry::handle_of(const RadioEndpoint* endpoint) const {
  const auto it = slot_of_.find(endpoint);
  if (it == slot_of_.end()) return EndpointHandle{};
  return EndpointHandle{it->second, generations_[it->second]};
}

BdAddr EndpointRegistry::address_of(const RadioEndpoint* endpoint) const {
  const auto it = slot_of_.find(endpoint);
  if (it == slot_of_.end()) return BdAddr{};
  return addresses_[it->second];
}

bool EndpointRegistry::attached_in_order(std::span<RadioEndpoint* const> in_order) const {
  if (in_order.size() != by_attach_order_.size()) return false;
  auto it = by_attach_order_.begin();
  for (RadioEndpoint* endpoint : in_order)
    if (endpoints_[(it++)->second] != endpoint) return false;
  return true;
}

void EndpointRegistry::load(std::span<RadioEndpoint* const> in_order) {
  // Attach seqs only decide order: when the restored order is the live one
  // (a fork rewinding a trial that attached and detached nothing), the
  // indexes already hold what the rebuild below would produce, up to any
  // address or scan bit that changed unnotified, which refresh() re-reads.
  if (attached_in_order(in_order)) {
    for (RadioEndpoint* endpoint : in_order) refresh(endpoint);
    return;
  }
  // Retire every attachment that is not in the restored set. Endpoints that
  // stay keep slot and generation: an in-place restore happens at the
  // capture instant with frames possibly still in flight, and the handles
  // those queued events captured must stay valid.
  std::map<const RadioEndpoint*, std::uint32_t> keep;
  for (RadioEndpoint* endpoint : in_order) {
    const auto it = slot_of_.find(endpoint);
    if (it != slot_of_.end()) keep.emplace(it->first, it->second);
  }
  for (const auto& [endpoint, slot] : slot_of_) {
    if (keep.find(endpoint) != keep.end()) continue;
    ++generations_[slot];
    endpoints_[slot] = nullptr;
    free_slots_.push_back(slot);
  }
  by_address_.clear();
  by_attach_order_.clear();
  inquiry_scanners_.clear();
  slot_of_ = std::move(keep);

  // Re-sequence everything to its snapshot position; iteration order — and
  // with it every Rng draw order downstream — now matches the capture.
  for (RadioEndpoint* endpoint : in_order) {
    if (endpoint == nullptr) continue;
    const auto it = slot_of_.find(endpoint);
    const bool fresh = it == slot_of_.end();
    if (!fresh && by_attach_order_.find(attach_seqs_[it->second]) != by_attach_order_.end())
      continue;  // duplicate roster entry; first occurrence wins
    const std::uint32_t slot = fresh ? acquire_slot(endpoint) : it->second;
    attach_seqs_[slot] = next_attach_seq_++;
    index_slot(slot);
  }
}

}  // namespace blap::radio
