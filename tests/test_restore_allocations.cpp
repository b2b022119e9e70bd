// Heap-allocation gate for the fork restore.
//
// A fork restore writes into the containers the live simulation already
// holds (state_io.hpp, Loader), so restoring the warm bonded snapshot after
// a stack fuzz trial should allocate next to nothing. This binary replaces
// the global operator new with a counting one — which is why it is a binary
// of its own — and fails when one restore allocates more than the ceiling.
// The count is a property of the code, not of the host: it repeats exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "fuzz/targets.hpp"
#include "radio/radio_medium.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

/// Heap allocations made while `fn()` runs.
template <class Fn>
long allocations_of(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

}  // namespace

// GCC pairs the free() below with the operator new it can see being called
// at a delete site and warns; both sides are the malloc-based replacements.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace blap {
namespace {

/// Measured for the warm bonded snapshot (2,595 bytes, three devices). It
/// was 70 when every restore rebuilt every container. That warm point holds
/// no live links or snoop records; one taken mid-SSP or under loss still
/// allocates for the state nested inside its reused elements.
constexpr long kMaxRestoreAllocations = 0;

TEST(RestoreAllocations, WarmBondedRestoreAfterStackTrial) {
  fuzz::StackTarget target;
  auto& sim = *target.scenario().sim;
  for (const Bytes& input : target.seed_inputs()) {
    fuzz::FeatureSink sink;
    (void)target.execute(input, sink);
    bool restored = false;
    const long allocations = allocations_of([&] { restored = target.warm().restore(sim); });
    ASSERT_TRUE(restored);
    EXPECT_LE(allocations, kMaxRestoreAllocations);
  }
}

class StillEndpoint : public radio::RadioEndpoint {
 public:
  explicit StillEndpoint(BdAddr addr) : addr_(addr) {}
  BdAddr radio_address() const override { return addr_; }
  ClassOfDevice radio_class_of_device() const override { return ClassOfDevice(0); }
  std::string radio_name() const override { return "still"; }
  bool inquiry_scan_enabled() const override { return true; }
  bool page_scan_enabled() const override { return true; }
  SimTime sample_page_response_latency(Rng&) override { return 1; }
  void on_link_established(radio::LinkId, const BdAddr&, bool) override {}
  void on_link_closed(radio::LinkId, std::uint8_t) override {}
  void on_air_frame(radio::LinkId, const Bytes&) override {}

 private:
  BdAddr addr_;
};

// Re-indexing rebuilds index nodes; an endpoint whose address and scan bits
// did not change must not be re-indexed at all.
TEST(RestoreAllocations, RefreshOfUnchangedEndpointTouchesNoIndex) {
  StillEndpoint a(*BdAddr::parse("00:00:00:00:00:01"));
  StillEndpoint b(*BdAddr::parse("00:00:00:00:00:02"));
  radio::EndpointRegistry registry;
  registry.attach(&a);
  registry.attach(&b);
  EXPECT_EQ(allocations_of([&] {
              registry.refresh(&a);
              registry.refresh(&b);
            }),
            0);
}

}  // namespace
}  // namespace blap
