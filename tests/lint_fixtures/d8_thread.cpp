// Fixture for rule D8 (std::thread is constructed in one place only: the
// campaign::run_indexed pool in src/campaign/campaign.cpp). Never compiled.

#include <thread>
#include <vector>

void work();

void fan_out(unsigned n) {
  std::vector<std::thread> pool;  // EXPECT-D8
  for (unsigned i = 0; i < n; ++i) pool.emplace_back(work);
  for (auto& t : pool) t.join();

  std::thread helper(work);  // EXPECT-D8
  helper.join();
  std::thread(work).detach();  // EXPECT-D8
  std::jthread scoped(work);  // EXPECT-D8
}

// Naming the type's static members or its id constructs no thread.
unsigned cores() { return std::thread::hardware_concurrency(); }
std::thread::id self() { return std::this_thread::get_id(); }

// blap-lint: thread-ok — a process-lifetime watchdog, not campaign work
std::thread watchdog(work);
