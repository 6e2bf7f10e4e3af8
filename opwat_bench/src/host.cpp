#include <sys/resource.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace opwat_bench {

namespace {

/// A fixed, memory-free integer loop (a 64-bit LCG) that the compiler
/// cannot fold away.
std::uint64_t spin(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

constexpr std::uint64_t k_spin_iters = 40'000'000;

double spin_ms(unsigned threads) {
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const auto t0 = clock_type::now();
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&sink, t] { sink.fetch_xor(spin(k_spin_iters, t + 1)); });
  for (auto& th : pool) th.join();
  const auto t1 = clock_type::now();
  if (sink.load() == 42) std::this_thread::yield();  // keeps the result live
  return ms_between(t0, t1);
}

}  // namespace

host_info calibrate_host() {
  host_info h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  // Best of three for each: calibration measures what the host can do,
  // not a passing neighbour.
  double one = 1e300, all = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    one = std::min(one, spin_ms(1));
    all = std::min(all, spin_ms(h.nproc));
  }
  h.spin_ms_1t = one;
  h.spin_ms_nt = all;
  return h;
}

double peak_rss_mb() {
  std::ifstream f{"/proc/self/status"};
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kb = std::stod(line.substr(6));
      return kb / 1024.0;
    }
  }
  return 0.0;
}

cpu_times process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime), ms(ru.ru_stime)};
}

}  // namespace opwat_bench
