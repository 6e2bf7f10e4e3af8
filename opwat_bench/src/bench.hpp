// Internal declarations of the opwat benchmark (see ../README.md).
//
// Every layer is timed from outside: the benchmark wraps its own calls
// into the library's public functions and never instruments the
// library.  Times come from std::chrono::steady_clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "opwat/eval/metrics.hpp"
#include "opwat/eval/scenario.hpp"
#include "opwat/infer/pipeline.hpp"
#include "opwat/serve/catalog.hpp"

namespace opwat_bench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(clock_type::time_point a,
                                            clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of `v` (the mean of the two middle values for even sizes);
/// 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Result reporting

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order; set() overwrites an existing name.
class metric_set {
 public:
  void set(std::string_view name, double value, std::string_view unit);
  [[nodiscard]] const std::vector<metric>& all() const noexcept { return items_; }

 private:
  std::vector<metric> items_;
};

/// Shortest round-trip decimal form of a finite double.
[[nodiscard]] std::string format_number(double v);

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory around the benchmark's calls into
// each layer, written out when the run ends.

struct span {
  std::uint32_t name = 0;    ///< interned span name
  std::uint64_t group = 0;   ///< shared by the spans of one study / request
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of one span name, summed over its spans.
struct self_time {
  std::string name;
  std::uint64_t spans = 0;
  double total_ms = 0.0;  ///< summed durations
  double self_ms = 0.0;   ///< summed durations minus child coverage
};

class tracer {
 public:
  /// Spans beyond this many are dropped (and counted).
  static constexpr std::size_t k_capacity = std::size_t{1} << 21;

  [[nodiscard]] bool on() const noexcept { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }

  [[nodiscard]] static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now().time_since_epoch())
        .count();
  }

  /// Opens a span (end unset) and returns its index, or -1 when tracing
  /// is off or the buffer is full.  Thread-safe.
  std::int64_t open(std::string_view name, std::uint64_t group, std::int64_t parent,
                    std::int64_t start_ns);
  /// Closes a span opened by open(); ignores -1.
  void close(std::int64_t index, std::int64_t end_ns);
  /// Records a finished span in one call.
  std::int64_t add(std::string_view name, std::uint64_t group, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Per-name self times over the closed spans whose root span is named
  /// `root`.
  [[nodiscard]] std::vector<self_time> self_times(std::string_view root) const;
  /// Summed duration (ms) of the closed spans with this name, one entry
  /// per span group, in the order the groups first appear.
  [[nodiscard]] std::vector<double> group_sums_ms(std::string_view name) const;

  /// Writes every span as one tab-separated line
  /// (index, name, group, parent, start_ns, end_ns).
  void write(const std::string& path) const;

 private:
  std::uint32_t intern(std::string_view name);

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span on the current thread.
class scoped_span {
 public:
  scoped_span(tracer& t, std::string_view name, std::uint64_t group,
              std::int64_t parent = -1)
      : t_(t), index_(t.on() ? t.open(name, group, parent, tracer::now_ns()) : -1) {}
  ~scoped_span() {
    if (index_ >= 0) t_.close(index_, tracer::now_ns());
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  [[nodiscard]] std::int64_t index() const noexcept { return index_; }

 private:
  tracer& t_;
  std::int64_t index_;
};

// ---------------------------------------------------------------------------
// Host

struct host_info {
  unsigned nproc = 1;
  double spin_ms_1t = 0.0;  ///< one thread spinning a fixed loop
  double spin_ms_nt = 0.0;  ///< nproc threads, each spinning the same loop
  [[nodiscard]] double ratio() const { return spin_ms_1t > 0 ? spin_ms_nt / spin_ms_1t : 0; }
  /// nproc concurrent spins take at most 1.25x one spin.
  [[nodiscard]] bool scales() const { return ratio() <= 1.25; }
};

[[nodiscard]] host_info calibrate_host();
/// Process high-water resident set (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();
/// User and system CPU time of the whole process so far, in ms.
struct cpu_times {
  double user_ms = 0.0;
  double sys_ms = 0.0;
};
[[nodiscard]] cpu_times process_cpu();

// ---------------------------------------------------------------------------
// Study: seed -> scenario -> inference -> catalog -> .opwatc -> reload

/// The six builtin steps, in the order the default engine runs them.
inline constexpr std::string_view k_steps[] = {"ping-campaign", "path-extraction",
                                               "port-capacity", "rtt-colo",
                                               "multi-ixp",     "private-links"};
/// The four decision steps among them.
inline constexpr std::string_view k_decision_steps[] = {"port-capacity", "rtt-colo",
                                                        "multi-ixp", "private-links"};

struct study_output {
  std::unique_ptr<opwat::eval::scenario> scenario;
  opwat::infer::pipeline_result result;
  opwat::serve::catalog loaded;  ///< the reloaded .opwatc
  std::string store_path;
  double seconds = 0.0;          ///< seed -> reloaded file, wall time
  std::uint64_t store_bytes = 0;
  std::uint64_t corpus_hash = 0;
};

/// Scale of the scenario a run builds.
enum class scale : std::uint8_t { paper, tiny };

/// The scale's default scenario, with its world seed replaced when given.
[[nodiscard]] opwat::eval::scenario_config study_config(
    scale sc, std::optional<std::uint64_t> world_seed);

/// Epoch label of the study's own pipeline result.
inline constexpr std::string_view k_study_epoch = "study";

/// One full study, traced as group `group` when the tracer is on.  The
/// scenario is built layer by layer (the same calls eval::scenario::build
/// makes), inference runs through wrapper steps, and the result is
/// ingested, saved to `store_path` and loaded back.
[[nodiscard]] study_output run_study(const opwat::eval::scenario_config& cfg,
                                     const std::string& store_path, tracer& tr,
                                     std::uint64_t group);

/// Order-sensitive digest of a trace corpus (every hop, RTT bits included).
[[nodiscard]] std::uint64_t corpus_digest(const std::vector<opwat::measure::trace>& traces);
/// Digest of a pipeline result's decisions, annotations, extraction and
/// per-step decision counts (wall times excluded).
[[nodiscard]] std::uint64_t result_digest(const opwat::infer::pipeline_result& pr);

/// Study correctness gates against eval::scenario::build and the default
/// engine on the same seed, plus save -> load -> save byte identity of
/// the study's store file; appends failures to `errors`.
void check_study(const opwat::eval::scenario_config& cfg, const study_output& out,
                 const std::string& scratch_dir, std::vector<std::string>& errors);

/// Accuracy and coverage of the study's verdicts on the test validation
/// subset; when `enforce`, appends a failure when either leaves the band
/// pinned in README.md (a paper-scale band: the tiny scale validates too
/// few interfaces for one).
void check_accuracy(const study_output& out, bool enforce, opwat::eval::metrics& scored,
                    std::vector<std::string>& errors);

/// Byte contents of a file ("" when unreadable).
[[nodiscard]] std::string read_file(const std::string& path);

// ---------------------------------------------------------------------------
// Workloads

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  scale sc = scale::paper;
  std::string work_dir;   ///< scratch directory for store files (removed at exit)
  std::string trace_dir;  ///< where the span dump is written
};

struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  metric_set e2e;     ///< end-to-end metrics (printed with --trace 0)
  metric_set layers;  ///< per-layer metrics (printed with --trace 1)
  std::vector<std::string> errors;
};

/// Runs one workload ("study", "portal_cached" or "portal_churn").
[[nodiscard]] run_result run_workload(const run_options& opt, tracer& tr);

}  // namespace opwat_bench
