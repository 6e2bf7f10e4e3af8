// opwat_bench --workload <study|portal_cached|portal_churn> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> --trace-dir <dir>
//             [--scale paper|tiny]
//
// Prints progress and a host-calibration line, then, as the last line of
// standard output, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": v, "unit": u}, ...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits non-zero on a usage error or an exception.
#include <sched.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using namespace opwat_bench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "opwat_bench: " << why
            << "\nusage: opwat_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " --work-dir <dir> --trace-dir <dir> [--scale paper|tiny]\n";
  std::exit(2);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string result_line(const run_result& r, const metric_set& metrics) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics.all()) {
    if (!first) out += ", ";
    first = false;
    out += json_string(m.name) + ": {\"value\": " + format_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  run_options opt;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else if (a == "--trace-dir") {
        opt.trace_dir = v;
      } else if (a == "--scale") {
        if (v != "paper" && v != "tiny") usage("--scale takes paper or tiny");
        opt.sc = v == "tiny" ? scale::tiny : scale::paper;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || opt.work_dir.empty() ||
      opt.trace_dir.empty())
    usage("--workload, --seed, --seconds, --trace, --work-dir and --trace-dir are required");

  // A private scratch directory per process, removed on exit.
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(::getpid());
  namespace fs = std::filesystem;
  try {
    fs::create_directories(opt.work_dir);
    fs::create_directories(opt.trace_dir);

    const auto host = calibrate_host();
    std::cout << "host {\"nproc\": " << host.nproc
              << ", \"spin_ms_1t\": " << format_number(host.spin_ms_1t)
              << ", \"spin_ms_nt\": " << format_number(host.spin_ms_nt)
              << ", \"scales\": " << (host.scales() ? "true" : "false") << "}\n";
    if (!host.scales())
      std::cout << "warning: " << host.nproc << " concurrent spins took "
                << format_number(host.ratio())
                << "x one spin; multi-thread figures on this host are unreliable\n";

    // Everything after calibration runs on one CPU, the last the process
    // may use.  The reference host gives its vCPUs anywhere between one and
    // nproc cores' worth of time, and cross-CPU wake-ups cost several times
    // a same-CPU switch there; one CPU is the configuration that measures
    // the same in both states.  Threads started later inherit the mask.
    {
      cpu_set_t allowed;
      CPU_ZERO(&allowed);
      if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("sched_getaffinity failed");
      int last = -1;
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed)) last = c;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(last, &one);
      if (sched_setaffinity(0, sizeof one, &one) != 0)
        throw std::runtime_error("sched_setaffinity failed");
      std::cout << "pinned to cpu " << last << "\n";
    }

    tracer tr;
    auto res = run_workload(opt, tr);
    res.layers.set("host.nproc", host.nproc, "count");
    res.layers.set("host.spin_ms_1t", host.spin_ms_1t, "ms");
    res.layers.set("host.spin_ms_nt", host.spin_ms_nt, "ms");
    res.layers.set("host.spin_ratio_nt", host.ratio(), "ratio");
    if (opt.trace) {
      const auto path = opt.trace_dir + "/" + opt.workload + ".spans.tsv";
      tr.write(path);
      std::cout << "spans: " << tr.size() << " written to " << path << "\n";
    }
    for (const auto& e : res.errors) std::cout << "CHECK FAILED: " << e << "\n";
    res.correct = res.errors.empty();
    fs::remove_all(opt.work_dir);
    std::cout << result_line(res, opt.trace ? res.layers : res.e2e) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "opwat_bench: " << e.what() << "\n";
    std::error_code ec;
    fs::remove_all(opt.work_dir, ec);
    return 1;
  }
}
