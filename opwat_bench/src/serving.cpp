// The three workloads.  Every run has the same shape, so that every
// workload reports every metric from its own measurements:
//
//   set-up (kSetups times, median = setup_s)
//       one study (seed -> reloaded .opwatc), two more pipeline runs under
//       other pipeline seeds, a three-epoch shared_catalog published
//       epoch by epoch, the study's store file extended with
//       append_epoch, an in-process portal::server (2 workers) and a
//       warm-up request stream.
//   timed window
//       `study` first runs kRounds full studies, each on a world of its
//       own; then kRounds serving rounds, each a closed-loop phase
//       (capacity, CPU per request) and two open-loop phases at fixed
//       offered rates.
//   checks
//       a fixed sample of portal responses against direct serve::query /
//       diff_epochs answers, the store file against a full save, the
//       accuracy band and, for `study`, the study gates.
//
// Load comes from this one process: the server's acceptor and two
// workers plus one generator thread (the churn writer sleeps between
// publishes), i.e. at most 4 busy threads, all on the one CPU main()
// pins the process to.
#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "opwat/portal/client.hpp"
#include "opwat/portal/server.hpp"
#include "opwat/portal/workload.hpp"
#include "opwat/serve/query.hpp"
#include "opwat/serve/shared_catalog.hpp"

namespace opwat_bench {

using namespace opwat;

namespace {

constexpr int kSetups = 3;
constexpr int kRounds = 8;
constexpr std::size_t kConnections = 8;
constexpr std::size_t kClosedWindow = 32;  // requests in flight, over all connections
constexpr std::size_t kCorrectnessSample = 256;
constexpr std::size_t kReplaySample = 4096;
constexpr double kChurnPeriodS = 0.5;
/// Spans are recorded for one request in this many (trace mode).
constexpr std::uint64_t kTraceEvery = 8;

// Request-index bases: each phase draws a disjoint slice of the
// workload's deterministic request stream.
constexpr std::uint64_t kWarmBase = 0;
constexpr std::uint64_t kClosedBase = 1ULL << 24;
constexpr std::uint64_t kLowBase = 2ULL << 24;
constexpr std::uint64_t kHighBase = 3ULL << 24;
constexpr std::uint64_t kSampleBase = 4ULL << 24;
/// Request-index offset between rounds within a phase's slice.
constexpr std::uint64_t kRoundStride = 1ULL << 20;

struct workload_spec {
  std::string_view name;
  bool study_rounds;   ///< run one study at the start of every round
  double serve_share;  ///< share of --seconds spent serving
  bool cached_mix;     ///< group_by + diff only (key set fits the result cache)
  bool writer;         ///< publish a new epoch every kChurnPeriodS
  std::size_t warm_requests;
  /// Open-loop offered rates, fixed at about 1/4 and 2/3 of the
  /// workload's capacity_qps when the benchmark was introduced.
  double low_qps;
  double high_qps;
};

constexpr workload_spec kWorkloads[] = {
    {"study", true, 0.75, false, false, 4000, 15000.0, 30000.0},
    {"portal_cached", false, 1.0, true, false, 20000, 20000.0, 40000.0},
    {"portal_churn", false, 1.0, false, true, 4000, 15000.0, 30000.0},
};

// ---------------------------------------------------------------------------
// Direct answers: the server's execution of each query op, done through
// the library's query API on a catalog snapshot.

portal::row_record to_record(const serve::iface_row& row) {
  portal::row_record rec;
  rec.ip = row.ip.value();
  rec.ixp = row.ixp;
  rec.asn = row.asn.value;
  rec.cls = static_cast<std::uint8_t>(row.cls);
  rec.step = static_cast<std::uint8_t>(row.step);
  rec.rtt_ms = row.rtt_min_ms;
  return rec;
}

/// The expected response to `req` on `snap`.  Throws on requests the
/// workload should never produce (unknown labels or IXPs).
portal::response direct_answer(const serve::catalog& snap, portal::request req,
                               serve::exec::stats* st) {
  using portal::op_code;
  portal::response resp;
  const auto latest = snap.at(static_cast<serve::epoch_id>(snap.epoch_count() - 1)).label();
  if (req.epoch.empty()) req.epoch = latest;
  if (req.op == op_code::diff && req.epoch_to.empty()) req.epoch_to = latest;
  req.limit = std::min(req.limit, portal::server_config{}.max_limit);
  resp.epoch = req.epoch;

  const auto base_query = [&] {
    serve::query q{snap};
    q.collect_stats(st);
    q.epoch(req.epoch);
    if (req.ixp_id != portal::k_no_ixp_filter) q.at_ixp(world::ixp_id{req.ixp_id});
    return q;
  };
  switch (req.op) {
    case op_code::member: {
      auto q = base_query();
      q.member(net::asn{req.asn});
      resp.total = q.count();
      q.page(0, req.limit);
      for (const auto& row : q.rows()) resp.rows.push_back(to_record(row));
      break;
    }
    case op_code::rtt_band: {
      auto q = base_query();
      q.rtt_between(req.rtt_lo_ms, req.rtt_hi_ms);
      resp.total = q.count();
      q.sort_by_rtt().page(0, req.limit);
      for (const auto& row : q.rows()) resp.rows.push_back(to_record(row));
      break;
    }
    case op_code::group_by: {
      auto q = base_query();
      if (req.cls_filter != portal::k_no_cls_filter)
        q.cls(static_cast<infer::peering_class>(req.cls_filter));
      switch (req.dim) {
        case portal::group_dim::ixp: q.by_ixp(); break;
        case portal::group_dim::asn: q.by_asn(); break;
        case portal::group_dim::metro: q.by_metro(); break;
        case portal::group_dim::cls: q.by_class(); break;
        case portal::group_dim::step: q.by_step(); break;
      }
      const auto groups = q.group_counts();
      resp.total = groups.size();
      const auto n = std::min<std::size_t>(groups.size(), req.limit);
      for (std::size_t i = 0; i < n; ++i)
        resp.groups.push_back({groups[i].key, groups[i].count});
      break;
    }
    case op_code::diff: {
      const auto d = serve::diff_epochs(snap, req.epoch, req.epoch_to);
      resp.labels = {req.epoch, req.epoch_to};
      resp.appeared = d.appeared.size();
      resp.disappeared = d.disappeared.size();
      resp.reclassified = d.reclassified.size();
      resp.total = d.appeared.size() + d.disappeared.size() + d.reclassified.size();
      break;
    }
    default:
      throw std::invalid_argument("direct_answer: op outside the workload mix");
  }
  return resp;
}

/// Encoded response with the per-delivery fields (id, cache flag) cleared.
std::string canonical_bytes(portal::response r) {
  r.id = 0;
  r.cache_hit = false;
  return portal::encode_response(r);
}

constexpr std::string_view kOps[] = {"member", "rtt_band", "group_by", "diff"};
int op_index(portal::op_code op) {
  switch (op) {
    case portal::op_code::member: return 0;
    case portal::op_code::rtt_band: return 1;
    case portal::op_code::group_by: return 2;
    case portal::op_code::diff: return 3;
    default: return -1;
  }
}

// ---------------------------------------------------------------------------
// Load generation: one thread, kConnections connections.

struct phase_result {
  double duration_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t ok_in_window = 0;  ///< ok responses received before the window closed
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t unanswered = 0;
  std::vector<double> latency_ms;   ///< every answered request
  std::vector<double> late_ms;      ///< open loop: send time minus due time
  std::int64_t start_ns = 0;

  [[nodiscard]] std::uint64_t failed() const { return shed + errors + unanswered; }
};

class generator {
 public:
  generator(std::uint16_t port, const portal::workload& wl, tracer& tr)
      : wl_(wl), tr_(tr) {
    for (std::size_t c = 0; c < kConnections; ++c)
      conns_.push_back(std::make_unique<portal::client>("127.0.0.1", port));
    // Wake-ups for the open-loop schedule should be as close to the due
    // time as the kernel allows.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }

  /// Closed loop: keep kClosedWindow requests in flight for duration_s.
  phase_result closed(std::uint64_t base, double duration_s) {
    phase_result r;
    r.duration_s = duration_s;
    r.start_ns = tracer::now_ns();
    const auto deadline = r.start_ns + static_cast<std::int64_t>(duration_s * 1e9);
    std::uint64_t i = base;
    const std::size_t per_conn = kClosedWindow / kConnections;
    for (std::size_t c = 0; c < kConnections; ++c)
      for (std::size_t k = 0; k < per_conn; ++k) send(c, i++, tracer::now_ns(), r, false);
    while (tracer::now_ns() < deadline) {
      wait_readable(10'000'000);
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (!ready_[c]) continue;
        const auto n = drain(c, r, deadline);
        for (std::size_t k = 0; k < n; ++k) {
          const auto now = tracer::now_ns();
          if (now < deadline) send(c, i++, now, r, false);
        }
      }
    }
    finish(r, deadline);
    return r;
  }

  /// Open loop: Poisson arrivals at rate_qps for duration_s; latency
  /// counts from each request's due time.
  phase_result open(std::uint64_t base, double rate_qps, double duration_s,
                    std::uint64_t seed) {
    phase_result r;
    r.duration_s = duration_s;
    util::rng gaps{seed};
    r.start_ns = tracer::now_ns();
    const auto deadline = r.start_ns + static_cast<std::int64_t>(duration_s * 1e9);
    double due_s = gaps.exponential(1.0 / rate_qps);
    std::uint64_t i = base;
    while (true) {
      const auto due = r.start_ns + static_cast<std::int64_t>(due_s * 1e9);
      if (due >= deadline) break;
      const auto now = tracer::now_ns();
      if (now >= due) {
        send(i % kConnections, i, due, r, true);
        ++i;
        due_s += gaps.exponential(1.0 / rate_qps);
        wait_readable(0);
      } else {
        wait_readable(due - now);
      }
      for (std::size_t c = 0; c < kConnections; ++c)
        if (ready_[c]) drain(c, r, deadline);
    }
    finish(r, deadline);
    return r;
  }

  /// Sequential ping ops: the full client -> acceptor -> worker -> client
  /// path with no query execution.  Returns round trips in microseconds.
  std::vector<double> ping(std::size_t n) {
    std::vector<double> us;
    us.reserve(n);
    portal::request req;
    req.op = portal::op_code::ping;
    for (std::size_t k = 0; k < n; ++k) {
      req.id = static_cast<std::uint32_t>(k);
      const auto t0 = clock_type::now();
      const auto resp = conns_[0]->call(req);
      us.push_back(ms_between(t0, clock_type::now()) * 1e3);
      if (resp.status != portal::portal_errc::ok) throw std::runtime_error("ping failed");
    }
    return us;
  }

  portal::client& first() { return *conns_[0]; }

 private:
  struct in_flight {
    std::int64_t start_ns = 0;  ///< due time (open) or send time (closed)
    std::int64_t root = -1;     ///< request span, when traced
    std::int64_t wait = -1;
  };

  void send(std::size_t c, std::uint64_t i, std::int64_t due_ns, phase_result& r,
            bool open_loop) {
    const auto req = wl_.nth(i);
    const bool traced = tr_.on() && i % kTraceEvery == 0;
    in_flight f;
    f.start_ns = due_ns;
    const auto send_start = tracer::now_ns();
    if (open_loop) r.late_ms.push_back(static_cast<double>(send_start - due_ns) / 1e6);
    conns_[c]->send(req);
    const auto send_end = tracer::now_ns();
    if (traced) {
      f.root = tr_.open("portal.request", i, -1, due_ns);
      if (open_loop) tr_.add("bench.late", i, f.root, due_ns, send_start);
      tr_.add("client.send", i, f.root, send_start, send_end);
      f.wait = tr_.open("portal.wait", i, f.root, send_end);
    }
    pending_[req.id] = f;
    ++r.sent;
  }

  void wait_readable(std::int64_t timeout_ns) {
    pollfd fds[kConnections];
    for (std::size_t c = 0; c < kConnections; ++c) fds[c] = {conns_[c]->fd(), POLLIN, 0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    const int n = ::ppoll(fds, kConnections, &ts, nullptr);
    for (std::size_t c = 0; c < kConnections; ++c)
      ready_[c] = n > 0 && (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) != 0;
  }

  /// Consumes every response buffered on connection c; returns how many.
  std::size_t drain(std::size_t c, phase_result& r, std::int64_t deadline) {
    std::size_t n = 0;
    while (auto resp = conns_[c]->try_receive()) {
      account(*resp, r, deadline);
      ++n;
    }
    return n;
  }

  void account(const portal::response& resp, phase_result& r, std::int64_t deadline) {
    const auto now = tracer::now_ns();
    const auto it = pending_.find(resp.id);
    if (it == pending_.end()) return;
    const auto f = it->second;
    pending_.erase(it);
    tr_.close(f.wait, now);
    tr_.close(f.root, now);
    r.latency_ms.push_back(static_cast<double>(now - f.start_ns) / 1e6);
    if (resp.status == portal::portal_errc::ok) {
      ++r.ok;
      if (now < deadline) ++r.ok_in_window;
    } else if (resp.status == portal::portal_errc::overloaded) {
      ++r.shed;
    } else {
      ++r.errors;
    }
  }

  /// Waits (bounded) for every request still in flight.
  void finish(phase_result& r, std::int64_t deadline) {
    const auto give_up = tracer::now_ns() + 5'000'000'000LL;
    while (!pending_.empty() && tracer::now_ns() < give_up) {
      wait_readable(50'000'000);
      for (std::size_t c = 0; c < kConnections; ++c)
        if (ready_[c]) drain(c, r, deadline);
    }
    r.unanswered += pending_.size();
    pending_.clear();
  }

  const portal::workload& wl_;
  tracer& tr_;
  std::vector<std::unique_ptr<portal::client>> conns_;
  bool ready_[kConnections] = {};
  std::unordered_map<std::uint32_t, in_flight> pending_;
};

std::unordered_map<std::string, std::uint64_t> server_counters(portal::client& c) {
  portal::request req;
  req.op = portal::op_code::stats;
  req.id = 0xfffffff0u;
  const auto resp = c.call(req);
  std::unordered_map<std::string, std::uint64_t> out;
  for (const auto& g : resp.groups) out.emplace(g.key, g.count);
  return out;
}

// ---------------------------------------------------------------------------
// Set-up

/// One set-up's state.  Members are destroyed in reverse order: the
/// generator's connections close, then the server stops, before the
/// catalog it serves goes away.
struct served {
  std::unique_ptr<study_output> study;
  std::vector<infer::pipeline_result> extra;  ///< pipeline runs under other seeds
  std::unique_ptr<serve::shared_catalog> cat;
  std::unique_ptr<portal::server> srv;
  std::unique_ptr<portal::workload> wl;
  std::unique_ptr<generator> gen;

  /// Epoch k's pipeline result: the study's own, then the two others, in turn.
  [[nodiscard]] const infer::pipeline_result& epoch_source(std::size_t k) const {
    return k % 3 == 0 ? study->result : extra[k % 3 - 1];
  }
};

struct timings {
  std::vector<double> study_s;
  std::vector<double> publish_ms;
  std::vector<double> append_ms;
  std::mutex mu;  ///< the churn writer appends from its own thread

  void add(std::vector<double>& v, double x) {
    const std::lock_guard lock{mu};
    v.push_back(x);
  }
};

/// Publishes pipeline result `pr` as epoch `label` and appends it to the
/// store file; both timed.
void publish(served& s, const infer::pipeline_result& pr, const std::string& label,
             tracer& tr, std::uint64_t group, timings& t) {
  const auto& sc = *s.study->scenario;
  const auto a = tracer::now_ns();
  s.cat->ingest(sc.w, sc.view, pr, label);
  const auto b = tracer::now_ns();
  const auto snap = s.cat->snapshot();
  snap->append_epoch(s.study->store_path,
                     static_cast<serve::epoch_id>(snap->epoch_count() - 1));
  const auto c = tracer::now_ns();
  if (tr.on()) {
    tr.add("shared_catalog.publish", group, -1, a, b);
    tr.add("store.append", group, -1, b, c);
  }
  t.add(t.publish_ms, static_cast<double>(b - a) / 1e6);
  t.add(t.append_ms, static_cast<double>(c - b) / 1e6);
}

std::unique_ptr<served> set_up(const workload_spec& spec, const run_options& opt,
                               const eval::scenario_config& cfg, tracer& tr, int rep,
                               timings& t) {
  auto holder = std::make_unique<served>();
  auto& s = *holder;
  s.study = std::make_unique<study_output>(
      run_study(cfg, opt.work_dir + "/store.opwatc", tr, static_cast<std::uint64_t>(rep)));
  if (!spec.study_rounds) {
    t.add(t.study_s, s.study->seconds);
  }
  {
    const scoped_span sp{tr, "infer.epochs", static_cast<std::uint64_t>(rep)};
    for (std::uint64_t k = 1; k <= 2; ++k) {
      auto pcfg = cfg.pipeline;
      pcfg.seed = cfg.pipeline.seed + k;
      s.extra.push_back(s.study->scenario->run_inference(pcfg));
    }
  }
  s.cat = std::make_unique<serve::shared_catalog>();
  {
    const auto& sc = *s.study->scenario;
    const scoped_span sp{tr, "shared_catalog.publish", static_cast<std::uint64_t>(rep)};
    const auto t0 = clock_type::now();
    s.cat->ingest(sc.w, sc.view, s.study->result, std::string{k_study_epoch});
    t.add(t.publish_ms, ms_between(t0, clock_type::now()));
  }
  for (std::size_t k = 1; k < 3; ++k)
    publish(s, s.epoch_source(k), "epoch-" + std::to_string(k), tr,
            static_cast<std::uint64_t>(rep), t);

  {
    const scoped_span sp{tr, "server.start", static_cast<std::uint64_t>(rep)};
    portal::server_config scfg;
    scfg.workers = 2;
    s.srv = std::make_unique<portal::server>(*s.cat, scfg);
    s.srv->start();
  }
  portal::workload_config wcfg;
  wcfg.seed = opt.seed;
  wcfg.limit = 50;
  if (spec.cached_mix) {
    wcfg.member_weight = 0.0;
    wcfg.rtt_band_weight = 0.0;
  }
  s.wl = std::make_unique<portal::workload>(*s.cat->snapshot(), wcfg);
  s.gen = std::make_unique<generator>(s.srv->port(), *s.wl, tr);
  {
    const scoped_span sp{tr, "server.warm", static_cast<std::uint64_t>(rep)};
    // Warm-up: a closed loop over a fixed request count (the cached mix's
    // key set is well under the server's 8,192-entry result cache).
    std::uint64_t done = 0;
    while (done < spec.warm_requests) done += s.gen->closed(kWarmBase + done, 0.05).sent;
  }
  return holder;
}

// ---------------------------------------------------------------------------
// Churn writer: a new epoch every kChurnPeriodS, on a fixed schedule.

class churn_writer {
 public:
  churn_writer(served& s, tracer& tr, timings& t)
      : thread_([this, &s, &tr, &t](std::stop_token st) { loop(st, s, tr, t); }) {}
  churn_writer(const churn_writer&) = delete;
  churn_writer& operator=(const churn_writer&) = delete;

  /// Stops and joins the writer; returns the number of publishes.
  std::uint64_t stop() {
    thread_.request_stop();
    if (thread_.joinable()) thread_.join();
    return publishes_;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void loop(const std::stop_token& st, served& s, tracer& tr, timings& t) {
    try {
      const auto t0 = clock_type::now();
      std::mutex mu;
      std::condition_variable_any cv;
      for (std::uint64_t n = 1;; ++n) {
        const auto due = t0 + std::chrono::duration_cast<clock_type::duration>(
                                  std::chrono::duration<double>(kChurnPeriodS * n));
        std::unique_lock lock{mu};
        if (cv.wait_until(lock, st, due, [] { return false; }) || st.stop_requested()) return;
        lock.unlock();
        publish(s, s.epoch_source(n), "churn-" + std::to_string(n), tr, 1000 + n, t);
        ++publishes_;
      }
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  std::uint64_t publishes_ = 0;
  std::string error_;
  std::jthread thread_;  // last: starts after the fields it uses exist
};

// ---------------------------------------------------------------------------
// Metrics

void self_time_metrics(const tracer& tr, metric_set& m, std::vector<std::string>& errors) {
  const auto find = [](const std::vector<self_time>& st,
                       std::string_view n) -> const self_time* {
    for (const auto& s : st)
      if (s.name == n) return &s;
    return nullptr;
  };
  // Study: self time per layer (span-name prefix before the first '.'),
  // averaged over the traced studies.
  const auto st = tr.self_times("study");
  if (const auto* root = find(st, "study"); root && root->spans > 0) {
    const double n = static_cast<double>(root->spans);
    for (const std::string_view layer :
         {"world", "db", "measure", "eval", "infer", "serve", "store"}) {
      double self = 0.0;
      for (const auto& s : st)
        if (s.name.starts_with(std::string{layer} + ".")) self += s.self_ms;
      m.set("self.study." + std::string{layer} + "_ms", self / n, "ms");
    }
    m.set("self.study.unattributed_ms", root->self_ms / n, "ms");
    const double coverage = 1.0 - root->self_ms / root->total_ms;
    m.set("trace.study_coverage", coverage, "ratio");
    if (coverage < 0.9)
      errors.push_back("trace: layer self times cover only " + format_number(coverage) +
                       " of study_s");
  }
  const auto rt = tr.self_times("portal.request");
  if (const auto* root = find(rt, "portal.request"); root && root->spans > 0) {
    const double n = static_cast<double>(root->spans);
    const auto self_us = [&](std::string_view name) {
      const auto* s = find(rt, name);
      return s ? s->self_ms * 1e3 / n : 0.0;
    };
    m.set("self.request.late_us", self_us("bench.late"), "us");
    m.set("self.request.send_us", self_us("client.send"), "us");
    m.set("self.request.wait_us", self_us("portal.wait"), "us");
    m.set("self.request.unattributed_us", self_us("portal.request"), "us");
  }
}

/// The replay sample: the first kReplaySample requests of the run's
/// closed-loop stream, plus, for each op the run's mix lacks, requests of
/// that op from the default mix under the same seed.
std::vector<portal::request> replay_sample(const served& s, const serve::catalog& snap,
                                           std::uint64_t seed) {
  std::vector<portal::request> out;
  std::size_t per_op[4] = {};
  for (std::uint64_t k = 0; k < kReplaySample; ++k) {
    out.push_back(s.wl->nth(kClosedBase + k));
    ++per_op[op_index(out.back().op)];
  }
  portal::workload_config dcfg;
  dcfg.seed = seed;
  dcfg.limit = s.wl->config().limit;
  const portal::workload def{snap, dcfg};
  std::size_t added[4] = {};
  for (std::uint64_t k = 0; k < 16 * kReplaySample; ++k) {
    auto req = def.nth(kClosedBase + k);
    const int op = op_index(req.op);
    if (per_op[op] > 0 || added[op] >= kReplaySample / 4) continue;
    ++added[op];
    out.push_back(std::move(req));
  }
  return out;
}

/// Replays the sample directly against the served snapshot: per-op
/// execution and protocol costs, plus scan accounting.
void replay_metrics(const served& s, std::uint64_t seed, metric_set& m) {
  const auto snap = s.cat->snapshot();
  std::vector<double> exec_us[4], enc_us[4], dec_us[4], bytes[4];
  double scanned = 0, returned = 0, skipped_blocks = 0, total_blocks = 0;
  for (const auto& req : replay_sample(s, *snap, seed)) {
    const int op = op_index(req.op);
    serve::exec::stats st;
    const auto t0 = clock_type::now();
    const auto resp = direct_answer(*snap, req, &st);
    const auto t1 = clock_type::now();
    exec_us[op].push_back(ms_between(t0, t1) * 1e3);

    constexpr int kReps = 8;
    std::string frame;
    const auto e0 = clock_type::now();
    for (int rep = 0; rep < kReps; ++rep) frame = portal::encode_response(resp);
    const auto e1 = clock_type::now();
    const std::string_view payload{frame.data() + portal::k_frame_prefix_bytes,
                                   frame.size() - portal::k_frame_prefix_bytes};
    std::size_t sink = 0;
    for (int rep = 0; rep < kReps; ++rep) sink += portal::decode_response(payload).total;
    const auto e2 = clock_type::now();
    if (sink != resp.total * kReps) throw std::runtime_error("replay: decode mismatch");
    enc_us[op].push_back(ms_between(e0, e1) * 1e3 / kReps);
    dec_us[op].push_back(ms_between(e1, e2) * 1e3 / kReps);
    bytes[op].push_back(static_cast<double>(frame.size()));

    if (req.op == portal::op_code::member || req.op == portal::op_code::rtt_band) {
      scanned += static_cast<double>(st.rows_scanned);
      returned += static_cast<double>(resp.total);
    }
    if (req.op != portal::op_code::diff) {
      const auto& ep = snap->of(resp.epoch);
      const double executions =
          static_cast<double>(st.rows_scanned + st.rows_skipped) /
          static_cast<double>(std::max<std::size_t>(ep.rows(), 1));
      skipped_blocks += static_cast<double>(st.blocks_skipped);
      total_blocks += executions * static_cast<double>(ep.blocks().size());
    }
  }
  for (int op = 0; op < 4; ++op) {
    const std::string name{kOps[op]};
    m.set("exec." + name + "_us.p50", quantile(exec_us[op], 0.5), "us");
    m.set("exec." + name + "_us.p99", quantile(exec_us[op], 0.99), "us");
    m.set("protocol.encode_us." + name, median(enc_us[op]), "us");
    m.set("protocol.decode_us." + name, median(dec_us[op]), "us");
    m.set("protocol.response_bytes." + name, median(bytes[op]), "bytes");
  }
  m.set("exec.rows_scanned_per_row_returned", returned > 0 ? scanned / returned : 0.0,
        "ratio");
  m.set("exec.blocks_skipped_ratio", total_blocks > 0 ? skipped_blocks / total_blocks : 0.0,
        "ratio");

  // Snapshot acquisition, timed in blocks of 1,000 calls.
  std::vector<double> ns;
  for (int b = 0; b < 50; ++b) {
    const auto t0 = clock_type::now();
    std::size_t sink = 0;
    for (int k = 0; k < 1000; ++k) sink += s.cat->snapshot()->epoch_count();
    const auto t1 = clock_type::now();
    if (sink == 0) throw std::runtime_error("replay: empty catalog");
    ns.push_back(ms_between(t0, t1) * 1e6 / 1000.0);
  }
  m.set("shared_catalog.snapshot_ns", median(ns), "ns");
}

void study_layer_metrics(const tracer& tr, const study_output& last,
                         const eval::metrics& scored, metric_set& m) {
  m.set("eval.acc", scored.acc, "ratio");
  m.set("eval.cov", scored.cov, "ratio");
  const auto med = [&](std::string_view span) { return median(tr.group_sums_ms(span)); };
  for (const std::string_view n :
       {"world.generate", "db.snapshots", "db.merge", "db.ip2as", "measure.vantage",
        "measure.campaign", "eval.scope", "serve.ingest", "store.save", "store.load"})
    m.set(std::string{n} + "_ms", med(n), "ms");
  for (const auto step : k_steps)
    m.set("infer." + std::string{step} + "_ms", med("infer." + std::string{step}), "ms");

  const auto& sc = *last.scenario;
  double hops = 0;
  for (const auto& t : sc.traces) hops += static_cast<double>(t.hops.size());
  m.set("measure.traces", static_cast<double>(sc.traces.size()), "count");
  m.set("measure.hops", hops, "count");
  double decided = 0;
  for (const auto step : k_decision_steps) {
    const auto* t = last.result.trace_for(step);
    const double d = t ? static_cast<double>(t->decided_local + t->decided_remote) : 0.0;
    decided += d;
    m.set("infer." + std::string{step} + ".decided", d, "count");
  }
  double scope_ifaces = 0;
  for (const auto x : sc.scope) scope_ifaces += static_cast<double>(sc.ixp_size(x));
  m.set("infer.scope_ifaces", scope_ifaces, "count");
  m.set("infer.coverage", scope_ifaces > 0 ? decided / scope_ifaces : 0.0, "ratio");
  m.set("traix.crossings", static_cast<double>(last.result.paths.crossings.size()), "count");
  const double rows = static_cast<double>(last.loaded.at(0).rows());
  m.set("store.rows", rows, "count");
  m.set("store.bytes", static_cast<double>(last.store_bytes), "bytes");
  m.set("store.bytes_per_row", static_cast<double>(last.store_bytes) / rows, "bytes");
}

}  // namespace

run_result run_workload(const run_options& opt, tracer& tr) {
  const workload_spec* spec = nullptr;
  for (const auto& w : kWorkloads)
    if (w.name == opt.workload) spec = &w;
  if (!spec) throw std::invalid_argument("unknown workload: " + opt.workload);

  run_result res;
  auto& m = res.layers;
  // Portal workloads serve the scale's default world and take their
  // request stream from the seed; `study` builds a different world from
  // the seed in every round, so its median covers eight worlds.
  const auto cfg = study_config(
      opt.sc, spec->study_rounds ? std::optional<std::uint64_t>{opt.seed * 100} : std::nullopt);
  timings t;

  // Set-up, kSetups times; the last one serves.
  std::unique_ptr<served> holder;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    holder.reset();
    tr.set_on(opt.trace && rep % 2 == 0);  // trace mode: every other set-up untraced
    const auto t0 = clock_type::now();
    holder = set_up(*spec, opt, cfg, tr, rep, t);
    setup_s.push_back(seconds_between(t0, clock_type::now()));
  }
  served& s = *holder;
  tr.set_on(opt.trace);
  res.e2e.set("setup_s", median(setup_s), "s");

  // Timed window.  `study` first runs kRounds studies, each on a world of
  // its own; then every workload serves kRounds rounds, each a closed-loop
  // phase and the two open-loop phases.  Every serving figure is the
  // median over rounds, so a stretch of host noise spoils a round, not a
  // metric.
  std::vector<double> traced_study_s, untraced_study_s;
  std::unique_ptr<study_output> last_study;
  std::uint64_t sent = 0, failed = 0, studies = 0, low_samples = 0, high_samples = 0;
  auto& gen = *s.gen;
  if (spec->study_rounds) {
    for (std::uint64_t k = 0; k < kRounds; ++k) {
      const bool traced = opt.trace && k % 2 == 0;
      tr.set_on(traced);
      last_study.reset();
      last_study = std::make_unique<study_output>(run_study(
          study_config(opt.sc, opt.seed * 100 + 1 + k), opt.work_dir + "/phase.opwatc", tr,
          100 + k));
      t.add(t.study_s, last_study->seconds);
      (traced ? traced_study_s : untraced_study_s).push_back(last_study->seconds);
      ++studies;
    }
    tr.set_on(opt.trace);
    // The studies leave the caches cold; re-warm before measuring serving.
    sent += gen.closed(kWarmBase + kRoundStride, 0.2).sent;
  }

  const double phase_s = opt.seconds * spec->serve_share / kRounds / 3.0;
  const auto before = server_counters(gen.first());
  const auto cpu0 = process_cpu();
  std::optional<churn_writer> writer;
  if (spec->writer) writer.emplace(s, tr, t);

  std::vector<double> cpu_us_per_req;
  std::vector<double> capacity_traced, capacity_untraced, p50_low, p99_low, p50_high, p99_high,
      goodput, late_ms;
  for (int round = 0; round < kRounds; ++round) {
    const auto r = static_cast<std::uint64_t>(round);
    // Trace mode: closed-loop phases alternate untraced / traced, for the
    // tracing-overhead figure.
    tr.set_on(opt.trace && round % 2 == 1);
    const auto c0 = process_cpu();
    const auto closed = gen.closed(kClosedBase + r * kRoundStride, phase_s);
    const auto c1 = process_cpu();
    cpu_us_per_req.push_back((c1.user_ms + c1.sys_ms - c0.user_ms - c0.sys_ms) * 1e3 /
                             static_cast<double>(closed.sent));
    tr.set_on(opt.trace);
    const auto low = gen.open(kLowBase + r * kRoundStride, spec->low_qps, phase_s,
                              opt.seed * 1000 + r * 2);
    const auto high = gen.open(kHighBase + r * kRoundStride, spec->high_qps, phase_s,
                               opt.seed * 1000 + r * 2 + 1);
    (opt.trace && round % 2 == 1 ? capacity_traced : capacity_untraced)
        .push_back(static_cast<double>(closed.ok + closed.failed()) / closed.duration_s);
    p50_low.push_back(quantile(low.latency_ms, 0.5));
    p99_low.push_back(quantile(low.latency_ms, 0.99));
    p50_high.push_back(quantile(high.latency_ms, 0.5));
    p99_high.push_back(quantile(high.latency_ms, 0.99));
    goodput.push_back(static_cast<double>(high.ok_in_window) / high.duration_s);
    late_ms.insert(late_ms.end(), low.late_ms.begin(), low.late_ms.end());
    late_ms.insert(late_ms.end(), high.late_ms.begin(), high.late_ms.end());
    low_samples += low.latency_ms.size();
    high_samples += high.latency_ms.size();
    sent += closed.sent + low.sent + high.sent;
    failed += closed.failed() + low.failed() + high.failed();
  }
  tr.set_on(opt.trace);

  std::uint64_t publishes = 0;
  if (writer) {
    publishes = writer->stop();
    if (!writer->error().empty()) res.errors.push_back("churn writer: " + writer->error());
  }
  const auto cpu1 = process_cpu();
  const auto after = server_counters(gen.first());
  res.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");

  res.e2e.set("study_s", median(t.study_s), "s");
  res.e2e.set("capacity_qps", median(capacity_untraced), "1/s");
  res.e2e.set("p50_ms.low", median(p50_low), "ms");
  res.e2e.set("p50_ms.high", median(p50_high), "ms");
  res.e2e.set("goodput_qps.high", median(goodput), "1/s");
  res.e2e.set("cpu_us_per_req", median(cpu_us_per_req), "us");
  res.attempted = sent + studies + static_cast<std::uint64_t>(kSetups);
  res.failed = failed;

  // Correctness: a fixed request sample through the server equals the
  // direct answers on the same (now quiescent) snapshot.
  {
    const auto snap = s.cat->snapshot();
    std::size_t mismatches = 0;
    for (std::uint64_t k = 0; k < kCorrectnessSample; ++k) {
      const auto req = s.wl->nth(kSampleBase + k);
      const auto got = gen.first().call(req);
      const auto want = direct_answer(*snap, req, nullptr);
      if (canonical_bytes(got) != canonical_bytes(want)) ++mismatches;
    }
    if (mismatches > 0)
      res.errors.push_back("portal: " + std::to_string(mismatches) + " of " +
                           std::to_string(kCorrectnessSample) +
                           " sampled responses differ from the direct answers");
  }
  // The served store file, built by save + append_epoch, equals a full
  // save of the served catalog.
  {
    const std::string full = opt.work_dir + "/full.opwatc";
    s.cat->save(full);
    if (read_file(full) != read_file(s.study->store_path))
      res.errors.push_back("store: save + append_epoch differs from a full save");
    std::filesystem::remove(full);
  }
  eval::metrics scored;
  check_accuracy(*s.study, opt.sc == scale::paper, scored, res.errors);
  if (last_study) check_study(last_study->scenario->cfg, *last_study, opt.work_dir, res.errors);

  if (opt.trace) {
    // The tail percentiles follow single stalls (a churn publish, a heavy
    // group_by) on the one CPU, so they carry no bound (README.md).
    m.set("p99_ms.low", median(p99_low), "ms");
    m.set("p99_ms.high", median(p99_high), "ms");
    const auto delta = [&](const char* k) {
      return static_cast<double>(after.at(k) - before.at(k));
    };
    const double hits = delta("cache_hits"), misses = delta("cache_misses");
    m.set("server.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    m.set("server.admitted", delta("requests_admitted"), "count");
    m.set("server.shed", delta("shed_queue_full") + delta("shed_pipeline"), "count");
    m.set("server.protocol_errors", delta("protocol_errors"), "count");
    m.set("error_rate", sent > 0 ? static_cast<double>(failed) / static_cast<double>(sent) : 0.0,
          "ratio");
    const double kreq = static_cast<double>(sent) / 1000.0;
    m.set("os.user_ms_per_kreq", (cpu1.user_ms - cpu0.user_ms) / kreq, "ms");
    m.set("os.sys_ms_per_kreq", (cpu1.sys_ms - cpu0.sys_ms) / kreq, "ms");
    m.set("net.ping_rtt_us", median(gen.ping(2000)), "us");
    m.set("bench.late_ms.p99", quantile(late_ms, 0.99), "ms");
    m.set("bench.samples.low", static_cast<double>(low_samples), "count");
    m.set("bench.samples.high", static_cast<double>(high_samples), "count");
    m.set("shared_catalog.publish_ms", median(t.publish_ms), "ms");
    m.set("store.append_ms", median(t.append_ms), "ms");
    m.set("churn.publishes", static_cast<double>(publishes), "count");
    replay_metrics(s, opt.seed, m);
    study_layer_metrics(tr, *s.study, scored, m);
    self_time_metrics(tr, m, res.errors);

    // Tracing overhead: traced against untraced halves of the same run.
    const double cap_off = median(capacity_untraced), cap_on = median(capacity_traced);
    m.set("trace.overhead_capacity_pct", cap_off > 0 ? (cap_off - cap_on) / cap_off * 100 : 0.0,
          "%");
    std::vector<double> on = traced_study_s, off = untraced_study_s;
    if (on.empty() || off.empty()) {
      // Portal workloads: the set-up studies alternate traced / untraced.
      on = {t.study_s[0], t.study_s[2]};
      off = {t.study_s[1]};
    }
    m.set("trace.overhead_study_pct", (median(on) - median(off)) / median(off) * 100, "%");
    m.set("trace.spans", static_cast<double>(tr.size()), "count");
    m.set("trace.dropped", static_cast<double>(tr.dropped()), "count");
  }
  return res;
}

}  // namespace opwat_bench
