#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "bench.hpp"
#include "opwat/eval/metrics.hpp"
#include "opwat/infer/engine.hpp"
#include "opwat/infer/step.hpp"

namespace opwat_bench {

using namespace opwat;

namespace {

/// Lower edges of the accuracy / coverage band (README.md, "Correctness").
constexpr double kAccFloor = 0.93;
constexpr double kCovFloor = 0.75;

/// FNV-1a over 64-bit words.
class digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) noexcept {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Forwards every call to a registry step and records a span around
/// run().  The engine sees the wrapped step's name, kind, granularity
/// and data dependencies unchanged.
class timed_step final : public infer::inference_step {
 public:
  timed_step(std::shared_ptr<infer::inference_step> inner, tracer& tr,
             std::uint64_t group, std::int64_t parent)
      : inner_(std::move(inner)),
        span_name_("infer." + std::string{inner_->name()}),
        tr_(tr),
        group_(group),
        parent_(parent) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] infer::step_kind kind() const noexcept override { return inner_->kind(); }
  [[nodiscard]] infer::step_granularity granularity() const noexcept override {
    return inner_->granularity();
  }
  [[nodiscard]] std::vector<std::string_view> inputs() const override {
    return inner_->inputs();
  }
  [[nodiscard]] std::vector<std::string_view> outputs() const override {
    return inner_->outputs();
  }
  [[nodiscard]] std::string_view paper_section() const noexcept override {
    return inner_->paper_section();
  }

  void run(infer::step_context& ctx) override {
    const scoped_span s{tr_, span_name_, group_, parent_};
    inner_->run(ctx);
  }

 private:
  std::shared_ptr<infer::inference_step> inner_;
  std::string span_name_;
  tracer& tr_;
  std::uint64_t group_;
  std::int64_t parent_;
};

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{f}, std::istreambuf_iterator<char>{}};
}

eval::scenario_config study_config(scale sc, std::optional<std::uint64_t> world_seed) {
  auto cfg = sc == scale::tiny ? eval::small_scenario_config() : eval::default_scenario_config();
  if (world_seed) cfg.world.seed = *world_seed;
  return cfg;
}

std::uint64_t corpus_digest(const std::vector<measure::trace>& traces) {
  digest d;
  d.add(static_cast<std::uint64_t>(traces.size()));
  for (const auto& t : traces) {
    d.add(static_cast<std::uint64_t>(t.src_as));
    d.add(static_cast<std::uint64_t>(t.dst.value()));
    d.add(static_cast<std::uint64_t>(t.reached));
    d.add(static_cast<std::uint64_t>(t.hops.size()));
    for (const auto& h : t.hops) {
      d.add(static_cast<std::uint64_t>(h.ip.value()));
      d.add(h.rtt_ms);
      d.add(static_cast<std::uint64_t>(h.star));
    }
  }
  return d.value();
}

std::uint64_t result_digest(const infer::pipeline_result& pr) {
  digest d;
  for (const auto x : pr.scope) d.add(static_cast<std::uint64_t>(x));
  for (const auto& [k, inf] : pr.inferences.items()) {
    d.add(static_cast<std::uint64_t>(k.ixp));
    d.add(static_cast<std::uint64_t>(k.ip.value()));
    d.add(static_cast<std::uint64_t>(inf.cls));
    d.add(static_cast<std::uint64_t>(inf.step));
    d.add(inf.rtt_min_ms);
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(inf.feasible_ixp_facilities)));
  }
  for (const auto& c : pr.paths.crossings) {
    d.add(static_cast<std::uint64_t>(c.ixp));
    d.add(static_cast<std::uint64_t>(c.near_as.value));
    d.add(static_cast<std::uint64_t>(c.far_as.value));
    d.add(static_cast<std::uint64_t>(c.near_ip.value()));
    d.add(static_cast<std::uint64_t>(c.ixp_ip.value()));
    d.add(c.rtt_to_ixp_ip_ms);
    d.add(c.rtt_to_near_ip_ms);
  }
  for (const auto& a : pr.paths.adjacencies) {
    d.add(static_cast<std::uint64_t>(a.member_ip.value()));
    d.add(static_cast<std::uint64_t>(a.member_as.value));
    d.add(static_cast<std::uint64_t>(a.ixp));
  }
  for (const auto& p : pr.paths.private_links) {
    d.add(static_cast<std::uint64_t>(p.ip_a.value()));
    d.add(static_cast<std::uint64_t>(p.ip_b.value()));
  }
  for (const auto& [k, obs] : pr.rtt.observations) {
    d.add(static_cast<std::uint64_t>(k.ip.value()));
    d.add(static_cast<std::uint64_t>(obs.size()));
  }
  for (const auto& t : pr.trace) {
    d.add(t.step);
    d.add(static_cast<std::uint64_t>(t.invocations));
    d.add(static_cast<std::uint64_t>(t.decided_local));
    d.add(static_cast<std::uint64_t>(t.decided_remote));
  }
  return d.value();
}

study_output run_study(const eval::scenario_config& cfg, const std::string& store_path,
                       tracer& tr, std::uint64_t group) {
  study_output out;
  out.store_path = store_path;
  const auto t0 = clock_type::now();
  {
    const scoped_span root{tr, "study", group};
    const auto p = root.index();

    // The scenario, layer by layer: the calls eval::scenario::build makes,
    // in its order (check_study pins the equivalence).
    out.scenario = std::make_unique<eval::scenario>();
    auto& s = *out.scenario;
    s.cfg = cfg;
    {
      const scoped_span sp{tr, "world.generate", group, p};
      s.w = world::generate(cfg.world);
    }
    std::vector<db::snapshot> snapshots;
    {
      const scoped_span sp{tr, "db.snapshots", group, p};
      snapshots = db::make_standard_snapshots(s.w, cfg.db_seed);
    }
    {
      const scoped_span sp{tr, "db.merge", group, p};
      s.view = db::merged_view::build(snapshots);
      snapshots.clear();
    }
    {
      const scoped_span sp{tr, "db.ip2as", group, p};
      s.prefix2as = db::ip2as::build(s.w);
    }
    {
      const scoped_span sp{tr, "measure.vantage", group, p};
      s.lat = measure::latency_model{cfg.latency_seed};
      s.vps = measure::make_vantage_points(s.w, cfg.vps, util::rng{cfg.vp_seed});
    }
    {
      const scoped_span sp{tr, "measure.campaign", group, p};
      const measure::traceroute_engine engine{s.w, s.lat, cfg.traceroute};
      util::rng r{cfg.trace_seed};
      auto sources = engine.connected_ases();
      r.shuffle(sources);
      if (sources.size() > cfg.traceroute_sources) sources.resize(cfg.traceroute_sources);
      s.traces = engine.campaign(sources, cfg.targets_per_source, r);
    }
    {
      const scoped_span sp{tr, "eval.scope", group, p};
      std::vector<world::ixp_id> with_vp;
      for (const auto& x : s.w.ixps) {
        const bool has_vp = std::any_of(s.vps.begin(), s.vps.end(), [&](const auto& vp) {
          return vp.ixp == x.id && vp.alive;
        });
        if (has_vp && !s.view.interfaces_of_ixp(x.id).empty()) with_vp.push_back(x.id);
      }
      std::sort(with_vp.begin(), with_vp.end(), [&](world::ixp_id a, world::ixp_id b) {
        return s.ixp_size(a) > s.ixp_size(b);
      });
      if (with_vp.size() > cfg.top_n_ixps) with_vp.resize(cfg.top_n_ixps);
      s.scope = std::move(with_vp);
      s.validation = eval::build_validation(s.w, cfg.validation, s.scope);
    }

    // Serial inference through wrapper steps over the registry's builtins.
    {
      const scoped_span sp{tr, "infer.engine", group, p};
      auto b = infer::engine();
      b.seed(cfg.pipeline.seed)
          .batch_size(cfg.pipeline.batch_size)
          .step2(cfg.pipeline.step2)
          .step3(cfg.pipeline.step3)
          .step5(cfg.pipeline.step5)
          .resolver(cfg.pipeline.resolver)
          .baseline(cfg.pipeline.baseline)
          .traceroute_rtt(cfg.pipeline.traceroute_rtt);
      for (const auto name : k_steps)
        b.with_step(std::make_shared<timed_step>(infer::default_registry().make(name), tr,
                                                 group, sp.index()));
      out.result = b.build().run(s.inputs());
    }

    serve::catalog cat;
    {
      const scoped_span sp{tr, "serve.ingest", group, p};
      cat.ingest(s.w, s.view, out.result, k_study_epoch);
    }
    {
      const scoped_span sp{tr, "store.save", group, p};
      cat.save(store_path);
    }
    {
      const scoped_span sp{tr, "store.load", group, p};
      out.loaded = serve::catalog::load(store_path);
    }
  }
  out.seconds = seconds_between(t0, clock_type::now());

  out.store_bytes = std::filesystem::file_size(store_path);
  out.corpus_hash = corpus_digest(out.scenario->traces);
  return out;
}

void check_study(const eval::scenario_config& cfg, const study_output& out,
                 const std::string& scratch_dir, std::vector<std::string>& errors) {
  // The decomposed build equals eval::scenario::build.
  {
    const auto ref = eval::scenario::build(cfg);
    if (corpus_digest(ref.traces) != out.corpus_hash)
      errors.push_back("study: trace corpus differs from eval::scenario::build");
    if (ref.scope != out.scenario->scope)
      errors.push_back("study: IXP scope differs from eval::scenario::build");
  }
  // The wrapped-step engine equals the default engine.
  if (result_digest(out.scenario->run_inference()) != result_digest(out.result))
    errors.push_back("study: wrapped-step pipeline_result differs from the default engine");
  // save -> load -> save is byte-identical.
  const std::string again = scratch_dir + "/resave.opwatc";
  out.loaded.save(again);
  if (read_file(again) != read_file(out.store_path))
    errors.push_back("study: save -> load -> save is not byte-identical");
  std::filesystem::remove(again);
}

void check_accuracy(const study_output& out, bool enforce, eval::metrics& scored,
                    std::vector<std::string>& errors) {
  scored = eval::compute_metrics(out.result.inferences, out.scenario->validation.test);
  if (!enforce) return;
  if (scored.acc < kAccFloor)
    errors.push_back("study: ACC " + format_number(scored.acc) + " below " +
                     format_number(kAccFloor));
  if (scored.cov < kCovFloor)
    errors.push_back("study: COV " + format_number(scored.cov) + " below " +
                     format_number(kCovFloor));
}

}  // namespace opwat_bench
