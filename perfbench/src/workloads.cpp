#include "workloads.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "flow/experiment.h"
#include "gatesim/engine.h"
#include "gatesim/faults.h"
#include "lint/checks.h"
#include "model/coverage_laws.h"
#include "model/dl_models.h"
#include "model/fit.h"
#include "model/ndetect.h"
#include "model/yield.h"
#include "netlist/bench_parser.h"
#include "parallel/parallel_for.h"
#include "service/client.h"
#include "service/json.h"
#include "service/server.h"
#include "stats.h"
#include "switchsim/switch_fault_sim.h"
#include "switchsim/switch_netlist.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace dlp;

/// The fault-sim engine every workload pins (the registry default, named
/// explicitly so DLPROJ_ENGINE can never select another).
constexpr const char* kEngine = "levelized";
/// Set-ups per run (setup_s is their median): synth_2k's parse, many times
/// so a burst of host noise cannot move a millisecond-scale median; c432's,
/// which warms the engines with a test generation; and the service's, which
/// warms a whole artifact store each time.
constexpr int kSynthSetups = 31;
constexpr int kC432Setups = 5;
constexpr int kServiceSetups = 3;

// ---------------------------------------------------------------- helpers

std::uint64_t fnv(const void* data, std::size_t n,
                  std::uint64_t h = 1469598103934665603ull) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
std::string digest(const std::vector<T>& v) {
    return campaign::hex64(fnv(v.data(), v.size() * sizeof(T)));
}

/// Bit-exact text of a double (C99 hex float).
std::string exact(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double ms(double seconds) { return seconds * 1e3; }

struct SplitMix {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/// Expected values of one op's outputs; a mismatch fails the op.
class Pins {
public:
    void expect(const char* name, const std::string& actual,
                const std::string& expected) {
        if (actual == expected) return;
        ok_ = false;
        std::fprintf(stderr, "perfbench: pin %s: expected %s, got %s\n", name,
                     expected.c_str(), actual.c_str());
    }
    bool ok() const { return ok_; }

private:
    bool ok_ = true;
};

/// Runs `fn` `count` times; returns the median wall time in seconds.
double timed_setups(int count, const std::function<void()>& fn) {
    std::vector<double> t;
    for (int i = 0; i < count; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(seconds_between(t0, Clock::now()));
    }
    return median(t);
}

/// Lazy process state every workload's first op would otherwise pay for:
/// the shared thread pool's workers and the engine registry.
void warm_process(int threads) {
    parallel::parallel_for(
        static_cast<std::size_t>(threads), 1,
        [](std::size_t, std::size_t, int) {}, threads);
    (void)sim::resolve_engine(kEngine);
}

flow::ExperimentOptions base_options(int threads) {
    flow::ExperimentOptions o;
    o.engine = kEngine;
    o.parallel.threads = threads;
    return o;
}

// ------------------------------------------- layer-by-layer stage replay
//
// A traced op replays ExperimentRunner's stages call for call through the
// layers' public functions, with a span around each call.  Its outputs go
// through the same correctness pins as the untraced op, which is what
// shows the replay computes the same thing.

struct Replay {
    netlist::Circuit mapped;
    layout::ChipLayout chip;
    switchsim::SwitchNetlist swnet;
    extract::ExtractionResult extraction;
    double yield = 1.0;
    std::vector<gatesim::StuckAtFault> stuck;
    bool analyzed = false;
    std::vector<std::uint8_t> untestable;
    analysis::AnalysisStats analysis_stats;
    atpg::TestGenResult tests;
    std::vector<double> t_curve;
    std::vector<switchsim::WeightedFault> swfaults;
    std::vector<double> theta_curve;
    std::vector<double> gamma_curve;
    std::vector<int> first_detected_at;
    model::ProposedFit fit;
};

void lint_or_throw(lint::DiagnosticEngine& engine) {
    if (!engine.ok())
        throw std::runtime_error("lint rejected the benchmark inputs");
}

void replay_prepare(const netlist::Circuit& circuit,
                    const flow::ExperimentOptions& o, Tracer& tr,
                    std::uint64_t op, Replay& r) {
    Tracer::Scope stage(tr, "flow.prepare", op);
    if (o.lint_enabled) {
        Tracer::Scope s(tr, "lint.check", op);
        lint::DiagnosticEngine circuit_lint{
            lint::SuppressionSet(o.lint.suppress)};
        lint::lint_circuit(circuit, circuit_lint, o.lint);
        lint_or_throw(circuit_lint);
        lint::DiagnosticEngine rules_lint{
            lint::SuppressionSet(o.lint.suppress)};
        lint::lint_rules(o.defects, rules_lint);
        lint_or_throw(rules_lint);
    }
    {
        Tracer::Scope s(tr, "netlist.techmap", op);
        r.mapped = netlist::techmap(circuit, o.techmap);
    }
    {
        Tracer::Scope s(tr, "layout.place_route", op);
        r.chip = layout::place_and_route(r.mapped, o.layout);
    }
    {
        Tracer::Scope s(tr, "switchsim.build_netlist", op);
        r.swnet = switchsim::build_switch_netlist(r.mapped);
    }
    Tracer::Scope s(tr, "extract.extract", op);
    r.extraction = extract::extract_faults(r.chip, o.defects, o.extract);
    if (o.target_yield > 0.0) {
        const double scale = model::yield_scale_factor(
            r.extraction.total_weight, o.target_yield);
        for (auto& f : r.extraction.faults) f.weight *= scale;
        r.extraction.total_weight *= scale;
    }
    r.yield = std::exp(-r.extraction.total_weight);
    tr.count("extract.faults", op,
             static_cast<double>(r.extraction.faults.size()));
}

void collapse(Tracer& tr, std::uint64_t op, Replay& r) {
    Tracer::Scope s(tr, "gatesim.collapse", op);
    r.stuck = gatesim::collapse_faults(
        r.mapped, gatesim::full_fault_universe(r.mapped));
}

void replay_analyze(const flow::ExperimentOptions& o, Tracer& tr,
                    std::uint64_t op, Replay& r) {
    Tracer::Scope stage(tr, "flow.analyze", op);
    collapse(tr, op, r);
    Tracer::Scope s(tr, "analysis.find_untestable", op);
    analysis::AnalysisResult a =
        analysis::find_untestable(r.mapped, r.stuck, o.analysis_options);
    r.untestable = std::move(a.untestable);
    r.analysis_stats = a.stats;
    r.analyzed = true;
    tr.count("analysis.pivots", op,
             static_cast<double>(a.stats.pivots_done));
    tr.count("analysis.untestable", op, static_cast<double>(a.stats.proofs));
}

void replay_generate_tests(const flow::ExperimentOptions& o, Tracer& tr,
                           std::uint64_t op, Replay& r) {
    Tracer::Scope stage(tr, "flow.generate_tests", op);
    if (!r.analyzed) collapse(tr, op, r);
    if (o.lint_enabled) {
        Tracer::Scope s(tr, "lint.check", op);
        lint::DiagnosticEngine engine{lint::SuppressionSet(o.lint.suppress)};
        lint::lint_faults(r.mapped, r.stuck, engine);
        lint_or_throw(engine);
    }
    atpg::TestGenOptions a = o.atpg;
    a.engine = o.engine;
    a.parallel = o.parallel;
    if (r.analyzed) a.untestable = r.untestable;
    {
        Tracer::Scope s(tr, "atpg.generate", op);
        r.tests = atpg::generate_test_set(r.mapped, r.stuck, a);
    }
    // T(k) from the detection table, as the runner computes it.
    const double testable =
        static_cast<double>(r.stuck.size() - r.tests.redundant);
    std::vector<int> hits(r.tests.vectors.size() + 1, 0);
    for (int at : r.tests.first_detected_at)
        if (at >= 1) ++hits[static_cast<std::size_t>(at)];
    r.t_curve.assign(r.tests.vectors.size(), 0.0);
    double cum = 0;
    for (std::size_t k = 1; k <= r.tests.vectors.size(); ++k) {
        cum += hits[k];
        r.t_curve[k - 1] = testable == 0.0 ? 0.0 : cum / testable;
    }
    tr.count("atpg.vectors", op, static_cast<double>(r.tests.vectors.size()));
    tr.count("atpg.aborted", op, static_cast<double>(r.tests.aborted));
}

void replay_simulate(const flow::ExperimentOptions& o, Tracer& tr,
                     std::uint64_t op, Replay& r) {
    Tracer::Scope stage(tr, "flow.simulate", op);
    const switchsim::SwitchSim sim(r.swnet, o.sim);
    r.swfaults = flow::to_switch_faults(r.extraction, r.chip, r.swnet);
    if (!o.weighted)
        for (auto& f : r.swfaults) f.weight = 1.0;
    Tracer::Scope s(tr, "switchsim.apply", op);
    const auto session = switchsim::open_switch_session(
        sim::resolve_engine(o.engine), sim, r.swfaults, o.parallel);
    session->apply(std::span<const switchsim::Vector>(r.tests.vectors),
                   support::RunBudget{});
    r.theta_curve = session->weighted_coverage_curve();
    r.gamma_curve = session->unweighted_coverage_curve();
    (void)session->weighted_coverage_curve_with_iddq();
    r.first_detected_at.assign(session->first_detected_at().begin(),
                               session->first_detected_at().end());
    tr.count("switchsim.vectors", op,
             static_cast<double>(r.tests.vectors.size()));
    tr.count("switchsim.faults", op, static_cast<double>(r.swfaults.size()));
}

/// ExperimentRunner's log-spaced curve sampling for the fits.
std::vector<std::size_t> sample_indices(std::size_t n) {
    std::vector<std::size_t> idx;
    if (n == 0) return idx;
    std::size_t k = 1;
    while (k <= n) {
        idx.push_back(k - 1);
        k += std::max<std::size_t>(1, k / 8);
    }
    if (idx.back() != n - 1) idx.push_back(n - 1);
    return idx;
}

void replay_fit(Tracer& tr, std::uint64_t op, Replay& r) {
    Tracer::Scope stage(tr, "flow.fit", op);
    const std::size_t usable = std::min(
        r.t_curve.size(), std::min(r.theta_curve.size(), r.gamma_curve.size()));
    std::vector<model::FalloutPoint> dl_vs_t;
    std::vector<model::CoveragePoint> t_pts;
    std::vector<model::CoveragePoint> th_pts;
    for (std::size_t i : sample_indices(usable)) {
        dl_vs_t.push_back(
            {r.t_curve[i], model::weighted_dl(r.yield, r.theta_curve[i])});
        t_pts.push_back({static_cast<double>(i + 1), r.t_curve[i]});
        th_pts.push_back({static_cast<double>(i + 1), r.theta_curve[i]});
    }
    Tracer::Scope s(tr, "model.fit", op);
    r.fit = model::fit_proposed_model(r.yield, dl_vs_t);
    (void)model::fit_coverage_law(t_pts, false);
    (void)model::fit_coverage_law(th_pts, true);
    std::vector<std::uint8_t> redundant(r.tests.status.size(), 0);
    for (std::size_t i = 0; i < r.tests.status.size(); ++i)
        redundant[i] = r.tests.status[i] == atpg::FaultStatus::Redundant;
    (void)model::ndetect_profile(r.tests.detection_counts, r.tests.ndetect,
                                 redundant);
}

/// The whole projection, replayed (prepare -> tests -> simulate -> fit).
void replay_projection(const netlist::Circuit& circuit,
                       const flow::ExperimentOptions& o, Tracer& tr,
                       std::uint64_t op, Replay& r) {
    replay_prepare(circuit, o, tr, op, r);
    replay_generate_tests(o, tr, op, r);
    replay_simulate(o, tr, op, r);
    replay_fit(tr, op, r);
}

// ----------------------------------------------------- metric collection

/// Per-layer figures gathered from traced ops: self seconds per span name
/// and counts, one sample per op.
struct LayerSamples {
    std::map<std::string, std::vector<double>> values;

    void add(const std::string& name, double v) { values[name].push_back(v); }
    /// Adds every span's self time and every count of one op.
    void add_op(const Tracer& tr, std::uint64_t op) {
        for (const auto& [name, s] : tr.self_seconds(op)) add(name, s);
        std::map<std::string, double> counts;
        for (const CountRecord& c : tr.counts())
            if (c.op == op) counts[c.name] += c.value;
        for (const auto& [name, v] : counts) add("#" + name, v);
    }
    double med(const std::string& name) const {
        const auto it = values.find(name);
        return it == values.end() ? 0.0 : median(it->second);
    }
};

/// Metric values by name.
using Figures = std::map<std::string, double>;

/// Per-layer metrics derived from the samples (absent layers stay 0).
void layer_figures(const LayerSamples& L, Figures& f) {
    f["netlist.techmap_s"] = L.med("netlist.techmap");
    f["layout.place_route_s"] = L.med("layout.place_route");
    f["extract.extract_s"] = L.med("extract.extract");
    f["flow.prepare_s"] = L.med("flow.prepare_total");
    f["lint.check_s"] = L.med("lint.check");
    f["analysis.analyze_s"] = L.med("analysis.find_untestable");
    f["analysis.pivots"] = L.med("#analysis.pivots");
    f["analysis.untestable"] = L.med("#analysis.untestable");
    f["atpg.generate_s"] = L.med("atpg.generate");
    f["atpg.vectors"] = L.med("#atpg.vectors");
    f["atpg.aborted"] = L.med("#atpg.aborted");
    const double sw = L.med("switchsim.apply");
    f["switchsim.simulate_s"] = sw;
    f["switchsim.vectors"] = L.med("#switchsim.vectors");
    f["switchsim.evals_per_s"] =
        sw > 0.0
            ? L.med("#switchsim.vectors") * L.med("#switchsim.faults") / sw
            : 0.0;
    f["model.fit_s"] = L.med("model.fit");
}

/// Records the whole-stage duration of flow.prepare (self time alone
/// would exclude its children) for flow.prepare_s.
void add_prepare_total(const Tracer& tr, std::uint64_t op, LayerSamples& L) {
    double total = 0.0;
    for (const Span& s : tr.spans())
        if (s.op == op && s.name == "flow.prepare") total += s.seconds();
    L.add("flow.prepare_total", total);
}

/// Prints a traced op's self times and returns their sum under its root
/// span "op".
double print_breakdown(const Tracer& tr, std::uint64_t op) {
    double stages = 0.0;
    std::fprintf(stderr, "  traced op %" PRIu64 " self times:\n", op);
    for (const auto& [name, s] : tr.self_seconds(op)) {
        std::fprintf(stderr, "    %-28s %10.4f s\n", name.c_str(), s);
        if (name != "op") stages += s;
    }
    return stages;
}

RunResult assemble(const RunConfig& cfg, const FailureCount& fails,
                   const Figures& fig) {
    RunResult res;
    res.attempted = fails.attempted();
    res.failed = fails.failed();
    res.correct = fails.correct();
    const auto& table = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
    for (const MetricSpec& m : table) {
        const auto it = fig.find(m.name);
        if (it == fig.end())
            throw std::logic_error(std::string("perfbench: metric ") + m.name +
                                   " was not measured");
        res.metrics.push_back({m.name, it->second, m.unit});
    }
    return res;
}

/// End-to-end figures from per-op latencies (seconds) over a loop that
/// ran `loop_s` seconds.  `rss_mb` is the peak RSS once set-up and the
/// first op (or the whole request loop) are done, so it does not grow
/// with how many ops fit into the window.
void e2e_figures(double setup_s, const std::vector<double>& op_s,
                 std::size_t ok_ops, double loop_s, double rss_mb,
                 Figures& f) {
    std::vector<double> lat;
    for (double s : op_s) lat.push_back(ms(s));
    const Tail tail = tail_percentile(lat);
    f["setup_s"] = setup_s;
    f["latency_ms.p50"] = median(lat);
    f["latency_ms.tail"] = tail.value;
    f["throughput_ops"] = static_cast<double>(ok_ops) / loop_s;
    f["peak_rss_mb"] = rss_mb;
    std::printf("# latency: p50 %.4f ms and p%g %.4f ms over %zu ops "
                "(%zu beyond the tail)\n",
                median(lat), tail.percentile, tail.value, tail.samples,
                tail.beyond);
}

void trace_figures(double untraced_op_s, double traced_op_s, double stages_s,
                   Figures& f) {
    f["trace.overhead_pct"] =
        100.0 * (traced_op_s - untraced_op_s) / untraced_op_s;
    f["trace.accounted_pct"] = 100.0 * stages_s / untraced_op_s;
    std::fprintf(stderr,
                 "  untraced op %.4f s, traced op %.4f s, stage self times "
                 "%.4f s\n",
                 untraced_op_s, traced_op_s, stages_s);
}

/// Per-layer and tracing figures of one replayed op, against the untraced
/// ops timed before it (`untraced_s`).
void traced_op_figures(const Tracer& tr, std::uint64_t op,
                       const std::vector<double>& untraced_s, Figures& fig) {
    LayerSamples L;
    L.add_op(tr, op);
    add_prepare_total(tr, op, L);
    layer_figures(L, fig);
    const double stages = print_breakdown(tr, op);
    const double traced = tr.root_seconds(op, "op");
    trace_figures(untraced_s.empty() ? traced : median(untraced_s), traced,
                  stages, fig);
}

/// Zeroes the per-layer metrics a workload never exercises.
void zero_missing_layers(Figures& f) {
    for (const MetricSpec& m : per_layer_metrics())
        f.emplace(m.name, 0.0);
}

/// Runs `op` back to back, at least once, starting another while it is
/// expected to end no later than half an op past the window.  `op_s`
/// collects the op times.  Returns the loop's wall time; `first_rss_mb`
/// gets the peak RSS after the first op.
double op_loop(double window, const std::function<void()>& op,
               const std::vector<double>& op_s, double& first_rss_mb) {
    const auto t0 = Clock::now();
    op();
    first_rss_mb = peak_rss_mb();
    while (!op_s.empty() &&
           seconds_between(t0, Clock::now()) + 0.5 * op_s.back() <= window)
        op();
    return seconds_between(t0, Clock::now());
}

/// The levelized engine replayed over a generated test set.
void gatesim_probe(const Replay& r, int threads, Tracer& tr,
                   std::uint64_t op, Figures& f) {
    const auto t0 = Clock::now();
    {
        Tracer::Scope s(tr, "gatesim.apply", op);
        const auto session = sim::resolve_engine(kEngine).open(
            r.mapped, r.stuck, parallel::ParallelOptions{threads});
        session->apply(std::span<const gatesim::Vector>(r.tests.vectors));
    }
    const double s = seconds_between(t0, Clock::now());
    f["gatesim.apply_s"] = s;
    f["gatesim.evals_per_s"] = static_cast<double>(r.stuck.size()) *
                               static_cast<double>(r.tests.vectors.size()) /
                               s;
}

// ------------------------------------------------------------ c432-cold

constexpr int kC432MaxRandom = 128;
constexpr std::uint64_t kC432AtpgSeed = 1;
/// Vectors of the 1-thread vs N-thread switch-level speedup probe.
constexpr std::size_t kSpeedupVectors = 8;

flow::ExperimentOptions c432_options(int threads) {
    flow::ExperimentOptions o = base_options(threads);
    o.defects = extract::DefectStatistics::cmos_bridging_dominant();
    o.atpg.seed = kC432AtpgSeed;
    o.atpg.max_random = kC432MaxRandom;
    return o;
}

void c432_pins(Pins& p, int vectors, double t, double theta, double gamma,
               const model::ProposedFit& fit, const std::vector<int>& fda) {
    p.expect("c432.vectors", std::to_string(vectors), "156");
    p.expect("c432.T", exact(t), "0x1.f5d8d6a9b320ap-1");
    p.expect("c432.theta", exact(theta), "0x1.ea6cdcbdba86p-1");
    p.expect("c432.gamma", exact(gamma), "0x1.bfc512beff145p-1");
    p.expect("c432.R", exact(fit.r), "0x1.38ff10ecd761p+0");
    p.expect("c432.theta_max", exact(fit.theta_max), "0x1.ef1c72502f651p-1");
    p.expect("c432.first_detected_at", digest(fda), "008984b6902fe99c");
}

RunResult run_c432(const RunConfig& cfg) {
    netlist::Circuit circuit;
    const flow::ExperimentOptions opts = c432_options(cfg.threads);
    const double setup_s = timed_setups(kC432Setups, [&] {
        circuit = netlist::load_bench_file(cfg.root + "/data/c432.bench");
        warm_process(cfg.threads);
        flow::ExperimentRunner warm(circuit, opts);
        (void)warm.generate_tests();
    });

    FailureCount fails;
    Figures fig;
    std::vector<double> op_s;
    const auto cold_op = [&] {
        const auto t0 = Clock::now();
        bool ok = false;
        try {
            flow::ExperimentRunner runner(circuit, opts);
            const flow::ExperimentResult& r = runner.run();
            op_s.push_back(seconds_between(t0, Clock::now()));
            Pins p;
            c432_pins(p, r.vector_count, r.t_curve.final(),
                      r.theta_curve.final(), r.gamma_curve.final(), r.fit,
                      r.first_detected_at);
            ok = p.ok() && !r.interruption;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: c432 op failed: %s\n", e.what());
        }
        fails.record(ok);
        std::fprintf(stderr, "  c432 projection %zu: %.4f s\n",
                     fails.attempted(), op_s.empty() ? 0.0 : op_s.back());
    };

    if (!cfg.trace) {
        double rss_mb = 0.0;
        const double loop_s = op_loop(cfg.seconds, cold_op, op_s, rss_mb);
        e2e_figures(setup_s, op_s, fails.attempted() - fails.failed(), loop_s,
                    rss_mb, fig);
        return assemble(cfg, fails, fig);
    }

    // Traced run: one untraced op for the reference time, then one traced
    // op replayed layer by layer, then the probes.
    cold_op();
    Tracer tr(true);
    Replay r;
    const std::uint64_t op = 1;
    {
        Tracer::Scope root(tr, "op", op);
        replay_projection(circuit, opts, tr, op, r);
    }
    Pins p;
    c432_pins(p, static_cast<int>(r.tests.vectors.size()),
              r.t_curve.empty() ? 0.0 : r.t_curve.back(),
              r.theta_curve.empty() ? 0.0 : r.theta_curve.back(),
              r.gamma_curve.empty() ? 0.0 : r.gamma_curve.back(), r.fit,
              r.first_detected_at);
    fails.record(p.ok());

    traced_op_figures(tr, op, op_s, fig);
    fig["flow.project_ms"] = ms(tr.root_seconds(op, "op"));

    gatesim_probe(r, cfg.threads, tr, 2, fig);

    // Parallel scaling of the switch-level engine over a vector prefix.
    {
        const switchsim::SwitchSim sim(r.swnet, opts.sim);
        const std::size_t k = std::min(kSpeedupVectors, r.tests.vectors.size());
        const std::span<const switchsim::Vector> prefix(r.tests.vectors.data(),
                                                        k);
        const auto time_at = [&](int threads, std::uint64_t probe_op) {
            Tracer::Scope s(tr, "switchsim.apply_prefix", probe_op);
            const auto t0 = Clock::now();
            const auto session = switchsim::open_switch_session(
                sim::resolve_engine(kEngine), sim, r.swfaults,
                parallel::ParallelOptions{threads});
            session->apply(prefix, support::RunBudget{});
            return seconds_between(t0, Clock::now());
        };
        const double one = time_at(1, 3);
        const double many = time_at(cfg.threads, 4);
        fig["parallel.switchsim_speedup"] = one / many;
        std::fprintf(stderr,
                     "  switchsim %zu-vector prefix: %.4f s at 1 thread, "
                     "%.4f s at %d\n",
                     k, one, many, cfg.threads);
    }
    tr.write_chrome_json(cfg.trace_file);
    zero_missing_layers(fig);
    return assemble(cfg, fails, fig);
}

// ------------------------------------------------------- synth2k-testgen

/// PODEM backtrack limit: sized so one op (prepare + analysis + ATPG on
/// 2k gates) fits about twice into a run.
constexpr int kSynthBacktrack = 1;
constexpr std::uint64_t kSynthAtpgSeed = 1;

flow::ExperimentOptions synth_options(int threads) {
    flow::ExperimentOptions o = base_options(threads);
    o.analysis = true;
    o.atpg.seed = kSynthAtpgSeed;
    o.atpg.backtrack_limit = kSynthBacktrack;
    return o;
}

void synth_pins(Pins& p, std::size_t untestable, std::size_t vectors,
                const std::vector<double>& t_curve) {
    p.expect("synth2k.untestable", std::to_string(untestable), "2290");
    p.expect("synth2k.vectors", std::to_string(vectors), "4122");
    p.expect("synth2k.t_curve", digest(t_curve), "97144a21d031dead");
}

RunResult run_synth(const RunConfig& cfg) {
    netlist::Circuit circuit;
    const flow::ExperimentOptions opts = synth_options(cfg.threads);
    const double setup_s = timed_setups(kSynthSetups, [&] {
        circuit = netlist::load_bench_file(cfg.root + "/data/synth_2k.bench");
        warm_process(cfg.threads);
    });

    FailureCount fails;
    Figures fig;
    std::vector<double> op_s;
    const auto testgen_op = [&] {
        const auto t0 = Clock::now();
        bool ok = false;
        try {
            flow::ExperimentRunner runner(circuit, opts);
            (void)runner.prepare();
            const auto& a = runner.analyze();
            const auto& t = runner.generate_tests();
            op_s.push_back(seconds_between(t0, Clock::now()));
            Pins p;
            synth_pins(p, a.stats.proofs, t.tests.vectors.size(),
                       t.t_curve.values);
            ok = p.ok() && t.tests.stop == support::StopReason::None;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: synth2k op failed: %s\n",
                         e.what());
        }
        fails.record(ok);
        std::fprintf(stderr, "  synth2k testgen %zu: %.4f s\n",
                     fails.attempted(), op_s.empty() ? 0.0 : op_s.back());
    };

    if (!cfg.trace) {
        double rss_mb = 0.0;
        const double loop_s = op_loop(cfg.seconds, testgen_op, op_s, rss_mb);
        e2e_figures(setup_s, op_s, fails.attempted() - fails.failed(), loop_s,
                    rss_mb, fig);
        return assemble(cfg, fails, fig);
    }

    testgen_op();
    Tracer tr(true);
    Replay r;
    const std::uint64_t op = 1;
    {
        Tracer::Scope root(tr, "op", op);
        replay_prepare(circuit, opts, tr, op, r);
        replay_analyze(opts, tr, op, r);
        replay_generate_tests(opts, tr, op, r);
    }
    Pins p;
    synth_pins(p, r.analysis_stats.proofs, r.tests.vectors.size(), r.t_curve);
    fails.record(p.ok());

    traced_op_figures(tr, op, op_s, fig);
    gatesim_probe(r, cfg.threads, tr, 2, fig);
    tr.write_chrome_json(cfg.trace_file);
    zero_missing_layers(fig);
    return assemble(cfg, fails, fig);
}

// ----------------------------------------------------------- service-mix

struct CellName {
    std::string circuit;
    std::string rules;
    std::uint64_t seed = 1;
};

/// The warm set: data/demo.campaign's grid, plus alu4 and adder8 under
/// each of its rule decks at its first seed (the two heavier reports).
std::vector<CellName> warm_cells(const std::string& root) {
    const campaign::CampaignSpec demo =
        campaign::load_campaign_spec(root + "/data/demo.campaign");
    std::vector<CellName> cells;
    for (const auto& c : demo.circuits)
        for (const auto& r : demo.rules)
            for (std::uint64_t s : demo.seeds) cells.push_back({c, r, s});
    for (const char* c : {"alu4", "adder8"})
        for (const auto& r : demo.rules)
            cells.push_back({c, r, demo.seeds.front()});
    return cells;
}

/// Runs fn(i) for i in [0, n) on `threads` threads; the first exception
/// stops the remaining items and is rethrown after every thread joined.
void for_each_parallel(std::size_t n, int threads,
                       const std::function<void(std::size_t)>& fn) {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::exception_ptr error;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            try {
                for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
            } catch (...) {
                next = n;
                std::lock_guard<std::mutex> lock(mu);
                if (!error) error = std::current_exception();
            }
        });
    for (auto& t : pool) t.join();
    if (error) std::rethrow_exception(error);
}

const std::vector<std::string> kFreshCircuits = {"c17", "adder3", "parity4"};
const std::vector<std::string> kFreshRules = {"bridging", "uniform"};

/// The campaign spec the service builds for a `project` request.
campaign::CampaignSpec project_spec(const CellName& c) {
    campaign::CampaignSpec spec;
    spec.name = "project";
    spec.circuits = {c.circuit};
    spec.rules = {c.rules};
    spec.seeds = {c.seed};
    return spec;
}

campaign::CampaignOptions inprocess_options(const std::string& cache_dir) {
    campaign::CampaignOptions o;
    o.cache_dir = cache_dir;
    o.use_cache = !cache_dir.empty();
    o.engine = kEngine;
    o.parallel.threads = 1;
    return o;
}

/// A report body as it arrives in a reply (the client re-renders it).
std::string reply_form(const campaign::CampaignReport& report) {
    return service::write_json(
        service::parse_json(campaign::report_json(report)));
}

struct ServiceBench {
    RunConfig cfg;
    std::string cache_dir;
    std::string socket;
    std::vector<CellName> warm;
    std::vector<std::string> expected;  ///< reply body per warm cell
    std::unique_ptr<service::Service> svc;

    void setup() {
        if (svc) svc->stop();
        svc.reset();
        fs::remove_all(cache_dir);
        fs::create_directories(cache_dir);
        warm = warm_cells(cfg.root);
        expected.assign(warm.size(), std::string());
        const campaign::CampaignOptions o = inprocess_options(cache_dir);
        // Heaviest cells (listed last) first, so no thread starts one late.
        for_each_parallel(warm.size(), cfg.threads, [&](std::size_t k) {
            const std::size_t i = warm.size() - 1 - k;
            expected[i] =
                reply_form(campaign::run_campaign(project_spec(warm[i]), o));
        });
        service::ServiceConfig sc;
        sc.socket_path = socket;
        sc.workers = cfg.clients;
        sc.queue_max = static_cast<std::size_t>(4 * cfg.clients);
        sc.cache_dir = cache_dir;
        sc.engine = kEngine;
        sc.cell_threads = 1;
        svc = std::make_unique<service::Service>(sc);
        svc->start();
    }

    service::ClientOptions client_options() const {
        service::ClientOptions o;
        o.socket_path = socket;
        o.max_attempts = 1;  // a failed or shed call counts, never retries
        o.retry_on_shed = false;
        return o;
    }

    static service::Request request_for(const CellName& c) {
        service::Request q;
        q.op = service::Op::Project;
        q.circuit = c.circuit;
        q.rules = c.rules;
        q.seed = c.seed;
        return q;
    }
};

struct FreshReply {
    CellName cell;
    std::uint64_t body_hash = 0;
    std::size_t body_size = 0;
    bool recompute = false;  ///< checked against a cache-free run
};

/// Fresh replies per client that are checked against a cache-free
/// recomputation; the rest are checked against an in-process run over the
/// same store, which costs a store hit instead of a whole flow.
constexpr std::size_t kRecomputedPerClient = 8;

struct LoopResult {
    std::vector<double> latency_s;  ///< ok requests only
    std::vector<FreshReply> fresh;
    double seconds = 0.0;
    std::size_t cell_hits = 0;
    std::size_t cell_misses = 0;
};

constexpr std::size_t kFreshCell = ~std::size_t{0};

/// Request j of a client.  Every 10th is fresh, cycling through the fresh
/// circuits, so the mix is exact in every run and runs differ only in the
/// warm cells, rule decks and ATPG seeds drawn.  Returns the warm cell's
/// index, or kFreshCell.
std::size_t pick_cell(std::size_t j, SplitMix& rng,
                      const std::vector<CellName>& warm, CellName& cell) {
    if (j % 10 != 9) {
        const std::size_t i = rng.next() % warm.size();
        cell = warm[i];
        return i;
    }
    cell.circuit = kFreshCircuits[(j / 10) % kFreshCircuits.size()];
    cell.rules = kFreshRules[rng.next() % kFreshRules.size()];
    cell.seed = 3 + (rng.next() >> 13);  // never a warm seed; below 2^53
    return kFreshCell;
}

/// Closed loop: cfg.clients threads, each sending its next request as soon
/// as the previous reply arrived, until `window` seconds have passed.
LoopResult closed_loop(ServiceBench& b, double window, std::uint64_t stream,
                       FailureCount& fails, Tracer& tr) {
    LoopResult out;
    std::mutex mu;
    std::atomic<std::uint64_t> next_op{1000000 * stream};
    const auto t0 = Clock::now();
    const auto client = [&](int c) {
        SplitMix rng{b.cfg.seed * 0x100000001b3ull + stream * 131 +
                     static_cast<std::uint64_t>(c)};
        const service::ClientOptions copt = b.client_options();
        LoopResult mine;
        std::size_t fresh_sent = 0;
        try {
            for (std::size_t j = static_cast<std::size_t>(c);
                 seconds_between(t0, Clock::now()) < window; ++j) {
                CellName cell;
                const std::size_t warm_index = pick_cell(j, rng, b.warm, cell);
                const bool fresh = warm_index == kFreshCell;
                const std::uint64_t op = next_op.fetch_add(1);
                service::CallResult reply;
                const auto q0 = Clock::now();
                {
                    Tracer::Scope root(tr, "request", op);
                    Tracer::Scope s(tr, "service.call", op);
                    reply = service::call_service(
                        ServiceBench::request_for(cell), copt);
                }
                const double dt = seconds_between(q0, Clock::now());
                bool ok = reply.ok();
                if (ok && !fresh) ok = reply.body == b.expected[warm_index];
                if (ok && fresh)
                    mine.fresh.push_back(
                        {cell, fnv(reply.body.data(), reply.body.size()),
                         reply.body.size(), fresh_sent < kRecomputedPerClient});
                fresh_sent += fresh ? 1 : 0;
                if (!ok)
                    std::fprintf(stderr, "perfbench: request %s/%s/%" PRIu64
                                 " failed: %s %s\n",
                                 cell.circuit.c_str(), cell.rules.c_str(),
                                 cell.seed, reply.status.c_str(),
                                 reply.error.c_str());
                fails.record(ok);
                if (ok) mine.latency_s.push_back(dt);
                if (ok && tr.enabled()) {
                    const service::Json st = service::parse_json(reply.stats);
                    mine.cell_hits += static_cast<std::size_t>(
                        st.int_or("cell_hits", 0));
                    mine.cell_misses += static_cast<std::size_t>(
                        st.int_or("cell_misses", 0));
                }
            }
        } catch (const std::exception& e) {
            // The call layer reports failures in its result; anything
            // thrown here ends this client and fails the run.
            fails.record(false);
            std::fprintf(stderr, "perfbench: client %d stopped: %s\n", c,
                         e.what());
        }
        std::lock_guard<std::mutex> lock(mu);
        out.latency_s.insert(out.latency_s.end(), mine.latency_s.begin(),
                             mine.latency_s.end());
        out.fresh.insert(out.fresh.end(), mine.fresh.begin(),
                         mine.fresh.end());
        out.cell_hits += mine.cell_hits;
        out.cell_misses += mine.cell_misses;
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < b.cfg.clients; ++c) threads.emplace_back(client, c);
    for (auto& t : threads) t.join();
    out.seconds = seconds_between(t0, Clock::now());
    return out;
}

/// Checks every fresh reply against an in-process run_campaign of the
/// same cell (cfg.clients threads): cache-free for the `recompute` ones,
/// over the service's store for the others.  Returns the durations of the
/// cache-free runs.
std::vector<double> verify_fresh(const ServiceBench& b,
                                 const std::vector<FreshReply>& fresh,
                                 FailureCount& fails, Tracer& tr,
                                 std::uint64_t op_base) {
    std::vector<double> took(fresh.size(), -1.0);
    for_each_parallel(fresh.size(), b.cfg.clients, [&](std::size_t i) {
        const FreshReply& f = fresh[i];
        const auto t0 = Clock::now();
        std::string body;
        {
            Tracer::Scope s(tr, f.recompute ? "flow.project" : "campaign.hit",
                            op_base + i);
            body = reply_form(campaign::run_campaign(
                project_spec(f.cell),
                inprocess_options(f.recompute ? "" : b.cache_dir)));
        }
        if (f.recompute) took[i] = seconds_between(t0, Clock::now());
        if (fnv(body.data(), body.size()) != f.body_hash ||
            body.size() != f.body_size) {
            fails.fail_verified();
            std::fprintf(stderr,
                         "perfbench: reply for %s/%s/%" PRIu64
                         " differs from the in-process report\n",
                         f.cell.circuit.c_str(), f.cell.rules.c_str(),
                         f.cell.seed);
        }
    });
    std::erase_if(took, [](double t) { return t < 0.0; });
    return took;
}

/// One stored object, read back from disk: kind, key and payload.
struct StoredObject {
    std::string kind;
    std::string key;
    std::string payload;
};

/// Reads the object files of a store (the on-disk format of
/// campaign/store.cpp: a line header, "--", then key and payload bytes).
std::vector<StoredObject> stored_objects(const std::string& root,
                                         std::size_t limit) {
    std::vector<std::string> paths;
    for (const auto& e : fs::recursive_directory_iterator(root + "/objects"))
        if (e.is_regular_file() &&
            e.path().filename().string().find(".tmp") == std::string::npos)
            paths.push_back(e.path().string());
    std::sort(paths.begin(), paths.end());
    const std::size_t stride = std::max<std::size_t>(1, paths.size() / limit);
    std::vector<StoredObject> out;
    for (std::size_t i = 0; i < paths.size() && out.size() < limit;
         i += stride) {
        std::ifstream in(paths[i], std::ios::binary);
        std::string magic, word, kind, dashes;
        std::size_t key_bytes = 0, payload_bytes = 0;
        std::getline(in, magic);
        in >> word >> kind >> word >> key_bytes >> word >> payload_bytes >>
            word >> word;
        std::getline(in, dashes);
        std::getline(in, dashes);
        if (!in || dashes != "--")
            throw std::runtime_error("unreadable store object " + paths[i]);
        StoredObject o;
        o.kind = kind;
        o.key.resize(key_bytes);
        o.payload.resize(payload_bytes);
        in.read(o.key.data(), static_cast<std::streamsize>(key_bytes));
        in.read(o.payload.data(), static_cast<std::streamsize>(payload_bytes));
        if (!in) throw std::runtime_error("short store object " + paths[i]);
        out.push_back(std::move(o));
    }
    return out;
}

/// Replays a few fresh cells layer by layer (the options a campaign cell
/// runs with) and checks them against the in-process cell results.
void replay_fresh_cells(const std::vector<FreshReply>& fresh,
                        std::size_t count, Tracer& tr, std::uint64_t op_base,
                        LayerSamples& L, FailureCount& fails) {
    for (std::size_t i = 0; i < std::min(count, fresh.size()); ++i) {
        const CellName& c = fresh[i].cell;
        flow::ExperimentOptions o = base_options(1);
        o.defects = campaign::resolve_rules(c.rules);
        o.atpg.seed = c.seed;
        const netlist::Circuit circuit = campaign::resolve_circuit(c.circuit);
        const std::uint64_t op = op_base + i;
        Replay r;
        {
            Tracer::Scope root(tr, "op", op);
            replay_projection(circuit, o, tr, op, r);
        }
        L.add_op(tr, op);
        add_prepare_total(tr, op, L);
        const campaign::CampaignReport ref = campaign::run_campaign(
            project_spec(c), inprocess_options(""));
        const campaign::CellResult& cell = ref.cells.at(0);
        const bool same =
            cell.vector_count == static_cast<int>(r.tests.vectors.size()) &&
            cell.fit_r == r.fit.r && cell.fit_theta_max == r.fit.theta_max &&
            cell.theta_curve.values == r.theta_curve;
        if (!same) {
            fails.fail_verified();
            std::fprintf(stderr, "perfbench: layer replay of %s/%s/%" PRIu64
                         " disagrees with run_campaign\n",
                         c.circuit.c_str(), c.rules.c_str(), c.seed);
        }
    }
}

RunResult run_service(const RunConfig& cfg) {
    ServiceBench b;
    b.cfg = cfg;
    b.cache_dir = cfg.work_dir + "/store";
    b.socket = cfg.work_dir + "/service.sock";
    const double setup_s = timed_setups(kServiceSetups, [&] {
        warm_process(cfg.threads);
        b.setup();
    });
    std::fprintf(stderr, "  warm set: %zu cells\n", b.warm.size());

    FailureCount fails;
    Figures fig;
    Tracer off(false);
    if (!cfg.trace) {
        LoopResult loop = closed_loop(b, cfg.seconds, 1, fails, off);
        const double rss_mb = peak_rss_mb();
        b.svc->stop();
        (void)verify_fresh(b, loop.fresh, fails, off, 0);
        std::fprintf(stderr, "  %zu requests, %zu fresh cells verified\n",
                     fails.attempted(), loop.fresh.size());
        if (loop.latency_s.empty())
            throw std::runtime_error("no request completed");
        e2e_figures(setup_s, loop.latency_s, loop.latency_s.size(),
                    loop.seconds, rss_mb, fig);
        RunResult res = assemble(cfg, fails, fig);
        b.svc.reset();
        return res;
    }

    // Traced run: half the window untraced, half traced, then the probes.
    LoopResult plain = closed_loop(b, cfg.seconds / 2, 1, fails, off);
    Tracer tr(true);
    LoopResult traced = closed_loop(b, cfg.seconds / 2, 2, fails, tr);
    const service::ServiceStats svc_stats = b.svc->stats();

    // Service overhead: a warm call against an in-process run_campaign of
    // the same request, one at a time.
    std::vector<double> overhead;
    {
        const service::ClientOptions copt = b.client_options();
        const campaign::CampaignOptions inproc = inprocess_options(b.cache_dir);
        for (std::size_t i = 0; i < 200; ++i) {
            const CellName& c = b.warm[i % b.warm.size()];
            const std::uint64_t op = 3000000 + i;
            auto t0 = Clock::now();
            service::CallResult reply;
            {
                Tracer::Scope s(tr, "service.call", op);
                reply = service::call_service(ServiceBench::request_for(c),
                                              copt);
            }
            const double call = seconds_between(t0, Clock::now());
            t0 = Clock::now();
            {
                Tracer::Scope s(tr, "campaign.run_campaign", op);
                (void)campaign::run_campaign(project_spec(c), inproc);
            }
            const double local = seconds_between(t0, Clock::now());
            fails.record(reply.ok() &&
                         reply.body == b.expected[i % b.warm.size()]);
            overhead.push_back(call - local);
        }
    }
    b.svc->stop();

    std::vector<FreshReply> all_fresh = plain.fresh;
    all_fresh.insert(all_fresh.end(), traced.fresh.begin(), traced.fresh.end());
    const std::vector<double> project_s =
        verify_fresh(b, all_fresh, fails, tr, 4000000);

    // Store layer: gets against the warmed store, puts into a probe store.
    std::vector<double> get_ms, put_ms;
    {
        campaign::ArtifactStore store(b.cache_dir);
        campaign::ArtifactStore probe(cfg.work_dir + "/probe-store");
        std::uint64_t op = 5000000;
        for (const StoredObject& o : stored_objects(b.cache_dir, 400)) {
            auto t0 = Clock::now();
            std::optional<std::string> got;
            {
                Tracer::Scope s(tr, "campaign.store.get", op);
                got = store.get(o.kind, o.key);
            }
            get_ms.push_back(ms(seconds_between(t0, Clock::now())));
            if (!got || *got != o.payload) fails.fail_verified();
            t0 = Clock::now();
            {
                Tracer::Scope s(tr, "campaign.store.put", op);
                probe.put(o.kind, o.key, o.payload);
            }
            put_ms.push_back(ms(seconds_between(t0, Clock::now())));
            ++op;
        }
    }

    LayerSamples L;
    replay_fresh_cells(traced.fresh, 8, tr, 6000000, L, fails);
    layer_figures(L, fig);
    std::vector<double> proj_ms;
    for (double s : project_s) proj_ms.push_back(ms(s));
    fig["flow.project_ms"] = proj_ms.empty() ? 0.0 : median(proj_ms);
    fig["campaign.store_get_ms"] = median(get_ms);
    fig["campaign.store_put_ms"] = median(put_ms);
    const std::size_t lookups = traced.cell_hits + traced.cell_misses;
    fig["campaign.cell_hit_ratio"] =
        lookups ? static_cast<double>(traced.cell_hits) /
                      static_cast<double>(lookups)
                : 0.0;
    fig["service.overhead_ms"] = ms(median(overhead));
    fig["service.shed"] = static_cast<double>(svc_stats.shed);
    const double untraced = median(plain.latency_s);
    const double traced_op = median(traced.latency_s);
    // A request's only stage is the service call; its self time is the
    // whole traced latency.
    std::vector<double> call_self;
    for (const Span& s : tr.spans())
        if (s.name == "service.call" && s.op < 3000000)
            call_self.push_back(s.seconds());
    trace_figures(untraced, traced_op, median(call_self), fig);
    std::fprintf(stderr,
                 "  untraced %zu requests, traced %zu; %zu fresh cells "
                 "verified; overhead probe %zu calls\n",
                 plain.latency_s.size(), traced.latency_s.size(),
                 all_fresh.size(), overhead.size());
    tr.write_chrome_json(cfg.trace_file);
    zero_missing_layers(fig);
    RunResult res = assemble(cfg, fails, fig);
    b.svc.reset();
    return res;
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
    if (config.workload == "c432-cold") return run_c432(config);
    if (config.workload == "synth2k-testgen") return run_synth(config);
    if (config.workload == "service-mix") return run_service(config);
    throw std::invalid_argument("unknown workload \"" + config.workload + "\"");
}

}  // namespace perfbench
