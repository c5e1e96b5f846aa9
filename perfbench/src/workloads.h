// The benchmark's workloads and the metrics they report.
//
//   c432-cold        repeated cold projections of c432 (switch-level bound)
//   synth2k-testgen  prepare -> analyze -> generate_tests on synth_2k
//                    (gate-level bound, no switch-level simulation)
//   service-mix      closed-loop `project` requests against an in-process
//                    service over a warmed artifact store
//
// An untraced run reports every end-to-end metric; a traced run reports
// every per-layer metric (0 for a layer the workload never calls).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// End-to-end metrics, in output order.  The same table is checked
/// against BENCHMARK.json by the self-test.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
    static const std::vector<MetricSpec> m = {
        {"setup_s", "s"},
        {"latency_ms.p50", "ms"},
        {"latency_ms.tail", "ms"},
        {"throughput_ops", "1/s"},
        {"peak_rss_mb", "MB"},
    };
    return m;
}

/// Per-layer metrics of a traced run, in output order.
inline const std::vector<MetricSpec>& per_layer_metrics() {
    static const std::vector<MetricSpec> m = {
        {"flow.prepare_s", "s"},
        {"flow.project_ms", "ms"},
        {"netlist.techmap_s", "s"},
        {"layout.place_route_s", "s"},
        {"extract.extract_s", "s"},
        {"lint.check_s", "s"},
        {"analysis.analyze_s", "s"},
        {"analysis.pivots", "count"},
        {"analysis.untestable", "count"},
        {"atpg.generate_s", "s"},
        {"atpg.vectors", "count"},
        {"atpg.aborted", "count"},
        {"gatesim.apply_s", "s"},
        {"gatesim.evals_per_s", "1/s"},
        {"switchsim.simulate_s", "s"},
        {"switchsim.vectors", "count"},
        {"switchsim.evals_per_s", "1/s"},
        {"parallel.switchsim_speedup", "x"},
        {"model.fit_s", "s"},
        {"campaign.store_get_ms", "ms"},
        {"campaign.store_put_ms", "ms"},
        {"campaign.cell_hit_ratio", "ratio"},
        {"service.overhead_ms", "ms"},
        {"service.shed", "count"},
        {"trace.overhead_pct", "%"},
        {"trace.accounted_pct", "%"},
    };
    return m;
}

inline const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> w = {"c432-cold", "synth2k-testgen",
                                               "service-mix"};
    return w;
}

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root;      ///< repository root (reads data/ from here)
    std::string work_dir;  ///< scratch for sockets and stores (removed after)
    std::string trace_file;  ///< where a traced run writes its spans
    int threads = 1;       ///< worker threads per op (<= nproc)
    int clients = 1;       ///< closed-loop clients (service-mix)
};

struct MetricValue {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = false;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<MetricValue> metrics;
};

/// Runs one workload; human-readable progress and figures go to stderr.
/// Throws on an unknown workload or a broken environment.
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
