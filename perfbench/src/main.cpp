// perfbench: one run of one benchmark workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--root <repo>] [--commit <id>]
//
// Prints a header, one line per metric, and as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}.  Exits 0 only
// when every op's outputs matched their pins; 2 on bad arguments or an
// unclean environment.  Normally started by perfbench/run.py, which builds
// it and clears the environment first.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--root <repo>] "
                 "[--commit <id>]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    if (kSanitized)
        return usage("refusing to measure a sanitizer build");
    // Every DLPROJ_* knob changes the measured program (some are read
    // before main), so the run must start without any.
    for (char** e = environ; *e; ++e)
        if (std::strncmp(*e, "DLPROJ_", 7) == 0)
            return usage(("environment sets " +
                          std::string(*e, std::strcspn(*e, "=")) +
                          "; run through perfbench/run.py")
                             .c_str());

    RunConfig cfg;
    cfg.root = ".";
    std::string commit = "unknown";
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload") {
                cfg.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                cfg.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                cfg.seconds = std::stod(value);
                have_seconds = cfg.seconds > 0;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") return usage("bad --trace");
                cfg.trace = value == "1";
                have_trace = true;
            } else if (flag == "--root") {
                cfg.root = value;
            } else if (flag == "--commit") {
                commit = value;
            } else {
                return usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (argc % 2 == 0) return usage("flags come in pairs");
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const auto& w : workload_names()) known = known || w == cfg.workload;
    if (!known) return usage(("unknown workload " + cfg.workload).c_str());

    // CPUs this process may run on, as nproc(1) counts them.
    cpu_set_t cpus;
    const int nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                          ? std::max(1, CPU_COUNT(&cpus))
                          : 1;
    cfg.threads = std::min(nproc, 4);
    cfg.clients = cfg.threads;
    const std::string runs = cfg.root + "/.bench_runs";
    cfg.work_dir = runs + "/" + cfg.workload + "-" + std::to_string(::getpid());
    cfg.trace_file = runs + "/trace-" + cfg.workload + "-s" +
                     std::to_string(cfg.seed) + ".json";
    std::filesystem::create_directories(cfg.work_dir);

    std::printf(
        "# perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
        "threads=%d clients=%d build=%s compiler=\"%s\" commit=%s\n",
        cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
        cfg.seconds, cfg.trace ? 1 : 0, nproc, cfg.threads, cfg.clients,
        PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, commit.c_str());
    std::fflush(stdout);

    RunResult res;
    try {
        res = run_workload(cfg);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     cfg.workload.c_str(), e.what());
        std::filesystem::remove_all(cfg.work_dir);
        return 1;
    }
    std::filesystem::remove_all(cfg.work_dir);

    std::string json = "{\"correct\": ";
    json += res.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const MetricValue& m = res.metrics[i];
        if (!valid_metric_name(m.name) || !std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s = %g is invalid\n",
                         m.name.c_str(), m.value);
            return 1;
        }
        std::printf("%-28s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("failed_frac %.6f (%zu of %zu ops)\n",
                res.attempted ? static_cast<double>(res.failed) /
                                    static_cast<double>(res.attempted)
                              : 1.0,
                res.failed, res.attempted);
    std::printf("%s\n", json.c_str());
    return res.correct ? 0 : 1;
}
