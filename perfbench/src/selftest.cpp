// Self-tests of the benchmark's own code: order statistics, failure
// accounting, span self times, and the metric tables against
// BENCHMARK.json and perfbench/interactions.json.
//
//   perfbench_selftest <repo root>      (exit 0 = all passed)
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/json.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ++g_failures;                                                  \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
        }                                                                  \
    } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median_and_quartiles() {
    using perfbench::median;
    using perfbench::quartiles;
    CHECK(near(median({3.0}), 3.0));
    CHECK(near(median({2.0, 1.0}), 1.5));
    CHECK(near(median({5.0, 1.0, 4.0, 2.0, 3.0}), 3.0));
    // Reference cut points from Python's statistics.quantiles(v, n=4).
    const struct {
        std::vector<double> v;
        double q1, q2, q3;
    } cases[] = {
        {{1, 2}, 0.75, 1.5, 2.25},
        {{3, 1, 2}, 1.0, 2.0, 3.0},
        {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
        {{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
        {{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55.0, 82.5},
    };
    for (const auto& c : cases) {
        const perfbench::Quartiles q = quartiles(c.v);
        CHECK(near(q.q1, c.q1));
        CHECK(near(q.q2, c.q2));
        CHECK(near(q.q3, c.q3));
    }
    bool threw = false;
    try {
        (void)quartiles({1.0});
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);
}

void test_tail_selection() {
    using perfbench::tail_percentile;
    std::vector<double> v;
    // 4 samples: even the median has fewer than 10 beyond -> the median.
    for (int i = 4; i >= 1; --i) v.push_back(i);
    perfbench::Tail t = tail_percentile(v);
    CHECK(t.percentile == 50.0 && t.value == 2.5 && t.samples == 4 &&
          t.beyond == 2);
    // 20 samples: p50 (rank 10) has exactly 10 beyond; p90 has 2.
    v.clear();
    for (int i = 1; i <= 20; ++i) v.push_back(i);
    t = tail_percentile(v);
    CHECK(t.percentile == 50.0 && t.value == 10.0 && t.beyond == 10);
    // 100 samples: p90 (rank 90) has 10 beyond; p99 only 1.
    v.clear();
    for (int i = 100; i >= 1; --i) v.push_back(i);
    t = tail_percentile(v);
    CHECK(t.percentile == 90.0 && t.value == 90.0 && t.beyond == 10 &&
          t.samples == 100);
    // 1000 samples: p99 (rank 990) has 10 beyond.
    v.clear();
    for (int i = 1; i <= 1000; ++i) v.push_back(i);
    t = tail_percentile(v);
    CHECK(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10);
    // 999 samples: p99 would leave 9 beyond, so p90 is reported.
    v.pop_back();
    t = tail_percentile(v);
    CHECK(t.percentile == 90.0 && t.beyond >= 10);
}

void test_failure_accounting() {
    perfbench::FailureCount f;
    CHECK(!f.correct());  // nothing attempted is not a pass
    CHECK(f.failed_frac() == 1.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&f, t] {
            for (int i = 0; i < 1000; ++i) f.record(!(t == 0 && i < 10));
        });
    for (auto& t : threads) t.join();
    CHECK(f.attempted() == 4000);
    CHECK(f.failed() == 10);
    CHECK(near(f.failed_frac(), 10.0 / 4000.0));
    CHECK(!f.correct());
    perfbench::FailureCount g;
    g.record(true);
    CHECK(g.correct());
    g.fail_verified();  // a reply found wrong after the loop
    CHECK(g.attempted() == 1 && g.failed() == 1 && !g.correct());
}

void test_metric_names() {
    using perfbench::valid_metric_name;
    CHECK(valid_metric_name("latency_ms.p50"));
    CHECK(valid_metric_name("c432-cold"));
    CHECK(valid_metric_name("9lives"));
    CHECK(!valid_metric_name(""));
    CHECK(!valid_metric_name(".hidden"));
    CHECK(!valid_metric_name("has space"));
    CHECK(!valid_metric_name("per/sec"));
    CHECK(!valid_metric_name(std::string(65, 'a')));
    std::set<std::string> seen;
    for (const auto* table : {&perfbench::end_to_end_metrics(),
                              &perfbench::per_layer_metrics()})
        for (const perfbench::MetricSpec& m : *table) {
            CHECK(valid_metric_name(m.name));
            CHECK(seen.insert(m.name).second);
        }
    for (const std::string& w : perfbench::workload_names()) {
        CHECK(valid_metric_name(w));
        CHECK(seen.insert(w).second);
    }
}

void test_self_times() {
    perfbench::Tracer tr(true);
    {
        perfbench::Tracer::Scope root(tr, "op", 7);
        {
            perfbench::Tracer::Scope a(tr, "a", 7);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        perfbench::Tracer::Scope b(tr, "b", 7);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    tr.count("items", 7, 3);
    tr.count("items", 7, 4);
    const auto self = tr.self_seconds(7);
    CHECK(self.at("a") >= 0.019);
    CHECK(self.at("b") >= 0.009);
    CHECK(self.at("op") < 0.005);  // covered by its children
    const double root = tr.root_seconds(7, "op");
    CHECK(near(self.at("a") + self.at("b") + self.at("op"), root));
    double items = 0.0;
    for (const perfbench::CountRecord& c : tr.counts())
        if (c.op == 7 && c.name == "items") items += c.value;
    CHECK(items == 7.0);
    const auto spans = tr.spans();
    CHECK(spans.size() == 3 && spans[0].parent == -1 && spans[1].parent == 0 &&
          spans[2].parent == 0);
    perfbench::Tracer off(false);
    {
        perfbench::Tracer::Scope s(off, "ignored", 1);
    }
    off.count("ignored", 1, 1);
    CHECK(off.spans().empty() && off.counts().empty());
}

/// The metric tables the binary prints must be exactly BENCHMARK.json's.
void test_benchmark_json(const std::string& root) {
    std::ifstream in(root + "/BENCHMARK.json");
    std::stringstream text;
    text << in.rdbuf();
    CHECK(in.good() || in.eof());
    const dlp::service::Json doc = dlp::service::parse_json(text.str());
    const auto check_table = [&](const char* key,
                                 const std::vector<perfbench::MetricSpec>& t) {
        const dlp::service::Json* list = doc.get(key);
        CHECK(list != nullptr);
        if (!list) return;
        CHECK(list->items().size() == t.size());
        for (std::size_t i = 0; i < std::min(t.size(), list->items().size());
             ++i) {
            const auto& m = list->items()[i];
            CHECK(m.str_or("name", "") == t[i].name);
            CHECK(m.str_or("unit", "") == t[i].unit);
            CHECK(perfbench::valid_metric_name(m.str_or("name", "")));
        }
    };
    check_table("end_to_end", perfbench::end_to_end_metrics());
    check_table("per_layer", perfbench::per_layer_metrics());
    const dlp::service::Json* workloads = doc.get("workloads");
    CHECK(workloads != nullptr);
    if (workloads) {
        CHECK(workloads->items().size() == perfbench::workload_names().size());
        for (std::size_t i = 0; i < workloads->items().size() &&
                                i < perfbench::workload_names().size();
             ++i)
            CHECK(workloads->items()[i].str_or("name", "") ==
                  perfbench::workload_names()[i]);
    }
}

/// perfbench/interactions.json maps every per-layer metric, once, to
/// end-to-end metrics and workloads that exist.
void test_interaction_map(const std::string& root) {
    std::ifstream in(root + "/perfbench/interactions.json");
    std::stringstream text;
    text << in.rdbuf();
    const dlp::service::Json doc = dlp::service::parse_json(text.str());
    std::set<std::string> e2e, workloads, mapped;
    for (const auto& m : perfbench::end_to_end_metrics()) e2e.insert(m.name);
    for (const auto& w : perfbench::workload_names()) workloads.insert(w);
    const dlp::service::Json* entries = doc.get("per_layer");
    CHECK(entries != nullptr);
    if (!entries) return;
    for (const auto& e : entries->items()) {
        CHECK(mapped.insert(e.str_or("metric", "")).second);
        for (const char* key : {"moves", "no_change"}) {
            const dlp::service::Json* list = e.get(key);
            CHECK(list != nullptr);
            if (!list) continue;
            for (const auto& p : list->items()) {
                CHECK(e2e.count(p.str_or("metric", "")) == 1);
                CHECK(workloads.count(p.str_or("workload", "")) == 1);
            }
        }
    }
    std::set<std::string> layers;
    for (const auto& m : perfbench::per_layer_metrics()) layers.insert(m.name);
    CHECK(mapped == layers);
}

}  // namespace

int main(int argc, char** argv) {
    test_median_and_quartiles();
    test_tail_selection();
    test_failure_accounting();
    test_metric_names();
    test_self_times();
    if (argc > 1) {
        test_benchmark_json(argv[1]);
        test_interaction_map(argv[1]);
    }
    if (g_failures) {
        std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
