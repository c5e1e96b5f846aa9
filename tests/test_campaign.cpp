// Tests for the campaign subsystem: spec parsing, the grid/shard algebra,
// the content-addressed artifact store, and the end-to-end cache
// guarantees (hit/miss accounting, cross-cell artifact reuse,
// cancel-then-resume byte-identity, corruption recovery).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/artifacts.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "service/json.h"

namespace dlp::campaign {
namespace {

namespace fs = std::filesystem;

/// A fresh per-test scratch directory under the gtest temp dir.
std::string scratch_dir(const std::string& tag) {
    const std::string path = testing::TempDir() + "dlproj_campaign_" + tag;
    fs::remove_all(path);
    return path;
}

const char* kSmallSpec =
    "[campaign]\n"
    "name = unit\n"
    "target_yield = 0.8\n"
    "[grid]\n"
    "circuits = c17, parity4\n"
    "rules = bridging, uniform\n"
    "seeds = 1\n";

// --- spec parsing -------------------------------------------------------

TEST(CampaignSpec, ParsesSectionsAndGrid) {
    const CampaignSpec s = parse_campaign_spec(
        "# comment\n"
        "[campaign]\n"
        "name = demo\n"
        "target_yield = 0.6\n"
        "max_vectors = 32\n"
        "weighted = off\n"
        "lint = false\n"
        "[grid]\n"
        "circuits = c17, adder3\n"
        "rules = bridging, uniform, open\n"
        "seeds = 1, 2, 3\n");
    EXPECT_EQ(s.name, "demo");
    EXPECT_DOUBLE_EQ(s.target_yield, 0.6);
    EXPECT_EQ(s.max_vectors, 32);
    EXPECT_FALSE(s.weighted);
    EXPECT_FALSE(s.lint);
    EXPECT_EQ(s.cell_count(), 2u * 3u * 3u);
    // Row-major: circuit outermost, then rules, then seeds.
    EXPECT_EQ(cell_at(s, 0).circuit, "c17");
    EXPECT_EQ(cell_at(s, 0).rules, "bridging");
    EXPECT_EQ(cell_at(s, 0).seed, 1u);
    EXPECT_EQ(cell_at(s, 2).seed, 3u);
    EXPECT_EQ(cell_at(s, 3).rules, "uniform");
    EXPECT_EQ(cell_at(s, 9).circuit, "adder3");
    EXPECT_EQ(cell_at(s, 17).atpg, "default");
}

TEST(CampaignSpec, AtpgVariantsSelectableFromGrid) {
    const CampaignSpec s = parse_campaign_spec(
        "[grid]\n"
        "circuits = c17\n"
        "rules = uniform\n"
        "atpg = default, fast\n"
        "[atpg.fast]\n"
        "random_block = 8\n"
        "max_random = 64\n");
    ASSERT_EQ(s.atpg.size(), 2u);
    EXPECT_EQ(s.atpg[0].name, "default");
    EXPECT_EQ(s.atpg[1].name, "fast");
    EXPECT_EQ(atpg_variant(s, "fast").options.random_block, 8);
    EXPECT_EQ(atpg_variant(s, "fast").options.max_random, 64);
    EXPECT_EQ(s.cell_count(), 2u);
    EXPECT_EQ(cell_at(s, 1).atpg, "fast");
}

TEST(CampaignSpec, RejectsMalformedInput) {
    EXPECT_THROW(parse_campaign_spec("[nope]\n"), std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("[grid]\ncircuits = c17\n"),
                 std::runtime_error);  // no rules
    EXPECT_THROW(parse_campaign_spec("[campaign]\nbogus = 1\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("key = outside\n"), std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("[campaign]\nno equals sign\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("[grid]\nseeds = x\n"),
                 std::runtime_error);
    EXPECT_THROW(
        parse_campaign_spec("[grid]\ncircuits=c17\nrules=uniform\n"
                            "atpg = undefined_variant\n"),
        std::runtime_error);
}

TEST(CampaignSpec, ResolvesCircuitsAndRules) {
    EXPECT_GT(resolve_circuit("c17").gate_count(), 0u);
    EXPECT_GT(resolve_circuit("adder3").gate_count(), 0u);
    EXPECT_GT(resolve_circuit("parity4").gate_count(), 0u);
    EXPECT_THROW(resolve_circuit("frobnicator9"), std::runtime_error);
    (void)resolve_rules("bridging");
    (void)resolve_rules("open");
    (void)resolve_rules("uniform");
    EXPECT_THROW(resolve_rules("nonsense"), std::runtime_error);
}

// --- shard algebra ------------------------------------------------------

TEST(CampaignShard, ParseAcceptsAndRejects) {
    EXPECT_EQ(parse_shard("0/2").index, 0);
    EXPECT_EQ(parse_shard("0/2").count, 2);
    EXPECT_EQ(parse_shard("3/4").index, 3);
    EXPECT_THROW(parse_shard("2"), std::runtime_error);
    EXPECT_THROW(parse_shard("2/2"), std::runtime_error);   // out of range
    EXPECT_THROW(parse_shard("-1/2"), std::runtime_error);
    EXPECT_THROW(parse_shard("0/0"), std::runtime_error);
    EXPECT_THROW(parse_shard("x/y"), std::runtime_error);
}

TEST(CampaignShard, PartitionIsDisjointCoveringAndBalanced) {
    // For every grid size and every shard count, the shards partition
    // [0, total) exactly, with sizes differing by at most one.
    for (std::size_t total : {0u, 1u, 2u, 5u, 12u, 13u, 30u})
        for (int n = 1; n <= 8; ++n) {
            std::set<std::size_t> seen;
            std::size_t min_size = total + 1, max_size = 0;
            for (int i = 0; i < n; ++i) {
                const auto cells = shard_cells(total, Shard{i, n});
                min_size = std::min(min_size, cells.size());
                max_size = std::max(max_size, cells.size());
                for (const std::size_t c : cells) {
                    EXPECT_LT(c, total);
                    EXPECT_TRUE(seen.insert(c).second)
                        << "cell " << c << " in two shards (n=" << n << ")";
                }
            }
            EXPECT_EQ(seen.size(), total) << "n=" << n;
            if (total > 0) EXPECT_LE(max_size - min_size, 1u) << "n=" << n;
        }
}

// --- artifact store -----------------------------------------------------

TEST(ArtifactStore, PutGetRoundTrip) {
    ArtifactStore store(scratch_dir("store_rt"));
    EXPECT_TRUE(store.enabled());
    EXPECT_FALSE(store.get("tests", "key-a").has_value());
    EXPECT_EQ(store.misses(), 1u);
    store.put("tests", "key-a", "payload-a");
    const auto back = store.get("tests", "key-a");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "payload-a");
    EXPECT_EQ(store.hits(), 1u);
    // Overwrite is allowed and atomic.
    store.put("tests", "key-a", "payload-b");
    EXPECT_EQ(store.get("tests", "key-a").value(), "payload-b");
    // Same key, different kind = a different object.
    EXPECT_FALSE(store.get("sim", "key-a").has_value());
}

TEST(ArtifactStore, DisabledStoreNeverHits) {
    ArtifactStore store("");
    EXPECT_FALSE(store.enabled());
    store.put("tests", "k", "v");  // no-op, must not throw
    EXPECT_FALSE(store.get("tests", "k").has_value());
    EXPECT_EQ(store.writes(), 0u);
}

TEST(ArtifactStore, CorruptObjectIsDetectedNotServed) {
    ArtifactStore store(scratch_dir("store_corrupt"));
    store.put("cell", "the-key", "precious payload bytes");
    const std::string path = store.object_path("cell", "the-key");
    // Flip the last payload byte on disk.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary | std::ios::ate);
        ASSERT_TRUE(f.is_open());
        const auto size = static_cast<long long>(f.tellg());
        f.seekp(size - 1);
        f.put('X');
    }
    EXPECT_FALSE(store.get("cell", "the-key").has_value());
    EXPECT_EQ(store.corrupt(), 1u);
    // A rewrite repairs the entry.
    store.put("cell", "the-key", "precious payload bytes");
    EXPECT_EQ(store.get("cell", "the-key").value(),
              "precious payload bytes");
}

TEST(ArtifactStore, TruncatedObjectIsAMiss) {
    ArtifactStore store(scratch_dir("store_trunc"));
    store.put("cell", "k", "0123456789");
    fs::resize_file(store.object_path("cell", "k"), 5);
    EXPECT_FALSE(store.get("cell", "k").has_value());
}

// --- artifact layouts ---------------------------------------------------

/// Each "<key> ..." line of a serialized artifact, by key; lines that start
/// with a digit (fault-list entries, vector bits) and the magic line are
/// skipped.
std::map<std::string, std::string> keyed_lines(const std::string& text) {
    std::map<std::string, std::string> out;
    std::istringstream in(text);
    std::string line;
    std::getline(in, line);  // magic
    while (std::getline(in, line))
        if (!line.empty() && std::isalpha(static_cast<unsigned char>(line[0])))
            out[line.substr(0, line.find(' '))] = line;
    return out;
}

/// Checks that a fixture sets every field: each field line of `text`
/// differs from the same field of a default-constructed artifact, so a
/// round trip that reproduces `text` carries every field.
void expect_every_field_set(const std::string& text,
                            const std::string& defaults) {
    const auto set = keyed_lines(text);
    const auto unset = keyed_lines(defaults);
    EXPECT_EQ(set.size(), unset.size());
    for (const auto& [key, line] : unset) {
        const auto it = set.find(key);
        ASSERT_NE(it, set.end()) << key;
        EXPECT_NE(it->second, line) << key << " is at its default";
    }
}

TEST(CampaignArtifacts, TestsRoundTripEveryField) {
    flow::ExperimentRunner::TestSet t;
    t.stuck = {{2, netlist::kNoNet, -1, false}, {3, 4, 0, true}};
    t.tests.vectors = {{true, false, true}, {false, false, true}};
    t.tests.random_count = 1;
    t.tests.deterministic_count = 1;
    t.tests.detected = 1;
    t.tests.redundant = 1;
    t.tests.aborted = 2;
    t.tests.untargeted = 3;
    t.tests.stop = support::StopReason::VectorBudget;
    t.tests.ndetect = 2;
    t.tests.topup_random_count = 4;
    t.tests.topup_weighted_count = 5;
    t.tests.topup_deterministic_count = 6;
    t.tests.first_detected_at = {1, -1};
    t.tests.detection_counts = {2, 0};
    t.tests.nth_detected_at = {2, -1};
    t.tests.status = {atpg::FaultStatus::Detected,
                      atpg::FaultStatus::Redundant};
    t.t_curve = flow::CoverageCurve({0.5, 1.0});
    t.t_curve_raw = flow::CoverageCurve({0.25, 0.5});
    const std::string text = serialize_tests(t);
    EXPECT_EQ(text.substr(0, text.find('\n')), "dlproj-tests 3");
    expect_every_field_set(text, serialize_tests({}));
    const auto back = parse_tests(text);
    EXPECT_EQ(back.stuck, t.stuck);
    EXPECT_EQ(back.tests.vectors, t.tests.vectors);
    EXPECT_EQ(back.tests.status, t.tests.status);
    EXPECT_EQ(serialize_tests(back), text);
}

TEST(CampaignArtifacts, SimulationRoundTripEveryField) {
    flow::ExperimentRunner::SimulationData d;
    d.theta_curve = flow::CoverageCurve({0.25, 0.75});
    d.gamma_curve = flow::CoverageCurve({0.125, 0.5});
    d.theta_iddq_curve = flow::CoverageCurve({0.375, 0.875});
    d.first_detected_at = {1, 2, -1};
    d.iddq_detected_at = {2, -1, -1};
    d.stop = support::StopReason::VectorBudget;
    d.vectors_done = 2;
    d.vectors_total = 8;
    const std::string text = serialize_simulation(d);
    expect_every_field_set(text, serialize_simulation({}));
    const auto back = parse_simulation(text);
    EXPECT_EQ(back.first_detected_at, d.first_detected_at);
    EXPECT_EQ(back.stop, d.stop);
    EXPECT_EQ(serialize_simulation(back), text);
}

TEST(CampaignArtifacts, CellRoundTripEveryField) {
    CellResult c;
    c.circuit = "c17";
    c.rules = "uniform";
    c.atpg = "default";
    c.seed = 7;
    c.mapped_gates = 6;
    c.stuck_faults = 22;
    c.realistic_faults = 40;
    c.transistors = 24;
    c.vector_count = 9;
    c.random_vectors = 5;
    c.yield = 0.8;
    c.fit_r = 1.25;
    c.fit_theta_max = 0.9375;
    c.fit_rms = 0.03125;
    c.ndetect = 4;
    c.ndetect_min = 2;
    c.ndetect_mean = 3.25;
    c.worst_case_coverage = 0.5;
    c.avg_case_coverage = 0.8125;
    c.analysis = true;
    c.untestable_faults = 3;
    c.fit_raw_r = 0.5;
    c.fit_raw_theta_max = 1.5;
    c.defect_stats = "negbin:2";
    c.stat_yield = 0.8375;
    c.fit_c_r = 0.25;
    c.fit_c_theta_max = 0.75;
    c.fit_c_alpha = 2.125;
    c.fit_c_rms = 0.0625;
    c.interruption = "switch-sim:VectorBudget";
    c.t_curve = flow::CoverageCurve({0.5, 1.0});
    c.t_curve_raw = flow::CoverageCurve({0.375, 0.75});
    c.theta_curve = flow::CoverageCurve({0.25, 0.625});
    c.gamma_curve = flow::CoverageCurve({0.125, 0.5});
    c.theta_iddq_curve = flow::CoverageCurve({0.5, 0.875});
    const std::string text = serialize_cell(c);
    EXPECT_EQ(text.substr(0, text.find('\n')), "dlproj-cell 4");
    expect_every_field_set(text, serialize_cell({}));
    const CellResult back = parse_cell(text);
    EXPECT_TRUE(back.analysis);
    EXPECT_EQ(back.defect_stats, "negbin:2");
    EXPECT_EQ(back.interruption, "switch-sim:VectorBudget");
    EXPECT_EQ(serialize_cell(back), text);

    // A default cell writes the same layout: every field, at its default.
    const std::string plain = serialize_cell({});
    EXPECT_EQ(plain.substr(0, plain.find('\n')), "dlproj-cell 4");
    EXPECT_EQ(serialize_cell(parse_cell(plain)), plain);
}

TEST(CampaignArtifacts, EachParserAcceptsOneMagicLine) {
    const std::string cell = serialize_cell({});
    const std::string body = cell.substr(cell.find('\n'));
    for (const char* magic :
         {"dlproj-cell 1", "dlproj-cell 2", "dlproj-cell 3", "dlproj-cell 5"})
        EXPECT_THROW(parse_cell(magic + body), std::runtime_error) << magic;
    const std::string tests = serialize_tests({});
    const std::string tbody = tests.substr(tests.find('\n'));
    for (const char* magic : {"dlproj-tests 1", "dlproj-tests 2"})
        EXPECT_THROW(parse_tests(magic + tbody), std::runtime_error) << magic;
}

// --- end-to-end campaign cache guarantees -------------------------------

CampaignOptions cached_options(const std::string& cache_dir) {
    CampaignOptions opt;
    opt.cache_dir = cache_dir;
    return opt;
}

TEST(CampaignCache, ColdThenWarmAccounting) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    const std::string cache = scratch_dir("accounting");

    const CampaignReport cold = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(cold.stats.cells_total, 4u);
    EXPECT_EQ(cold.stats.cells_completed, 4u);
    EXPECT_EQ(cold.stats.cell_hits, 0u);
    EXPECT_EQ(cold.stats.cell_misses, 4u);
    ASSERT_EQ(cold.cells.size(), 4u);
    for (const CellResult& c : cold.cells) {
        EXPECT_GT(c.stuck_faults, 0u);
        EXPECT_GT(c.vector_count, 0u);
        EXPECT_GT(c.t_curve.final(), 0.0);
        EXPECT_TRUE(c.interruption.empty());
    }

    const CampaignReport warm = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(warm.stats.cell_hits, 4u);
    EXPECT_EQ(warm.stats.cell_misses, 0u);
    EXPECT_EQ(warm.stats.store_corrupt, 0u);
    // The science reports are byte-identical; only accounting differs.
    EXPECT_EQ(report_json(warm), report_json(cold));
    EXPECT_EQ(report_csv(warm), report_csv(cold));
}

TEST(CampaignNDetect, AxisGridSharesClassicCacheByteIdentically) {
    // The n=1 cells of an ndetect-axis grid carry the same artifact keys
    // and bytes as a classic campaign's, so a cache warmed without the
    // axis serves them — and the axis report must not depend on whether
    // its n=1 cells were hits or fresh.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {"c17"};
    spec.rules = {"bridging"};
    const std::string cache = scratch_dir("ndetect_axis");
    const CampaignReport classic = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(classic.stats.cell_misses, 1u);
    EXPECT_FALSE(classic.ndetect_axis);

    spec.ndetect = {1, 2};
    const CampaignReport warm = run_campaign(spec, cached_options(cache));
    EXPECT_TRUE(warm.ndetect_axis);
    EXPECT_EQ(warm.stats.cell_hits, 1u);    // the n=1 cell
    EXPECT_EQ(warm.stats.cell_misses, 1u);  // the n=2 cell
    const CampaignReport cold =
        run_campaign(spec, cached_options(scratch_dir("ndetect_axis_cold")));
    EXPECT_EQ(report_json(warm), report_json(cold));
    EXPECT_EQ(report_csv(warm), report_csv(cold));
    ASSERT_EQ(warm.cells.size(), 2u);
    EXPECT_EQ(warm.cells[0].ndetect, 1);
    EXPECT_EQ(warm.cells[1].ndetect, 2);
    // c17 is fully testable: at n=1 the derived quality figures collapse
    // to the (complete) coverage.
    EXPECT_EQ(warm.cells[0].worst_case_coverage, 1.0);
    EXPECT_EQ(warm.cells[0].ndetect_min, 1);
    EXPECT_GE(warm.cells[1].avg_case_coverage,
              warm.cells[1].worst_case_coverage);
}

TEST(CampaignCache, OldLayoutCellIsAMissRecomputedAndOverwritten) {
    // A cell object in a layout older binaries wrote ("dlproj-cell 1", no
    // n-detection, analysis or backend fields) no longer parses: the run
    // counts a miss, recomputes the cell and overwrites the object.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {"c17"};
    spec.rules = {"uniform"};
    const std::string cache = scratch_dir("old_layout");
    const CampaignReport cold = run_campaign(spec, cached_options(cache));
    ASSERT_EQ(cold.stats.cell_misses, 1u);

    // Recover the cell's key from its object ("--" ends the header; the
    // key bytes follow).
    std::string object_file;
    for (const auto& e : fs::recursive_directory_iterator(cache + "/objects"))
        if (e.path().filename().string().ends_with("-cell"))
            object_file = e.path().string();
    ASSERT_FALSE(object_file.empty());
    std::ifstream in(object_file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const std::size_t key_at = bytes.find("\n--\n") + 4;
    const std::size_t key_bytes =
        std::stoul(bytes.substr(bytes.find("key-bytes ") + 10));
    const std::string key = bytes.substr(key_at, key_bytes);
    ArtifactStore store(cache);
    const std::string fresh = *store.get("cell", key);

    // Plant the version-1 layout of the same cell under that key.
    std::string old = "dlproj-cell 1\n";
    {
        const std::set<std::string> v1_fields = {
            "circuit",     "rules",        "atpg",
            "seed",        "mapped_gates", "stuck_faults",
            "realistic_faults", "transistors", "vector_count",
            "random_vectors", "yield",     "fit_r",
            "fit_theta_max", "fit_rms",    "interruption",
            "t_curve",     "theta_curve",  "gamma_curve",
            "theta_iddq_curve"};
        std::istringstream lines(fresh);
        std::string line;
        std::getline(lines, line);  // magic
        while (std::getline(lines, line))
            if (v1_fields.count(line.substr(0, line.find(' '))))
                old += line + "\n";
    }
    store.put("cell", key, old);
    EXPECT_THROW(parse_cell(old), std::runtime_error);

    const CampaignReport rerun = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(rerun.stats.cell_hits, 0u);
    EXPECT_EQ(rerun.stats.cell_misses, 1u);
    EXPECT_EQ(report_json(rerun), report_json(cold));
    EXPECT_EQ(report_csv(rerun), report_csv(cold));
    EXPECT_EQ(*store.get("cell", key), fresh);  // overwritten

    const CampaignReport warm = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(warm.stats.cell_hits, 1u);
    EXPECT_EQ(report_json(warm), report_json(cold));
}

TEST(CampaignCache, TestsArtifactSharedAcrossRuleDecks) {
    // Two cells differ only in the rule deck: the collapsed faults and the
    // ATPG test set depend on (circuit, seed, atpg) but not on the rules,
    // so the second cell's cold run reuses the first cell's artifacts.
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    const CampaignReport cold =
        run_campaign(spec, cached_options(scratch_dir("xcell")));
    EXPECT_EQ(cold.stats.cell_misses, 4u);
    // 2 circuits x 2 rule decks: one tests miss + one tests hit each.
    EXPECT_EQ(cold.stats.tests_misses, 2u);
    EXPECT_EQ(cold.stats.tests_hits, 2u);
    EXPECT_EQ(cold.stats.sim_hits, 0u);  // sim depends on the rules
}

TEST(CampaignCache, UncachedRunsMatchCachedContent) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    CampaignOptions uncached;  // no cache_dir at all
    const CampaignReport a = run_campaign(spec, uncached);
    const CampaignReport b =
        run_campaign(spec, cached_options(scratch_dir("nocache_cmp")));
    EXPECT_EQ(a.stats.cell_hits + a.stats.cell_misses, 0u);
    EXPECT_EQ(report_json(a), report_json(b));
}

TEST(CampaignReport, ControlCharactersInNamesStayValidJson) {
    // A tab and a raw \x01 in the spec name must come out escaped: the
    // report parses as strict JSON and returns the name unchanged.
    const CampaignSpec spec = parse_campaign_spec(
        "[campaign]\n"
        "name = tab\there\x01"
        "end\n"
        "[grid]\n"
        "circuits = c17\n"
        "rules = uniform\n");
    ASSERT_EQ(spec.name, "tab\there\x01" "end");
    const std::string json = report_json(run_campaign(spec, {}));
    const service::Json doc = service::parse_json(json);
    ASSERT_NE(doc.get("campaign"), nullptr);
    EXPECT_EQ(doc.get("campaign")->as_string(), spec.name);
    EXPECT_NE(json.find("\"tab\\there\\u0001end\""), std::string::npos)
        << json;
}

TEST(CampaignCache, EngineAgnosticKeysWarmAcrossEngines) {
    // Artifact keys deliberately exclude the engine: every registered
    // engine is bit-identical, so a cache warmed by `naive` must be hit —
    // and produce the byte-identical report — under `levelized`.
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    const std::string cache = scratch_dir("xengine");

    CampaignOptions cold_opt = cached_options(cache);
    cold_opt.engine = "naive";
    const CampaignReport cold = run_campaign(spec, cold_opt);
    EXPECT_EQ(cold.stats.cell_misses, 4u);

    CampaignOptions warm_opt = cached_options(cache);
    warm_opt.engine = "levelized";
    const CampaignReport warm = run_campaign(spec, warm_opt);
    EXPECT_EQ(warm.stats.cell_hits, 4u);
    EXPECT_EQ(warm.stats.cell_misses, 0u);
    EXPECT_EQ(report_json(warm), report_json(cold));

    // And the other way around, cold-to-cold: the engines compute the
    // byte-identical artifacts in the first place.
    CampaignOptions fresh = cached_options(scratch_dir("xengine2"));
    fresh.engine = "levelized";
    const CampaignReport lev_cold = run_campaign(spec, fresh);
    EXPECT_EQ(lev_cold.stats.cell_misses, 4u);
    EXPECT_EQ(report_json(lev_cold), report_json(cold));
}

TEST(CampaignSpec, EngineKeySelectsARegisteredEngine) {
    const CampaignSpec s = parse_campaign_spec(
        "[campaign]\n"
        "engine = levelized\n"
        "[grid]\n"
        "circuits = c17\n"
        "rules = uniform\n");
    EXPECT_EQ(s.engine, "levelized");
    EXPECT_EQ(parse_campaign_spec("[grid]\ncircuits = c17\nrules = uniform\n")
                  .engine,
              "");  // empty = the default engine
    EXPECT_THROW(parse_campaign_spec("[campaign]\n"
                                     "engine = warp9\n"
                                     "[grid]\n"
                                     "circuits = c17\n"
                                     "rules = uniform\n"),
                 std::runtime_error);
}

TEST(CampaignCache, ShardedRunsMergeToUnshardedReport) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    const std::string cache = scratch_dir("shardmerge");
    const CampaignReport full = run_campaign(spec, cached_options(cache));

    std::vector<CellResult> merged;
    const std::string cache2 = scratch_dir("shardmerge2");
    for (int i = 0; i < 2; ++i) {
        CampaignOptions opt = cached_options(cache2);
        opt.shard = Shard{i, 2};
        const CampaignReport part = run_campaign(spec, opt);
        EXPECT_EQ(part.stats.cells_selected, 2u);
        merged.insert(merged.end(), part.cells.begin(), part.cells.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const CellResult& a, const CellResult& b) {
                  return a.index < b.index;
              });
    CampaignReport assembled;
    assembled.name = full.name;
    assembled.cells = std::move(merged);
    EXPECT_EQ(report_json(assembled), report_json(full));
    EXPECT_EQ(report_csv(assembled), report_csv(full));
}

TEST(CampaignCache, CancelThenResumeIsByteIdentical) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);

    // Reference: one uninterrupted run in its own cache.
    const CampaignReport reference =
        run_campaign(spec, cached_options(scratch_dir("resume_ref")));

    // Interrupted run: request cancellation (through a copy of the shared
    // token, as a watchdog thread would) once two cells have completed.
    // The campaign checks the budget at cell boundaries, completes nothing
    // further, and commits nothing for uncompleted work.
    const std::string cache = scratch_dir("resume");
    CampaignOptions opt = cached_options(cache);
    support::CancelToken killswitch = opt.budget.cancel;  // shared flag
    opt.progress = [&killswitch](std::string_view stage, std::size_t done,
                                 std::size_t) {
        if (stage == "campaign" && done == 2) killswitch.request();
    };
    const CampaignReport interrupted = run_campaign(spec, opt);
    EXPECT_EQ(interrupted.stats.stop, support::StopReason::Cancelled);
    EXPECT_EQ(interrupted.cells.size(), 2u);
    EXPECT_EQ(interrupted.stats.cells_completed, 2u);

    // Resume: same cache, fresh budget.  The first two cells are whole-cell
    // hits; the rest compute now.  The report must match the uninterrupted
    // reference byte for byte.
    const CampaignReport resumed = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(resumed.stats.cell_hits, 2u);
    EXPECT_EQ(resumed.stats.cell_misses, 2u);
    EXPECT_EQ(resumed.cells.size(), 4u);
    EXPECT_EQ(report_json(resumed), report_json(reference));
    EXPECT_EQ(report_csv(resumed), report_csv(reference));
}

TEST(CampaignCache, CorruptedEntriesAreRecomputedAndRepaired) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    const std::string cache = scratch_dir("repair");
    const CampaignReport cold = run_campaign(spec, cached_options(cache));

    // Flip the last byte of every committed object.
    std::size_t damaged = 0;
    for (const auto& entry : fs::recursive_directory_iterator(cache)) {
        if (!entry.is_regular_file()) continue;
        std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                         std::ios::binary | std::ios::ate);
        ASSERT_TRUE(f.is_open());
        const auto size = static_cast<long long>(f.tellg());
        f.seekg(size - 1);
        const char last = static_cast<char>(f.get());
        f.seekp(size - 1);
        f.put(last == 'Z' ? 'z' : 'Z');
        ++damaged;
    }
    ASSERT_GT(damaged, 0u);

    // The warm run detects every corrupted object, recomputes, and matches
    // the cold report byte for byte.
    const CampaignReport repair = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(repair.stats.cell_hits, 0u);
    EXPECT_GT(repair.stats.store_corrupt, 0u);
    EXPECT_EQ(report_json(repair), report_json(cold));

    // ...and the repaired cache serves the next run entirely from hits.
    const CampaignReport healed = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(healed.stats.cell_hits, 4u);
    EXPECT_EQ(healed.stats.store_corrupt, 0u);
    EXPECT_EQ(report_json(healed), report_json(cold));
}

TEST(CampaignLint, BadCircuitFailsTheGateWithCellIdentity) {
    // The PR 4 static-analysis gate runs per cell; a defective circuit
    // aborts the campaign with the offending cell named in the error.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {std::string(DLPROJ_DATA_DIR) + "/bad_dangling.bench"};
    try {
        run_campaign(spec, {});
        FAIL() << "expected the lint gate to reject the circuit";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("bad_dangling"),
                  std::string::npos)
            << e.what();
    }
}

// --- the analysis axis --------------------------------------------------

/// Writes the absorption fixture (y = a OR (a AND b), so y == a and the
/// AND gate is redundant logic) to a scratch .bench the grid can resolve.
std::string write_redundant_bench(const std::string& tag) {
    const std::string dir = scratch_dir("bench_" + tag);
    fs::create_directories(dir);
    const std::string path = dir + "/absorption.bench";
    std::ofstream out(path);
    out << "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
           "n1 = AND(a, b)\ny = OR(a, n1)\n";
    return path;
}

TEST(CampaignAnalysis, SpecAxisParsesAndEnumeratesInnermost) {
    const CampaignSpec s = parse_campaign_spec(
        "[grid]\n"
        "circuits = c17\n"
        "rules = bridging, uniform\n"
        "ndetect = 1, 2\n"
        "analysis = off, on\n");
    EXPECT_TRUE(s.has_analysis_axis());
    EXPECT_EQ(s.cell_count(), 1u * 2u * 2u * 2u);
    // The analysis setting is the innermost axis: it toggles fastest, so
    // classic specs (default {off}) enumerate exactly as before.
    EXPECT_FALSE(cell_at(s, 0).analysis);
    EXPECT_TRUE(cell_at(s, 1).analysis);
    EXPECT_EQ(cell_at(s, 1).ndetect, 1);
    EXPECT_EQ(cell_at(s, 2).ndetect, 2);
    EXPECT_EQ(cell_at(s, 3).rules, "bridging");
    EXPECT_EQ(cell_at(s, 4).rules, "uniform");

    EXPECT_FALSE(parse_campaign_spec(kSmallSpec).has_analysis_axis());
    EXPECT_THROW(parse_campaign_spec("[grid]\ncircuits = c17\n"
                                     "rules = uniform\nanalysis = maybe\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("[grid]\ncircuits = c17\n"
                                     "rules = uniform\nanalysis =\n"),
                 std::runtime_error);
}

TEST(CampaignAnalysis, AnalysisArtifactRoundTrip) {
    flow::ExperimentRunner::AnalysisData a;
    a.stuck = {{2, netlist::kNoNet, -1, false},
               {3, 4, 0, true},
               {5, 4, 1, false}};
    a.untestable = {0, 1, 0};
    a.stats.pivots_done = 7;
    a.stats.pivots_total = 9;
    a.stats.implications = 41;
    a.stats.learned = 5;
    a.stats.constant_lines = 1;
    a.stats.proofs = 1;
    a.stop = support::StopReason::DeadlineExpired;
    const std::string text = serialize_analysis(a);
    expect_every_field_set(text, serialize_analysis({}));
    EXPECT_EQ(serialize_analysis(parse_analysis(text)), text);
    const auto back = parse_analysis(text);
    EXPECT_EQ(back.stuck, a.stuck);
    EXPECT_EQ(back.untestable, a.untestable);
    EXPECT_EQ(back.stats.pivots_done, 7u);
    EXPECT_EQ(back.stats.pivots_total, 9u);
    EXPECT_EQ(back.stats.implications, 41u);
    EXPECT_EQ(back.stats.learned, 5u);
    EXPECT_EQ(back.stats.constant_lines, 1u);
    EXPECT_EQ(back.stats.proofs, 1u);
    EXPECT_EQ(back.stop, support::StopReason::DeadlineExpired);
    // Proofs are deliberately not serialized: downstream consumers only
    // need the marks and the stats.
    EXPECT_TRUE(back.proofs.empty());
    EXPECT_THROW(parse_analysis("dlproj-analysis 99\n"), std::runtime_error);
    EXPECT_THROW(parse_analysis("garbage"), std::runtime_error);
}

TEST(CampaignAnalysis, AxisGridSharesClassicCacheByteIdentically) {
    // The off cells of an analysis-axis grid carry the same keys and bytes
    // as a classic campaign's, so a cache warmed without the axis serves
    // them; the report must not depend on hit-vs-fresh for any cell.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {write_redundant_bench("axis")};
    spec.rules = {"uniform"};
    const std::string cache = scratch_dir("analysis_axis");
    const CampaignReport classic = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(classic.stats.cell_misses, 1u);
    EXPECT_FALSE(classic.analysis_axis);
    EXPECT_EQ(classic.stats.analysis_misses, 0u);  // stage never ran

    spec.analysis = {0, 1};
    const CampaignReport warm = run_campaign(spec, cached_options(cache));
    EXPECT_TRUE(warm.analysis_axis);
    EXPECT_EQ(warm.stats.cell_hits, 1u);    // the off cell: classic bytes
    EXPECT_EQ(warm.stats.cell_misses, 1u);  // the on cell
    EXPECT_EQ(warm.stats.analysis_misses, 1u);
    const CampaignReport cold = run_campaign(
        spec, cached_options(scratch_dir("analysis_axis_cold")));
    EXPECT_EQ(report_json(warm), report_json(cold));
    EXPECT_EQ(report_csv(warm), report_csv(cold));

    ASSERT_EQ(warm.cells.size(), 2u);
    const CellResult& off = warm.cells[0];
    const CellResult& on = warm.cells[1];
    EXPECT_FALSE(off.analysis);
    EXPECT_EQ(off.untestable_faults, 0u);
    EXPECT_TRUE(off.t_curve_raw.empty());
    EXPECT_TRUE(on.analysis);
    // The fixture's redundant AND gate yields untestable faults, and the
    // corrected coverage diverges from the raw curve in the report.
    EXPECT_GT(on.untestable_faults, 0u);
    ASSERT_FALSE(on.t_curve_raw.empty());
    EXPECT_LT(on.t_curve_raw.final(), on.t_curve.final());

    // A fully warm re-run hits both cells and reproduces the bytes.
    const CampaignReport rewarm = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(rewarm.stats.cell_hits, 2u);
    EXPECT_EQ(report_json(rewarm), report_json(warm));
}

TEST(CampaignDefectStats, SpecAxisParsesCanonicalizesAndEnumeratesInnermost) {
    const CampaignSpec s = parse_campaign_spec(
        "[grid]\n"
        "circuits = c17\n"
        "rules = bridging, uniform\n"
        "analysis = off, on\n"
        "defect_stats = poisson, negbin:2, negbin:inf\n");
    EXPECT_TRUE(s.has_defect_stats_axis());
    EXPECT_EQ(s.cell_count(), 2u * 2u * 3u);
    // The backend is the innermost axis, and descriptors are canonical:
    // negbin:inf is spelled poisson so the alpha -> inf limit shares the
    // Poisson cache keys.
    EXPECT_EQ(cell_at(s, 0).defect_stats, "poisson");
    EXPECT_EQ(cell_at(s, 1).defect_stats, "negbin:2");
    EXPECT_EQ(cell_at(s, 2).defect_stats, "poisson");
    EXPECT_FALSE(cell_at(s, 2).analysis);
    EXPECT_TRUE(cell_at(s, 3).analysis);
    EXPECT_EQ(cell_at(s, 6).rules, "uniform");

    // A spec without the key has the single-poisson default: no axis.
    EXPECT_FALSE(parse_campaign_spec(kSmallSpec).has_defect_stats_axis());
    EXPECT_THROW(
        parse_campaign_spec("[grid]\ncircuits = c17\nrules = uniform\n"
                            "defect_stats = negbin:-1\n"),
        std::runtime_error);
    EXPECT_THROW(
        parse_campaign_spec("[grid]\ncircuits = c17\nrules = uniform\n"
                            "defect_stats =\n"),
        std::runtime_error);
}

TEST(CampaignDefectStats, AxisGridSharesClassicCacheByteIdentically) {
    // The poisson cells of a defect_stats-axis grid carry the same keys
    // and bytes as a classic campaign's, so a cache warmed without the
    // axis serves them — and the clustered cell reuses the cached
    // faults/tests/sim artifacts (the backend only reinterprets the
    // detection tables; it never re-simulates).
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {"c17"};
    spec.rules = {"uniform"};
    const std::string cache = scratch_dir("defect_stats_axis");
    const CampaignReport classic = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(classic.stats.cell_misses, 1u);
    EXPECT_FALSE(classic.defect_stats_axis);

    spec.defect_stats = {"poisson", "negbin:2"};
    const CampaignReport warm = run_campaign(spec, cached_options(cache));
    EXPECT_TRUE(warm.defect_stats_axis);
    EXPECT_EQ(warm.stats.cell_hits, 1u);    // the poisson cell
    EXPECT_EQ(warm.stats.cell_misses, 1u);  // the negbin cell
    EXPECT_EQ(warm.stats.sim_hits, 1u);     // shared across the axis
    EXPECT_EQ(warm.stats.sim_misses, 0u);
    const CampaignReport cold = run_campaign(
        spec, cached_options(scratch_dir("defect_stats_axis_cold")));
    EXPECT_EQ(report_json(warm), report_json(cold));
    EXPECT_EQ(report_csv(warm), report_csv(cold));

    ASSERT_EQ(warm.cells.size(), 2u);
    const CellResult& poisson = warm.cells[0];
    const CellResult& negbin = warm.cells[1];
    EXPECT_EQ(poisson.defect_stats, "poisson");
    EXPECT_EQ(poisson.stat_yield, poisson.yield);
    EXPECT_EQ(negbin.defect_stats, "negbin:2");
    // Weight scaling stays Poisson, so the workload facts and curves are
    // bit-identical; only the statistical reinterpretation differs.
    EXPECT_EQ(negbin.yield, poisson.yield);
    EXPECT_EQ(negbin.vector_count, poisson.vector_count);
    ASSERT_EQ(negbin.theta_curve.size(), poisson.theta_curve.size());
    EXPECT_EQ(negbin.theta_curve.final(), poisson.theta_curve.final());
    // Clustering concentrates defects on few dies: more dies are clean.
    EXPECT_GT(negbin.stat_yield, negbin.yield);
    EXPECT_GT(negbin.fit_c_alpha, 0.0);

    // A fully warm re-run hits both cells and reproduces the bytes.
    const CampaignReport rewarm = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(rewarm.stats.cell_hits, 2u);
    EXPECT_EQ(report_json(rewarm), report_json(warm));
}

TEST(CampaignDefectStats, AlphaToInfinityMatchesPoissonEndToEnd) {
    // negbin with a huge alpha must agree with the Poisson pipeline end
    // to end: same workload bytes, and the clustered yield converges to
    // the Poisson yield (error is O(lambda^2 / alpha)).
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {"c17"};
    spec.rules = {"uniform"};
    spec.defect_stats = {"poisson", "negbin:1000000"};
    const CampaignReport r =
        run_campaign(spec, cached_options(scratch_dir("defect_stats_inf")));
    ASSERT_EQ(r.cells.size(), 2u);
    const CellResult& poisson = r.cells[0];
    const CellResult& limit = r.cells[1];
    EXPECT_EQ(limit.defect_stats, "negbin:1000000");
    EXPECT_EQ(limit.yield, poisson.yield);
    EXPECT_EQ(limit.theta_curve.final(), poisson.theta_curve.final());
    EXPECT_NEAR(limit.stat_yield, poisson.yield,
                1e-5 * std::max(poisson.yield, 1e-300));
    // The joint clustered fit reproduces the Poisson fit in the limit.
    EXPECT_NEAR(limit.fit_c_r, poisson.fit_r, 1e-3 + 0.05 * poisson.fit_r);
    EXPECT_NEAR(limit.fit_c_theta_max, poisson.fit_theta_max,
                1e-3 + 0.05 * poisson.fit_theta_max);
}

TEST(CampaignBudget, VectorBudgetIsDeterministicConfigNotAnInterruption) {
    // max_vectors caps every cell identically; it is part of the cache key
    // and the stopped-early curves still cache and reproduce.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.max_vectors = 8;
    const std::string cache = scratch_dir("budget");
    const CampaignReport a = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(a.stats.stop, support::StopReason::None);
    for (const CellResult& c : a.cells) EXPECT_LE(c.vector_count, 8u);
    const CampaignReport b = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(b.stats.cell_hits, 4u);
    EXPECT_EQ(report_json(a), report_json(b));
    // A different budget is a different cache key, not a stale hit.
    CampaignSpec wider = spec;
    wider.max_vectors = 0;
    const CampaignReport c = run_campaign(wider, cached_options(cache));
    EXPECT_EQ(c.stats.cell_hits, 0u);
    EXPECT_NE(report_json(c), report_json(a));
}

}  // namespace
}  // namespace dlp::campaign
