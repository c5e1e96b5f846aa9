// Unified fault-simulation engine API (namespace dlp::sim).
//
// Two simulators implement it (the naive scalar reference oracle and the
// levelized bit-parallel engine).  Every layer that grades stuck-at
// coverage — ATPG test generation, vector compaction, the experiment flow,
// campaigns, the CLIs — selects its simulator through ONE interface: a
// named `Engine` in a constant process-wide table opens a `Session` bound to
// (circuit, fault list), and the session applies test vectors under the
// standard budget/cancellation contract.
//
// The load-bearing invariant: every registered engine produces BIT-IDENTICAL
// results — the same first-detection index per fault, hence byte-identical
// coverage curves — for any vector sequence, worker count, and budget.
// Engine identity is therefore a pure performance choice: campaign artifact
// keys deliberately exclude it, so a cache warmed by one engine is hit by
// every other (tests/test_campaign.cpp enforces this, and the differential
// suite in tests/test_engine.cpp enforces cross-engine identity against the
// naive oracle).
//
// Selection resolves in one place (resolve_engine): an explicit name
// (campaign spec `engine =` key, dlproj_campaign --engine, an options
// field) wins, else the default ("levelized").  Unknown names throw with
// the registered list.  The table is immutable, so every lookup is safe
// from concurrent callers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gatesim/faults.h"
#include "gatesim/logic_sim.h"
#include "parallel/parallel_for.h"
#include "parallel/progress.h"
#include "support/cancel.h"

namespace dlp::sim {

/// Per-session knobs passed to Engine::open().
struct SessionOptions {
    /// n-detection target: a fault is dropped from simulation only after
    /// it has been detected by `ndetect` vector positions (Pomeranz &
    /// Reddy n-detection test sets).  1 recovers the classic single-
    /// detection behavior exactly — same dropping, same work, same bytes.
    int ndetect = 1;
    /// Optional per-fault untestability marks (parallel to the fault list;
    /// empty = no marks).  A marked fault is proven undetectable by the
    /// static analysis pass (analysis::find_untestable) and is never
    /// simulated: its detection index stays -1 and its count stays 0, for
    /// every engine.  The marks only *skip* work — they never preset
    /// counts — so detection_counts()/coverage stay honest.
    std::vector<std::uint8_t> untestable;
};

/// A fault-simulation run over one (circuit, stuck-at fault list) pair.
/// Vectors are applied in sequence (appending); per fault the session
/// records the 1-based index of the first detecting vector.  Faults are
/// dropped from subsequent simulation once detected `ndetect` times
/// (SessionOptions; default 1 = classic drop-on-first-detection).
///
/// Contract (shared by every engine, enforced by the differential suite):
///   * apply() consumes vectors in 64-wide pattern blocks and checks the
///     budget at block boundaries only, so a stopped call commits a whole
///     number of blocks and everything recorded is a bit-identical prefix
///     of the unbounded run (see support/cancel.h).
///   * Results are independent of the worker count.
///   * first_detected_at(), detection_counts() and nth_detected_at() are
///     bit-identical across engines.
class Session {
public:
    virtual ~Session() = default;

    /// The fault universe this session grades (in construction order).
    virtual std::span<const gatesim::StuckAtFault> faults() const = 0;

    /// Per fault: 1-based index of the first detecting vector, -1 if still
    /// undetected.
    virtual std::span<const int> first_detected_at() const = 0;

    virtual int vectors_applied() const = 0;

    /// Budget-aware apply; see the class contract.
    virtual support::ApplyResult apply(
        std::span<const gatesim::Vector> vectors,
        const support::RunBudget& budget) = 0;

    /// Unbounded apply; returns the number of newly detected faults.
    int apply(std::span<const gatesim::Vector> vectors) {
        return apply(vectors, support::RunBudget{}).newly_detected;
    }

    // ---- n-detection accounting ------------------------------------------
    // Every engine keeps its own count table (SessionOptions::ndetect).

    /// The session's n-detection target (SessionOptions::ndetect).
    virtual int ndetect_target() const = 0;

    /// Per fault: number of detecting vector positions seen so far,
    /// saturated at ndetect_target().  Monotone in the applied prefix and
    /// (for a fixed sequence) in the target n.
    virtual std::vector<int> detection_counts() const = 0;

    /// Per fault: 1-based index of the vector at which the detection count
    /// reached ndetect_target(); -1 while still below target.  Equals
    /// first_detected_at() when the target is 1.
    virtual std::vector<int> nth_detected_at() const = 0;

    // Derived accessors, computed from the detection table so every engine
    // shares one definition.
    std::size_t detected_count() const;
    double coverage() const;
    /// Coverage after each prefix: result[k-1] = fraction detected by the
    /// first k vectors.
    std::vector<double> coverage_curve() const;
    /// Indices (into faults()) of still-undetected faults.
    std::vector<std::size_t> undetected() const;
    /// Faults whose detection count reached the n-detection target.
    std::size_t fully_detected_count() const;
};

/// Switch-level (realistic-defect) session: the interface the experiment
/// flow drives.  There is exactly one switch-level implementation today
/// (switchsim::SwitchFaultSimulator) and it is shared by all engines — the
/// seam exists so flow::ExperimentRunner never constructs a simulator
/// directly and a future engine can specialize the switch-level path; see
/// switchsim::open_switch_session().
class SwitchSession {
public:
    virtual ~SwitchSession() = default;

    virtual support::ApplyResult apply(
        std::span<const gatesim::Vector> vectors,
        const support::RunBudget& budget) = 0;

    virtual std::span<const int> first_detected_at() const = 0;
    virtual std::span<const int> iddq_detected_at() const = 0;
    virtual std::vector<double> weighted_coverage_curve() const = 0;
    virtual std::vector<double> unweighted_coverage_curve() const = 0;
    virtual std::vector<double> weighted_coverage_curve_with_iddq() const = 0;
    virtual void set_progress(parallel::ProgressFn progress) = 0;
};

/// A named fault-simulation engine: a factory for Sessions.
class Engine {
public:
    virtual ~Engine() = default;

    /// Registry name (stable, lowercase; "levelized", "naive", ...).
    virtual std::string_view name() const = 0;
    /// One-line description for --help output and docs.
    virtual std::string_view description() const = 0;

    /// Opens a session.  `circuit` must outlive the session; `parallel` is
    /// the worker-count request for engines that use the shared pool
    /// (single-threaded engines ignore it; results never depend on it).
    /// `options` carries per-session knobs such as the n-detection target.
    virtual std::unique_ptr<Session> open(
        const gatesim::Circuit& circuit,
        std::vector<gatesim::StuckAtFault> faults,
        parallel::ParallelOptions parallel = {},
        SessionOptions options = {}) const = 0;
};

/// The engine used when no explicit name is given.
inline constexpr std::string_view kDefaultEngine = "levelized";

/// Registered engine names, in table order: naive, levelized.
std::vector<std::string_view> engine_names();

/// The engine registered under `name`; nullptr when unknown.
const Engine* find_engine(std::string_view name);

/// The engine registered under `name`; throws std::invalid_argument naming
/// the registered engines when unknown.
const Engine& engine(std::string_view name);

/// One-stop selection: a non-empty `name` wins, else kDefaultEngine.
/// Throws like engine() on an unknown name.
const Engine& resolve_engine(std::string_view name = {});

}  // namespace dlp::sim
