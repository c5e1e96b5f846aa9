// Layout fault extraction (the paper's `lift` role): walks the flattened
// layout, computes weighted critical areas per defect mechanism, and emits
// a list of realistic transistor-level faults, each with weight
// w_j = A_j * D_j (eq. 4 discussion: the mean number of inducing defects).
//
// Mechanisms:
//  * same-layer extra material  -> Bridge(netA, netB)      (parallel runs)
//  * gate-oxide pinhole         -> Bridge(gate net, channel drain net)
//  * missing material in a cell -> TransistorOpen / GateFloat per the
//    shape's ShapeInfo tag
//  * missing material / cut open in routing -> NetOpen (trunk: all sinks;
//    riser: one sink), or PoFloat for an output-pad branch
//  * contact/via opens          -> same mapping as their host shape
//
// Bridges between the two supply nets are classified Gross (they fail any
// test immediately) and kept only in the yield weight.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "extract/defect_stats.h"
#include "layout/chip.h"

namespace dlp::extract {

struct ExtractedFault {
    enum class Kind : std::uint8_t {
        Bridge,          ///< short between nets a and b
        TransistorOpen,  ///< source/drain path of listed transistors broken
        GateFloat,       ///< gates of listed transistors floating
        NetOpen,         ///< routing open on `net` (sink < 0: all sinks)
        PoFloat,         ///< PO pad/riser open, output ordinal `po`
        Gross,           ///< supply-to-supply short (kills the die outright)
    };
    Kind kind = Kind::Bridge;
    cell::NetRef a;  ///< Bridge endpoints
    cell::NetRef b;
    /// Third endpoint of a multi-node bridge (a large defect spanning three
    /// adjacent wires); NetRef::none() for ordinary two-net bridges.
    cell::NetRef c = cell::NetRef::none();
    std::vector<std::pair<std::int32_t, int>> transistors;  ///< (instance, local)
    netlist::NetId net = netlist::kNoNet;  ///< NetOpen
    int sink = -1;                         ///< NetOpen sink ordinal
    int po = -1;                           ///< PoFloat ordinal
    double weight = 0.0;
    std::string description;
};

struct ExtractOptions {
    std::int64_t max_bridge_spacing = 12;  ///< ignore farther pairs
    double min_weight = 0.0;               ///< drop lighter faults (0: keep all)
    /// Extract three-net bridges from defects spanning a wire and both of
    /// its neighbours (the paper's "bridging faults usually affect multiple
    /// nodes"); they are lighter (bigger defects) but easier to detect.
    bool multi_node_bridges = true;
};

struct ExtractionResult {
    std::vector<ExtractedFault> faults;
    double total_weight = 0.0;  ///< sum of all weights (incl. Gross)
    std::map<std::string, double> weight_by_class;  ///< mechanism breakdown

    double yield() const;  ///< e^{-total_weight}, eq (5)
    /// All fault weights (for the fig. 3 histogram).
    std::vector<double> weights() const;
};

ExtractionResult extract_faults(const layout::ChipLayout& chip,
                                const DefectStatistics& stats,
                                const ExtractOptions& options = {});

}  // namespace dlp::extract
