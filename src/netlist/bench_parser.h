// Reader/writer for the ISCAS-85 / LGSynth ".bench" netlist format:
//
//   # comment
//   INPUT(1)
//   OUTPUT(22)
//   10 = NAND(1, 3)
//
// Gates are topologically sorted on load, so forward references are allowed.
#pragma once

#include <string>
#include <vector>

#include "netlist/circuit.h"

namespace dlp::netlist {

/// An INPUT(...) or OUTPUT(...) declaration.
struct BenchDecl {
    std::string name;
    int line = 0;
};

/// A `<net> = TYPE(a, b, ...)` line.
struct BenchGate {
    std::string out;
    GateType type = GateType::Buf;
    std::vector<std::string> fanin;
    int line = 0;
};

/// A line that does not fit the grammar.
struct BenchFinding {
    int line = 0;
    std::string message;
};

/// The line grammar of .bench alone: every well-formed declaration in
/// file order, and one finding per malformed line (which is skipped).
/// No cross-line check (multiply driven nets, cycles, arity) happens here.
struct BenchScan {
    std::vector<BenchDecl> inputs;
    std::vector<BenchDecl> outputs;
    std::vector<BenchGate> gates;
    std::vector<BenchFinding> findings;  ///< in line order
};

/// Scans .bench text line by line.  parse_bench throws on the first
/// finding; the linter (lint::lint_bench_text) reports all of them.
BenchScan scan_bench(const std::string& text);

/// Parses .bench text into a Circuit.  Throws std::runtime_error with a
/// line-numbered message on malformed input.
Circuit parse_bench(const std::string& text, std::string circuit_name);

/// Loads a .bench file from disk.
Circuit load_bench_file(const std::string& path);

/// Serializes a circuit back to .bench text (round-trips with parse_bench).
std::string to_bench(const Circuit& circuit);

/// Writes to_bench(circuit) to a file (e.g. the golden data/c432.bench
/// fixture).  Throws std::runtime_error on I/O failure.
void write_bench(const Circuit& circuit, const std::string& path);

}  // namespace dlp::netlist
