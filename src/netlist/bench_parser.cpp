#include "netlist/bench_parser.h"

#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace dlp::netlist {

namespace {

std::string trim(const std::string& s) {
    size_t a = 0;
    size_t b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
    return s.substr(a, b - a);
}

std::string upper(std::string s) {
    for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
}

[[noreturn]] void fail(int line, const std::string& what) {
    throw std::runtime_error("bench:" + std::to_string(line) + ": " + what);
}

std::optional<GateType> type_from_string(const std::string& t) {
    const std::string u = upper(t);
    if (u == "BUF" || u == "BUFF") return GateType::Buf;
    if (u == "NOT" || u == "INV") return GateType::Not;
    if (u == "AND") return GateType::And;
    if (u == "NAND") return GateType::Nand;
    if (u == "OR") return GateType::Or;
    if (u == "NOR") return GateType::Nor;
    if (u == "XOR") return GateType::Xor;
    if (u == "XNOR") return GateType::Xnor;
    return std::nullopt;
}

/// Scans one comment-stripped, trimmed, non-empty line into `out`;
/// returns the finding's message for a malformed line, else "".
std::string scan_line(const std::string& line, int line_no, BenchScan& out) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
        // INPUT(x) / OUTPUT(x)
        const size_t lp = line.find('(');
        const size_t rp = line.rfind(')');
        if (lp == std::string::npos || rp == std::string::npos || rp < lp)
            return "expected INPUT(...) or OUTPUT(...)";
        const std::string kw = upper(trim(line.substr(0, lp)));
        std::string arg = trim(line.substr(lp + 1, rp - lp - 1));
        if (arg.empty()) return "empty net name";
        if (kw == "INPUT")
            out.inputs.push_back({std::move(arg), line_no});
        else if (kw == "OUTPUT")
            out.outputs.push_back({std::move(arg), line_no});
        else
            return "unknown directive '" + kw + "'";
        return "";
    }

    BenchGate g;
    g.line = line_no;
    g.out = trim(line.substr(0, eq));
    const std::string rhs = trim(line.substr(eq + 1));
    const size_t lp = rhs.find('(');
    const size_t rp = rhs.rfind(')');
    if (g.out.empty() || lp == std::string::npos || rp == std::string::npos ||
        rp < lp)
        return "expected '<net> = TYPE(a, b, ...)'";
    const std::string type = trim(rhs.substr(0, lp));
    const std::optional<GateType> t = type_from_string(type);
    if (!t) return "unknown gate type '" + type + "'";
    g.type = *t;
    std::string token;
    std::istringstream as(rhs.substr(lp + 1, rp - lp - 1));
    while (std::getline(as, token, ',')) {
        token = trim(token);
        if (token.empty()) return "empty fanin name";
        g.fanin.push_back(token);
    }
    if (g.fanin.empty()) return "gate with no fanin";
    out.gates.push_back(std::move(g));
    return "";
}

}  // namespace

BenchScan scan_bench(const std::string& text) {
    BenchScan scan;
    std::istringstream in(text);
    std::string line_text;
    int line_no = 0;
    while (std::getline(in, line_text)) {
        ++line_no;
        const size_t hash = line_text.find('#');
        if (hash != std::string::npos) line_text.erase(hash);
        const std::string line = trim(line_text);
        if (line.empty()) continue;
        std::string finding = scan_line(line, line_no, scan);
        if (!finding.empty())
            scan.findings.push_back({line_no, std::move(finding)});
    }
    return scan;
}

Circuit parse_bench(const std::string& text, std::string circuit_name) {
    const BenchScan scan = scan_bench(text);
    if (!scan.findings.empty())
        fail(scan.findings.front().line, scan.findings.front().message);
    const std::vector<BenchDecl>& input_names = scan.inputs;
    const std::vector<BenchDecl>& output_names = scan.outputs;
    const std::vector<BenchGate>& raw = scan.gates;

    // Duplicate drivers are rejected up front so the diagnostic carries the
    // offending line even when the duplicates also sit on a cycle.
    std::unordered_map<std::string, int> driver_line;
    for (const BenchGate& g : raw) {
        const auto [it, inserted] = driver_line.emplace(g.out, g.line);
        if (!inserted)
            fail(g.line, "net '" + g.out + "' driven twice (first driver at "
                         "line " + std::to_string(it->second) + ")");
    }

    // Topological emission (forward references are legal in .bench).
    Circuit circuit(std::move(circuit_name));
    std::unordered_map<std::string, NetId> net_of;
    for (const auto& [name, decl_line] : input_names) {
        if (net_of.count(name)) fail(decl_line, "duplicate INPUT " + name);
        if (const auto it = driver_line.find(name); it != driver_line.end())
            fail(it->second, "net '" + name + "' driven twice (INPUT at "
                             "line " + std::to_string(decl_line) + ")");
        net_of[name] = circuit.add_input(name);
    }

    std::vector<bool> emitted(raw.size(), false);
    size_t remaining = raw.size();
    while (remaining > 0) {
        bool progress = false;
        for (size_t i = 0; i < raw.size(); ++i) {
            if (emitted[i]) continue;
            const BenchGate& g = raw[i];
            bool ready = true;
            for (const std::string& f : g.fanin)
                if (!net_of.count(f)) {
                    ready = false;
                    break;
                }
            if (!ready) continue;
            std::vector<NetId> fanin;
            fanin.reserve(g.fanin.size());
            for (const std::string& f : g.fanin) fanin.push_back(net_of[f]);
            // Circuit::add_gate validates arity etc. with invalid_argument;
            // surface those as line-numbered parse diagnostics.
            try {
                net_of[g.out] =
                    circuit.add_gate(g.type, g.out, std::move(fanin));
            } catch (const std::invalid_argument& e) {
                fail(g.line, e.what());
            }
            emitted[i] = true;
            --remaining;
            progress = true;
        }
        if (!progress) {
            // Distinguish the two stall causes: a fanin no line defines is
            // an undefined net; if every fanin has a driver, the unemitted
            // gates form a combinational cycle.
            for (size_t i = 0; i < raw.size(); ++i) {
                if (emitted[i]) continue;
                for (const std::string& f : raw[i].fanin)
                    if (!net_of.count(f) && !driver_line.count(f))
                        fail(raw[i].line, "undefined net '" + f +
                                          "' in fanin of '" + raw[i].out +
                                          "'");
            }
            for (size_t i = 0; i < raw.size(); ++i)
                if (!emitted[i])
                    fail(raw[i].line, "combinational cycle involving '" +
                                      raw[i].out + "'");
        }
    }

    std::unordered_map<std::string, int> output_line;
    std::unordered_map<std::string, int> input_line;
    for (const auto& [name, decl_line] : input_names) input_line[name] = decl_line;
    for (const auto& [name, decl_line] : output_names) {
        const auto [prev, inserted] = output_line.emplace(name, decl_line);
        if (!inserted)
            fail(decl_line, "duplicate OUTPUT " + name + " (first declared "
                            "at line " + std::to_string(prev->second) + ")");
        if (const auto in_it = input_line.find(name); in_it != input_line.end())
            fail(decl_line, "net '" + name + "' declared both INPUT (line " +
                            std::to_string(in_it->second) + ") and OUTPUT");
        auto it = net_of.find(name);
        if (it == net_of.end())
            fail(decl_line, "OUTPUT(" + name + ") never driven");
        circuit.mark_output(it->second);
    }
    return circuit;
}

Circuit load_bench_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string name = path;
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name.erase(0, slash + 1);
    const size_t dot = name.find_last_of('.');
    if (dot != std::string::npos) name.erase(dot);
    return parse_bench(buf.str(), name);
}

std::string to_bench(const Circuit& circuit) {
    std::ostringstream out;
    out << "# " << circuit.name() << "\n";
    for (NetId id : circuit.inputs())
        out << "INPUT(" << circuit.gate(id).name << ")\n";
    for (NetId id : circuit.outputs())
        out << "OUTPUT(" << circuit.gate(id).name << ")\n";
    for (const Gate& g : circuit.gates()) {
        if (g.type == GateType::Input) continue;
        out << g.name << " = " << gate_type_name(g.type) << "(";
        for (size_t i = 0; i < g.fanin.size(); ++i) {
            if (i) out << ", ";
            out << circuit.gate(g.fanin[i]).name;
        }
        out << ")\n";
    }
    return out.str();
}

void write_bench(const Circuit& circuit, const std::string& path) {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot open " + path);
    f << to_bench(circuit);
    if (!f) throw std::runtime_error("write failed: " + path);
}

}  // namespace dlp::netlist
