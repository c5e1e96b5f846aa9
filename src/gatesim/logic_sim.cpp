#include "gatesim/logic_sim.h"

#include <stdexcept>

namespace dlp::gatesim {

PatternBlock pack_vectors(const Circuit& circuit,
                          std::span<const Vector> vectors) {
    if (vectors.empty() || vectors.size() > 64)
        throw std::invalid_argument("need 1..64 vectors per block");
    const size_t pi_count = circuit.inputs().size();
    PatternBlock block;
    block.pattern_count = static_cast<int>(vectors.size());
    block.input_words.assign(pi_count, 0);
    for (size_t lane = 0; lane < vectors.size(); ++lane) {
        if (vectors[lane].size() != pi_count)
            throw std::invalid_argument("vector width != primary input count");
        for (size_t i = 0; i < pi_count; ++i)
            if (vectors[lane][i])
                block.input_words[i] |= 1ULL << lane;
    }
    return block;
}

std::vector<std::uint64_t> simulate_block(const Circuit& circuit,
                                          const PatternBlock& block) {
    if (block.input_words.size() != circuit.inputs().size())
        throw std::invalid_argument("block width != primary input count");
    std::vector<std::uint64_t> words(circuit.gate_count(), 0);
    size_t next_input = 0;
    std::vector<std::uint64_t> operands;
    for (NetId g = 0; g < circuit.gate_count(); ++g) {
        const auto& gate = circuit.gate(g);
        if (gate.type == netlist::GateType::Input) {
            words[g] = block.input_words[next_input++];
            continue;
        }
        operands.clear();
        for (NetId f : gate.fanin) operands.push_back(words[f]);
        words[g] = netlist::eval_gate(gate.type, operands);
    }
    return words;
}

std::vector<bool> simulate(const Circuit& circuit, const Vector& vector) {
    const Vector* one = &vector;
    const PatternBlock block = pack_vectors(circuit, std::span(one, 1));
    const auto words = simulate_block(circuit, block);
    std::vector<bool> values(words.size());
    for (size_t i = 0; i < words.size(); ++i) values[i] = words[i] & 1ULL;
    return values;
}

}  // namespace dlp::gatesim
