// Bit-parallel (64 patterns/word) gate-level logic simulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.h"

namespace dlp::gatesim {

using netlist::Circuit;
using netlist::NetId;

/// One test vector: one bit per primary input, in circuit input order.
using Vector = std::vector<bool>;

/// 64 packed test vectors: word i holds input i's bit for each of the 64
/// pattern lanes (lane b = bit b of the word).
struct PatternBlock {
    std::vector<std::uint64_t> input_words;  ///< one word per primary input
    int pattern_count = 64;                  ///< valid lanes (1..64)
};

/// Packs up to 64 vectors into one block (vectors.size() <= 64).
PatternBlock pack_vectors(const Circuit& circuit,
                          std::span<const Vector> vectors);

/// Evaluates the full circuit over a pattern block; returns one word per net
/// (indexed by NetId).  Lanes beyond pattern_count contain garbage.
std::vector<std::uint64_t> simulate_block(const Circuit& circuit,
                                          const PatternBlock& block);

/// Convenience scalar simulation of a single vector; returns one bool per
/// net.
std::vector<bool> simulate(const Circuit& circuit, const Vector& vector);

}  // namespace dlp::gatesim
