#ifndef PERFBENCH_VERIFY_H
#define PERFBENCH_VERIFY_H

/**
 * @file
 * Output checks of the benchmark and the FNV-1a hashes of its
 * determinism guard.
 */

#include <cstdint>
#include <string>

#include "compiler/pipeline.h"

namespace perfbench {

/** Widest output the simulation check runs on. */
constexpr int kMaxSimulatedQubits = 12;

/**
 * Structural validity of a compiled circuit; empty when valid, else
 * the first violation found:
 *  - every two-qubit op carries a native label of the gate set on a
 *    coupled edge that calibrates it, or a link op (TELEPORT,
 *    TELESWAP) on a teleport edge of the device;
 *  - `physical` is injective into the device, and the initial and
 *    final positions are permutations of the register;
 *  - the reported two-qubit count matches the native ops.
 */
std::string checkStructure(const qiset::CompileResult& result,
                           const qiset::Circuit& app,
                           const qiset::Device& device,
                           const qiset::GateSet& gate_set);

/**
 * |<ideal|compiled>|^2 of the noiseless compiled state against the
 * source circuit's state, moved to register order by the reported
 * final permutation (statevector simulation).
 */
double noiselessOverlap(const qiset::CompileResult& result,
                        const qiset::Circuit& app);

/**
 * Every check of one output: structure, and for outputs of at most
 * kMaxSimulatedQubits qubits a noiseless overlap no lower than the
 * output's own estimated fidelity. Empty when the output passes.
 */
std::string verifyOutput(const qiset::CompileResult& result,
                         const qiset::Circuit& app,
                         const qiset::Device& device,
                         const qiset::GateSet& gate_set);

/** FNV-1a offset basis. */
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

/** Fold one 64-bit value into an FNV-1a hash, byte by byte. */
uint64_t fnv1a(uint64_t hash, uint64_t value);

/** Every op field of a circuit, labels as text. */
uint64_t circuitHash(const qiset::Circuit& circuit);

/** Circuit content plus layout, counts and fidelity of a result. */
uint64_t resultHash(const qiset::CompileResult& result);

/** "0x" + 16 hex digits. */
std::string hexHash(uint64_t hash);

} // namespace perfbench

#endif // PERFBENCH_VERIFY_H
