#include "verify.h"

#include <complex>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>

#include "circuit/label_table.h"
#include "compiler/translate.h"
#include "sim/statevector.h"

namespace perfbench {

using namespace qiset;

namespace {

/** True when `positions` maps distinct entries into [0, bound). */
bool
injectiveInto(const std::vector<int>& positions, int bound)
{
    std::set<int> seen;
    for (int p : positions)
        if (p < 0 || p >= bound || !seen.insert(p).second)
            return false;
    return true;
}

bool
onTeleportEdge(const Topology& topology, int a, int b)
{
    for (const TeleportEdge& edge : topology.teleportEdges())
        if ((edge.comm_a == a && edge.comm_b == b) ||
            (edge.comm_a == b && edge.comm_b == a))
            return true;
    return false;
}

uint64_t
fnvDouble(uint64_t hash, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv1a(hash, bits);
}

uint64_t
fnvString(uint64_t hash, const std::string& s)
{
    hash = fnv1a(hash, s.size());
    for (char c : s)
        hash = fnv1a(hash, static_cast<unsigned char>(c));
    return hash;
}

} // namespace

std::string
checkStructure(const CompileResult& result, const Circuit& app,
               const Device& device, const GateSet& gate_set)
{
    const Circuit& out = result.circuit;
    int width = out.numQubits();
    std::ostringstream why;
    if (width != app.numQubits()) {
        why << "register width " << width << " != source width "
            << app.numQubits();
        return why.str();
    }
    if (result.physical.size() != static_cast<size_t>(width) ||
        !injectiveInto(result.physical, device.numQubits()))
        return "physical layout is not injective into the device";
    if (result.initial_positions.size() != static_cast<size_t>(width) ||
        !injectiveInto(result.initial_positions, width))
        return "initial positions are not a permutation";
    if (result.final_positions.size() != static_cast<size_t>(width) ||
        !injectiveInto(result.final_positions, width))
        return "final positions are not a permutation";

    std::set<LabelId> native;
    for (const GateSpec& spec : gateSpecs(gate_set))
        native.insert(internLabel(spec.type_name));
    static const LabelId teleport = internLabel("TELEPORT");
    static const LabelId teleswap = internLabel("TELESWAP");
    const Topology& topology = device.topology();

    int native_2q = 0;
    for (const auto& op : out.ops()) {
        Qubits qs = op.qubits();
        for (int q : qs)
            if (q < 0 || q >= width)
                return "op outside the register";
        if (!op.isTwoQubit())
            continue;
        int a = result.physical[static_cast<size_t>(qs[0])];
        int b = result.physical[static_cast<size_t>(qs[1])];
        if (op.labelId() == teleport || op.labelId() == teleswap) {
            if (!onTeleportEdge(topology, a, b)) {
                why << op.label() << " on " << a << "," << b
                    << ", which is no teleport edge";
                return why.str();
            }
            continue;
        }
        if (!native.count(op.labelId())) {
            why << "non-native two-qubit label " << op.label();
            return why.str();
        }
        if (!topology.adjacent(a, b) ||
            device.edgeFidelity(a, b, op.label()) <= 0.0) {
            why << op.label() << " on uncalibrated pair " << a << ","
                << b;
            return why.str();
        }
        ++native_2q;
    }
    if (native_2q != result.two_qubit_count) {
        why << "two_qubit_count " << result.two_qubit_count << " but "
            << native_2q << " native two-qubit ops";
        return why.str();
    }
    if (!(result.estimated_fidelity > 0.0 &&
          result.estimated_fidelity <= 1.0))
        return "estimated fidelity outside (0, 1]";
    return "";
}

double
noiselessOverlap(const CompileResult& result, const Circuit& app)
{
    StateVector ideal(app.numQubits());
    ideal.run(app);
    StateVector compiled(result.circuit.numQubits());
    compiled.run(result.circuit);

    // Logical qubit l sits at register position final_positions[l]
    // when the circuit ends (big-endian bit order, as the simulator).
    int n = app.numQubits();
    const std::vector<cplx>& ideal_amps = ideal.amplitudes();
    const std::vector<cplx>& out_amps = compiled.amplitudes();
    cplx inner = 0.0;
    for (size_t logical = 0; logical < ideal_amps.size(); ++logical) {
        size_t reg = 0;
        for (int l = 0; l < n; ++l)
            if (logical & (size_t{1} << (n - 1 - l)))
                reg |= size_t{1} << (n - 1 - result.final_positions[l]);
        inner += std::conj(ideal_amps[logical]) * out_amps[reg];
    }
    return std::norm(inner);
}

std::string
verifyOutput(const CompileResult& result, const Circuit& app,
             const Device& device, const GateSet& gate_set)
{
    std::string why = checkStructure(result, app, device, gate_set);
    if (!why.empty() || app.numQubits() > kMaxSimulatedQubits)
        return why;
    double overlap = noiselessOverlap(result, app);
    if (!(overlap >= result.estimated_fidelity)) {
        std::ostringstream os;
        os << "noiseless overlap " << overlap
           << " below estimated fidelity " << result.estimated_fidelity;
        return os.str();
    }
    return "";
}

uint64_t
fnv1a(uint64_t hash, uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xffu;
        hash *= 1099511628211ull;
    }
    return hash;
}

uint64_t
circuitHash(const Circuit& circuit)
{
    uint64_t hash = kFnvBasis;
    hash = fnv1a(hash, static_cast<uint64_t>(circuit.numQubits()));
    hash = fnv1a(hash, circuit.size());
    for (const auto& op : circuit.ops()) {
        hash = fnv1a(hash, op.qubits().size());
        for (int q : op.qubits())
            hash = fnv1a(hash, static_cast<uint64_t>(q));
        hash = fnvString(hash, op.label());
        hash = fnvDouble(hash, op.errorRate());
        hash = fnvDouble(hash, op.durationNs());
        const Matrix& u = op.unitary();
        for (size_t r = 0; r < u.rows(); ++r)
            for (size_t c = 0; c < u.cols(); ++c) {
                hash = fnvDouble(hash, u(r, c).real());
                hash = fnvDouble(hash, u(r, c).imag());
            }
    }
    return hash;
}

uint64_t
resultHash(const CompileResult& result)
{
    uint64_t hash = circuitHash(result.circuit);
    for (const std::vector<int>* layout :
         {&result.physical, &result.initial_positions,
          &result.final_positions}) {
        hash = fnv1a(hash, layout->size());
        for (int p : *layout)
            hash = fnv1a(hash, static_cast<uint64_t>(p));
    }
    hash = fnv1a(hash, static_cast<uint64_t>(result.swaps_inserted));
    hash = fnv1a(hash, static_cast<uint64_t>(result.teleports_inserted));
    hash = fnv1a(hash, static_cast<uint64_t>(result.two_qubit_count));
    for (const auto& [type, count] : result.type_usage) {
        hash = fnvString(hash, type);
        hash = fnv1a(hash, static_cast<uint64_t>(count));
    }
    return fnvDouble(hash, result.estimated_fidelity);
}

std::string
hexHash(uint64_t hash)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(hash));
    return buffer;
}

} // namespace perfbench
