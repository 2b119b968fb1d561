#include "compiler/translate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "nuop/template_circuit.h"
#include "qc/gates.h"

namespace qiset {

std::vector<GateSpec>
gateSpecs(const GateSet& gate_set)
{
    std::vector<GateSpec> specs;
    for (const auto& type : gate_set.types) {
        GateSpec spec;
        spec.type_name = type.name;
        spec.family = TemplateFamily::Fixed;
        spec.unitary = type.unitary();
        // The instruction set advertises what the analytic engine can
        // do with each type, so strategies need not re-classify.
        spec.analytic = type.analyticTier();
        specs.push_back(std::move(spec));
    }
    if (gate_set.continuous == ContinuousFamily::FullXy) {
        GateSpec spec;
        spec.type_name = "XY";
        spec.family = TemplateFamily::FullXy;
        spec.analytic = AnalyticTier::None;
        specs.push_back(std::move(spec));
    } else if (gate_set.continuous == ContinuousFamily::FullFsim) {
        GateSpec spec;
        spec.type_name = "fSim";
        spec.family = TemplateFamily::FullFsim;
        spec.analytic = AnalyticTier::None;
        specs.push_back(std::move(spec));
    } else if (gate_set.continuous == ContinuousFamily::FullCphase) {
        GateSpec spec;
        spec.type_name = "CZt";
        spec.family = TemplateFamily::FullCphase;
        spec.analytic = AnalyticTier::None;
        specs.push_back(std::move(spec));
    }
    return specs;
}

GateChoice
selectGate(const std::vector<const GateProfile*>& profiles,
           const std::vector<double>& edge_fidelities,
           double one_qubit_fidelity, bool approximate,
           double exact_threshold)
{
    QISET_REQUIRE(profiles.size() == edge_fidelities.size(),
                  "profile/fidelity arity mismatch");
    GateChoice best;
    // Deterministic tie-break on exactly equal Fu: fewer layers, then
    // the lexicographically smaller type name — the choice must not
    // depend on the order the instruction set lists its types.
    auto better = [&best](double fu, const LayerFit& fit,
                          const GateProfile& profile) {
        if (fu != best.overall)
            return fu > best.overall;
        if (!best.profile)
            return false; // fu == 0: never select a zero-Fu fit.
        if (fit.layers != best.fit->layers)
            return fit.layers < best.fit->layers;
        return profile.type_name < best.profile->type_name;
    };
    for (size_t g = 0; g < profiles.size(); ++g) {
        double f2q = edge_fidelities[g];
        if (f2q <= 0.0)
            continue; // gate type not calibrated on this edge.
        const GateProfile* profile = profiles[g];
        for (const auto& fit : profile->fits) {
            // Zero-layer fits only count when they are exact (local
            // targets); lossy gate-dropping is not a NuOp template.
            if (fit.layers == 0 && fit.fd < exact_threshold)
                continue;
            double fh = std::pow(f2q, fit.layers) *
                        std::pow(one_qubit_fidelity,
                                 2.0 * (fit.layers + 1));
            double fu = fit.fd * fh;
            // Exact mode: only threshold-meeting fits compete.
            if (!approximate && fit.fd < exact_threshold)
                continue;
            if (better(fu, fit, *profile)) {
                best.profile = profile;
                best.fit = &fit;
                best.edge_fidelity = f2q;
                best.overall = fu;
            }
        }
    }
    if (!best.profile && !approximate) {
        // No gate type reached the exact threshold; fall back to the
        // highest-Fd fit available (mirrors NuOp returning its best
        // attempt).
        for (size_t g = 0; g < profiles.size(); ++g) {
            double f2q = edge_fidelities[g];
            if (f2q <= 0.0)
                continue;
            for (const auto& fit : profiles[g]->fits) {
                double fh = std::pow(f2q, fit.layers) *
                            std::pow(one_qubit_fidelity,
                                     2.0 * (fit.layers + 1));
                if (better(fit.fd * fh, fit, *profiles[g])) {
                    best.profile = profiles[g];
                    best.fit = &fit;
                    best.edge_fidelity = f2q;
                    best.overall = fit.fd * fh;
                }
            }
        }
    }
    QISET_REQUIRE(best.profile != nullptr,
                  "no hardware gate type with a usable decomposition "
                  "is available on this edge");
    return best;
}

namespace {

/**
 * Local factors re-dressing a canonical-representative circuit into
 * the concrete target: target == phase * left * representative *
 * right, split into per-qubit U3 corrections. `fallback` marks a
 * target whose solve failed and that is profiled raw under NuOp.
 */
struct TargetDressing
{
    bool active = false;
    bool fallback = false;
    Matrix pre_a, pre_b;   // merged into the first U3 pair
    Matrix post_a, post_b; // merged into the last U3 pair
};

/**
 * Canonicalizing strategies store profiles against the Weyl-chamber
 * representative; recover the local factors that dress it back into
 * this exact target. A failed solve (never observed, but numerically
 * conceivable) marks the target for a raw-keyed NuOp fallback.
 */
TargetDressing
solveDressing(const Matrix& target, const DecompositionStrategy& strategy)
{
    TargetDressing dressing;
    Matrix representative = strategy.profileTarget(target);
    if (representative.maxAbsDiff(target) == 0.0)
        return dressing;
    LocalEquivalence equivalence =
        localFactorsBetween(representative, target);
    bool usable = equivalence.ok &&
                  ((equivalence.left * representative *
                    equivalence.right) *
                   equivalence.phase)
                          .maxAbsDiff(target) < 1e-6;
    if (!usable) {
        dressing.fallback = true;
        return dressing;
    }
    dressing.active = true;
    auto post = decomposeLocalUnitary(equivalence.left);
    auto pre = decomposeLocalUnitary(equivalence.right);
    dressing.post_a = std::move(post.first);
    dressing.post_b = std::move(post.second);
    dressing.pre_a = std::move(pre.first);
    dressing.pre_b = std::move(pre.second);
    return dressing;
}

/** Hash of a matrix's exact element bytes (signed zeros differ). */
uint64_t
hashBytes(const Matrix& m)
{
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
    uint64_t h = 0x9e3779b97f4a7c15ull ^ m.size();
    for (size_t i = 0; i < m.size() * sizeof(cplx); i += sizeof(h)) {
        uint64_t word;
        std::memcpy(&word, bytes + i, sizeof(word));
        h = (h ^ word) * 0xff51afd7ed558ccdull;
        h ^= h >> 32;
    }
    return h;
}

bool
sameBytes(const Matrix& a, const Matrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

} // namespace

TranslateResult
translateCircuit(const Circuit& routed, const std::vector<int>& physical,
                 const Device& device, const GateSet& gate_set,
                 const NuOpDecomposer& decomposer,
                 const DecompositionStrategy& strategy,
                 ProfileCache& cache, bool approximate, ThreadPool* pool,
                 size_t max_parallelism)
{
    QISET_REQUIRE(physical.size() ==
                      static_cast<size_t>(routed.numQubits()),
                  "physical qubit list must match register width");

    std::vector<GateSpec> specs = gateSpecs(gate_set);
    QISET_REQUIRE(!specs.empty(), "instruction set is empty");
    size_t num_specs = specs.size();

    static const LabelId u3_label = internLabel("U3");
    static const LabelId teleport_label = internLabel("TELEPORT");
    static const LabelId teleswap_label = internLabel("TELESWAP");
    // Inter-core link ops are already native: their endpoints are not
    // coupling-adjacent (no calibrated edge to decompose onto) and
    // they carry the EPR link's error rate and duration from routing.
    // They pass through untouched and are never profiled.
    auto is_link = [](LabelId label) {
        return label == teleport_label || label == teleswap_label;
    };

    // Dedupe: group the 2Q blocks by the exact bytes of their unitary
    // in a flat open-addressing table (load <= 1/2, slot = distinct id
    // + 1, 0 = empty). distinct_of[block] names the block's distinct
    // unitary, numbered in first-occurrence order. Byte-equal blocks
    // share every cache key, so serving them from one lookup leaves
    // the output bit-identical. Only the unitary column is read, and
    // pointers into it stay valid for the whole call (the routed
    // circuit is not mutated).
    const auto& op_qubits = routed.opQubits();
    const auto& op_labels = routed.opLabels();
    const auto& op_unitaries = routed.opUnitaries();
    size_t max_blocks = static_cast<size_t>(routed.twoQubitGateCount());
    size_t table_size = 1;
    while (table_size < 2 * max_blocks)
        table_size <<= 1;
    std::vector<uint32_t> slots(table_size, 0);
    std::vector<uint32_t> distinct_of;
    distinct_of.reserve(max_blocks);
    std::vector<const Matrix*> distinct;
    distinct.reserve(max_blocks);
    for (size_t i = 0; i < op_qubits.size(); ++i) {
        if (!op_qubits[i].isTwoQubit() || is_link(op_labels[i]))
            continue;
        const Matrix& unitary = op_unitaries[i];
        size_t slot = hashBytes(unitary) & (table_size - 1);
        while (slots[slot] != 0 &&
               !sameBytes(*distinct[slots[slot] - 1], unitary))
            slot = (slot + 1) & (table_size - 1);
        if (slots[slot] == 0) {
            distinct.push_back(&unitary);
            slots[slot] = static_cast<uint32_t>(distinct.size());
        }
        distinct_of.push_back(slots[slot] - 1);
    }

    // Profile sweep: exactly one cache lookup per (distinct unitary,
    // spec). handles[d * num_specs + g] is distinct unitary d's profile
    // under specs[g]; the table keeps every profile alive through
    // selection and emission even if a bounded cache evicts the entry
    // meanwhile.
    LocalCacheCounters local;
    std::vector<std::shared_ptr<const GateProfile>> handles(
        distinct.size() * num_specs);
    auto fetch = [&](size_t index) {
        handles[index] = cache.get(*distinct[index / num_specs],
                                   specs[index % num_specs], decomposer,
                                   strategy, &local);
    };
    // Fan out only when more than one worker can actually run the
    // lookups: with an effective worker count of 1 (a one-thread pool
    // or a parallelism cap of 1) the claim/atomic overhead of the
    // cooperative loop is pure loss, so take the plain serial path.
    size_t effective_workers =
        pool ? std::min(pool->size(),
                        max_parallelism == 0
                            ? std::numeric_limits<size_t>::max()
                            : max_parallelism)
             : 0;
    if (effective_workers > 1) {
        parallelFor(*pool, handles.size(), fetch, max_parallelism);
    } else {
        for (size_t i = 0; i < handles.size(); ++i)
            fetch(i);
    }

    // One dressing solve (and fallback verdict) per distinct unitary.
    std::vector<TargetDressing> dressings;
    if (strategy.canonicalizesTargets()) {
        dressings.reserve(distinct.size());
        for (const Matrix* unitary : distinct)
            dressings.push_back(solveDressing(*unitary, strategy));
    }

    int n = routed.numQubits();
    TranslateResult result;
    result.circuit = Circuit(n);

    double f1q_avg = 1.0 - device.averageOneQubitError();

    // Per-2Q-block working sets, hoisted so the selection and emission
    // loops reuse their capacity (and the U3 matrices' inline storage)
    // instead of allocating per op.
    std::vector<std::shared_ptr<const GateProfile>> holders;
    std::vector<const GateProfile*> profiles;
    std::vector<double> fidelities;
    std::vector<Matrix> u3s;

    // Selection pre-pass: resolve every 2Q block's gate choice once,
    // up front, from the handle table. Each block expands to exactly
    // 2 + 3*layers native ops, so summing the chosen fits sizes the
    // output columns *exactly* — one reservation, no growth
    // reallocations while emitting (the unitary column alone is
    // megabytes on wide circuits, and doubling it dominated the
    // warm-compile allocation profile). The stored choices are reused
    // by the emission loop below.
    std::vector<GateChoice> block_choices;
    block_choices.reserve(distinct_of.size());
    size_t exact_ops = 0;
    for (const auto& op : routed.ops()) {
        if (!op.isTwoQubit() || is_link(op.labelId())) {
            ++exact_ops; // passes through as a single op.
            continue;
        }
        Qubits qs = op.qubits();
        int pa = physical[qs[0]];
        int pb = physical[qs[1]];
        const auto* block =
            &handles[distinct_of[block_choices.size()] * num_specs];
        profiles.clear();
        fidelities.clear();
        for (size_t g = 0; g < num_specs; ++g) {
            profiles.push_back(block[g].get());
            fidelities.push_back(
                device.edgeFidelity(pa, pb, specs[g].type_name));
        }
        block_choices.push_back(
            selectGate(profiles, fidelities, f1q_avg, approximate,
                       decomposer.options().exact_threshold));
        exact_ops += 2 + 3 * block_choices.back().fit->layers;
    }
    result.circuit.reserveOps(exact_ops);

    auto emit_1q = [&](int reg, const Matrix& unitary, LabelId label) {
        double error_rate = device.oneQubitError(physical[reg]);
        result.estimated_fidelity *= 1.0 - error_rate;
        result.circuit.add1q(reg, unitary, label, error_rate,
                             device.oneQubitDurationNs());
    };

    size_t block_index = 0;
    for (const auto& op : routed.ops()) {
        const Matrix& op_unitary = op.unitary();
        Qubits qs = op.qubits();
        if (!op.isTwoQubit()) {
            emit_1q(qs[0], op_unitary, op.labelId());
            continue;
        }

        if (is_link(op.labelId())) {
            result.circuit.add(op);
            result.estimated_fidelity *= 1.0 - op.errorRate();
            ++result.type_usage[op.label()];
            continue;
        }

        int ra = qs[0];
        int rb = qs[1];
        int pa = physical[ra];
        int pb = physical[rb];

        const TargetDressing* dressing =
            dressings.empty() ? nullptr
                              : &dressings[distinct_of[block_index]];

        // The pre-pass already selected this block's gate under the
        // primary strategy; only the (numerically conceivable, never
        // observed) dressing fallback re-selects here, against
        // raw-keyed NuOp profiles. Holders keep those profiles alive
        // across selection even if a bounded cache evicts the entries
        // concurrently.
        GateChoice choice;
        if (dressing && dressing->fallback) {
            ++result.dressing_fallbacks;
            holders.clear();
            profiles.clear();
            fidelities.clear();
            for (const auto& spec : specs) {
                holders.push_back(cache.get(op_unitary, spec, decomposer,
                                            nuopDecompositionStrategy(),
                                            &local));
                profiles.push_back(holders.back().get());
                fidelities.push_back(
                    device.edgeFidelity(pa, pb, spec.type_name));
            }
            choice =
                selectGate(profiles, fidelities, f1q_avg, approximate,
                           decomposer.options().exact_threshold);
        } else {
            choice = block_choices[block_index];
        }
        ++block_index;

        const GateProfile& profile = *choice.profile;
        const LayerFit& fit = *choice.fit;
        if (profile.engine == "kak")
            ++result.analytic_ops;

        TwoQubitTemplate templ =
            profile.family == TemplateFamily::Fixed
                ? TwoQubitTemplate(fit.layers, profile.unitary)
                : TwoQubitTemplate(fit.layers, profile.family);
        templ.u3MatricesInto(fit.params, u3s);
        if (dressing && dressing->active) {
            // C' = post . C . pre implements the target exactly when C
            // implements the representative (Fd is invariant under
            // local dressing, so the profiled fidelities carry over).
            u3s[0] = u3s[0] * dressing->pre_a;
            u3s[1] = u3s[1] * dressing->pre_b;
            u3s[2 * fit.layers] = dressing->post_a * u3s[2 * fit.layers];
            u3s[2 * fit.layers + 1] =
                dressing->post_b * u3s[2 * fit.layers + 1];
        }

        emit_1q(ra, u3s[0], u3_label);
        emit_1q(rb, u3s[1], u3_label);
        // One intern per 2Q block; every layer reuses the id (the
        // common single-type compile hits the LabelTable's shared-lock
        // fast path once per block).
        LabelId type_label = internLabel(profile.type_name);
        for (int layer = 0; layer < fit.layers; ++layer) {
            result.circuit.add2q(ra, rb,
                                 templ.layerGate(fit.params, layer),
                                 type_label,
                                 1.0 - choice.edge_fidelity,
                                 device.twoQubitDurationNs());
            result.estimated_fidelity *= choice.edge_fidelity;
            ++result.two_qubit_count;
            ++result.type_usage[profile.type_name];
            emit_1q(ra, u3s[2 * (layer + 1)], u3_label);
            emit_1q(rb, u3s[2 * (layer + 1) + 1], u3_label);
        }
        result.estimated_fidelity *= fit.fd;
    }
    result.distinct_blocks = static_cast<int>(distinct.size());
    result.cache_hits = local.hits.load();
    result.cache_misses = local.misses.load();
    return result;
}

TranslateResult
translateCircuit(const Circuit& routed, const std::vector<int>& physical,
                 const Device& device, const GateSet& gate_set,
                 const NuOpDecomposer& decomposer, ProfileCache& cache,
                 bool approximate, ThreadPool* pool,
                 size_t max_parallelism)
{
    return translateCircuit(routed, physical, device, gate_set,
                            decomposer, nuopDecompositionStrategy(),
                            cache, approximate, pool, max_parallelism);
}

} // namespace qiset
