// NuOp translation pass tests: profiles, selection and emission.

#include <atomic>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "apps/qv.h"
#include "common/error.h"
#include "compiler/translate.h"
#include "qc/gates.h"

namespace qiset {
namespace {

using namespace gates;

NuOpOptions
fastNuOp()
{
    NuOpOptions opts;
    opts.max_layers = 4;
    opts.multistarts = 3;
    opts.exact_threshold = 1.0 - 1e-6;
    return opts;
}

Device
twoQubitDevice(double cz_fid, double iswap_fid)
{
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S3", cz_fid);
    d.setEdgeFidelity(0, 1, "S4", iswap_fid);
    d.setOneQubitError(0, 0.001);
    d.setOneQubitError(1, 0.001);
    return d;
}

TEST(ProfileCache, MemoizesAcrossCalls)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    GateSpec spec;
    spec.type_name = "S3";
    spec.unitary = cz();

    auto a = cache.get(zz(0.3), spec, decomposer);
    EXPECT_EQ(cache.size(), 1u);
    auto b = cache.get(zz(0.3), spec, decomposer);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(a.get(), b.get());
    // Different target: new entry.
    cache.get(zz(0.4), spec, decomposer);
    EXPECT_EQ(cache.size(), 2u);
    // The counters saw one hit and two computed profiles.
    ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
}

TEST(ProfileCache, FitsStopAtExactThreshold)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    GateSpec spec;
    spec.type_name = "S3";
    spec.unitary = cz();
    auto profile = cache.get(zz(0.3), spec, decomposer);
    // ZZ with CZ is exact at 2 layers: fits = depths 0, 1, 2.
    ASSERT_EQ(profile->fits.size(), 3u);
    EXPECT_GE(profile->fits.back().fd, 1.0 - 1e-6);
    EXPECT_LT(profile->fits[1].fd, 1.0 - 1e-6);
}

TEST(SelectGate, PrefersHigherOverallFidelity)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    GateSpec cz_spec{"S3", TemplateFamily::Fixed, cz()};
    GateSpec isw_spec{"S4", TemplateFamily::Fixed, iswap()};
    Matrix target = zz(0.5);
    auto cz_profile = cache.get(target, cz_spec, decomposer);
    auto isw_profile = cache.get(target, isw_spec, decomposer);
    std::vector<const GateProfile*> profiles = {cz_profile.get(),
                                                isw_profile.get()};

    GateChoice pick_cz = selectGate(profiles, {0.99, 0.90}, 1.0, true,
                                    1.0 - 1e-6);
    EXPECT_EQ(pick_cz.profile->type_name, "S3");
    GateChoice pick_isw = selectGate(profiles, {0.90, 0.99}, 1.0, true,
                                     1.0 - 1e-6);
    EXPECT_EQ(pick_isw.profile->type_name, "S4");
}

TEST(SelectGate, SkipsUncalibratedTypes)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    GateSpec cz_spec{"S3", TemplateFamily::Fixed, cz()};
    GateSpec isw_spec{"S4", TemplateFamily::Fixed, iswap()};
    Matrix target = zz(0.5);
    auto cz_profile = cache.get(target, cz_spec, decomposer);
    auto isw_profile = cache.get(target, isw_spec, decomposer);
    std::vector<const GateProfile*> profiles = {cz_profile.get(),
                                                isw_profile.get()};
    GateChoice choice =
        selectGate(profiles, {0.0, 0.92}, 1.0, true, 1.0 - 1e-6);
    EXPECT_EQ(choice.profile->type_name, "S4");
}

TEST(SelectGate, BreaksExactTiesDeterministically)
{
    // Two gate types with bit-identical fit ladders and equal edge
    // fidelities: the selection must not depend on the order the
    // profiles are supplied in — fewer layers wins, then the
    // lexicographically smaller type name.
    GateProfile a;
    a.type_name = "S3";
    a.fits.push_back(LayerFit{2, 0.999, {}});
    a.fits.push_back(LayerFit{3, 0.999, {}});
    GateProfile b = a;
    b.type_name = "S4";

    GateChoice forward =
        selectGate({&a, &b}, {0.95, 0.95}, 1.0, true, 1.0 - 1e-6);
    GateChoice reversed =
        selectGate({&b, &a}, {0.95, 0.95}, 1.0, true, 1.0 - 1e-6);
    EXPECT_EQ(forward.profile->type_name, "S3");
    EXPECT_EQ(reversed.profile->type_name, "S3");
    EXPECT_EQ(forward.fit->layers, 2); // equal Fu would need equal Fh
    EXPECT_EQ(reversed.fit->layers, 2);

    // Within one profile, an exactly tied Fu prefers the shallower
    // fit even when the deeper one is listed first.
    GateProfile c;
    c.type_name = "S3";
    c.fits.push_back(LayerFit{3, 0.5, {}});
    c.fits.push_back(LayerFit{2, 0.5, {}});
    GateChoice depth = selectGate({&c}, {1.0}, 1.0, true, 1.0 - 1e-6);
    EXPECT_EQ(depth.fit->layers, 2);
}

TEST(Translate, EmittedCircuitImplementsTarget)
{
    Device d = twoQubitDevice(0.99, 0.98);
    GateSet set = isa::rigettiSet(1); // {CZ, iSWAP}
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;

    Rng rng(71);
    Circuit logical(2);
    logical.add2q(0, 1, randomSu4(rng), "SU4");

    TranslateResult result =
        translateCircuit(logical, {0, 1}, d, set, decomposer, cache,
                         /*approximate=*/false);

    // Exact mode: compiled block must equal the target up to phase.
    Matrix compiled = result.circuit.unitary();
    Matrix target = logical.unitary();
    EXPECT_NEAR(traceFidelity(compiled, target), 1.0, 1e-5);
    EXPECT_EQ(result.two_qubit_count, 3);
}

TEST(Translate, AnnotatesErrorRatesAndDurations)
{
    Device d = twoQubitDevice(0.95, 0.0);
    GateSet set = isa::singleTypeSet(3);
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;

    Circuit logical(2);
    logical.add2q(0, 1, zz(0.4), "ZZ");
    TranslateResult result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, cache, true);

    for (const auto& op : result.circuit.ops()) {
        EXPECT_GT(op.durationNs(), 0.0) << op.label();
        if (op.isTwoQubit())
            EXPECT_NEAR(op.errorRate(), 0.05, 1e-9);
        else
            EXPECT_NEAR(op.errorRate(), 0.001, 1e-9);
    }
}

TEST(Translate, NoiseAdaptiveAcrossEdges)
{
    // Three-qubit line: edge (0,1) has good CZ, edge (1,2) good iSWAP.
    Device d("line3", Topology::line(3));
    d.setEdgeFidelity(0, 1, "S3", 0.99);
    d.setEdgeFidelity(0, 1, "S4", 0.90);
    d.setEdgeFidelity(1, 2, "S3", 0.90);
    d.setEdgeFidelity(1, 2, "S4", 0.99);
    for (int q = 0; q < 3; ++q)
        d.setOneQubitError(q, 0.001);

    GateSet set = isa::rigettiSet(1);
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;

    Circuit logical(3);
    logical.add2q(0, 1, zz(0.5), "ZZ");
    logical.add2q(1, 2, zz(0.5), "ZZ");
    TranslateResult result = translateCircuit(
        logical, {0, 1, 2}, d, set, decomposer, cache, true);

    // The same application unitary must compile to different gate
    // types on the two edges (the Fig. 5 scenario).
    std::string first_type, second_type;
    for (const auto& op : result.circuit.ops()) {
        if (!op.isTwoQubit())
            continue;
        if (op.qubits()[0] == 0 || op.qubits()[1] == 0)
            first_type = op.label();
        else
            second_type = op.label();
    }
    EXPECT_EQ(first_type, "S3");
    EXPECT_EQ(second_type, "S4");
}

TEST(Translate, ContinuousFamilyEmissionIsExact)
{
    // FullfSim templates optimize the two-qubit angles too; the
    // emitted per-layer fSim gates + U3s must reproduce the target.
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "fSim", 0.995);
    GateSet set = isa::fullFsim();
    NuOpOptions opts = fastNuOp();
    opts.multistarts = 6;
    NuOpDecomposer decomposer(opts);
    ProfileCache cache;

    Rng rng(72);
    Circuit logical(2);
    logical.add2q(0, 1, randomSu4(rng), "SU4");
    TranslateResult result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, cache,
        /*approximate=*/false);
    EXPECT_NEAR(
        traceFidelity(result.circuit.unitary(), logical.unitary()),
        1.0, 1e-5);
    for (const auto& [type, count] : result.type_usage)
        EXPECT_EQ(type, "fSim");
}

TEST(Translate, ThrowsWhenNoTypeCalibratedOnEdge)
{
    // Failure injection: the edge has no calibrated member of the
    // instruction set at all.
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S1", 0.99); // SYC only
    GateSet set = isa::singleTypeSet(3);  // wants CZ
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    Circuit logical(2);
    logical.add2q(0, 1, zz(0.4), "ZZ");
    EXPECT_THROW(translateCircuit(logical, {0, 1}, d, set, decomposer,
                                  cache, true),
                 FatalError);
}

TEST(Translate, SwapTypeUsedForRoutedSwaps)
{
    // A consolidated SWAP block on a G7-style edge should compile to
    // the native SWAP in one gate.
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S3", 0.99);
    d.setEdgeFidelity(0, 1, "SWAP", 0.99);
    GateSet set;
    set.name = "toy";
    set.types = {isa::s3(), isa::swapType()};
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    Circuit logical(2);
    logical.add2q(0, 1, gates::swap(), "SWAP");
    TranslateResult result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, cache, true);
    EXPECT_EQ(result.two_qubit_count, 1);
    EXPECT_EQ(result.type_usage.at("SWAP"), 1);
}

TEST(Translate, ParallelProfileWarmupBitIdenticalToSerial)
{
    // The intra-circuit fan-out only parallelizes the profile
    // lookups; selection and emission stay serial. Whatever the
    // thread count or cap, the emitted circuit must be bit-identical
    // — each variant runs against its own cold cache so identity is
    // established by recomputation, not by sharing profile objects.
    Device d("line4", Topology::line(4));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", 0.99);
        d.setEdgeFidelity(a, b, "S4", 0.98);
    }
    for (int q = 0; q < 4; ++q)
        d.setOneQubitError(q, 0.001);
    GateSet set = isa::rigettiSet(1);
    NuOpDecomposer decomposer(fastNuOp());

    Rng rng(73);
    Circuit logical(4);
    logical.add2q(0, 1, randomSu4(rng), "SU4");
    logical.add1q(2, hadamard(), "H");
    logical.add2q(1, 2, zz(0.3), "ZZ");
    logical.add2q(2, 3, randomSu4(rng), "SU4");
    logical.add2q(0, 1, zz(0.3), "ZZ"); // repeat: cache-hit path
    logical.add2q(1, 2, randomSu4(rng), "SU4");

    auto translate = [&](ThreadPool* pool, size_t cap) {
        ProfileCache cold;
        return translateCircuit(logical, {0, 1, 2, 3}, d, set,
                                decomposer, cold, /*approximate=*/true,
                                pool, cap);
    };

    TranslateResult serial = translate(nullptr, 0);
    ThreadPool pool(4);
    TranslateResult uncapped = translate(&pool, 0);
    TranslateResult capped = translate(&pool, 2);
    TranslateResult forced_serial = translate(&pool, 1);

    for (const TranslateResult* other :
         {&uncapped, &capped, &forced_serial}) {
        EXPECT_EQ(serial.two_qubit_count, other->two_qubit_count);
        EXPECT_EQ(serial.type_usage, other->type_usage);
        EXPECT_DOUBLE_EQ(serial.estimated_fidelity,
                         other->estimated_fidelity);
        ASSERT_EQ(serial.circuit.size(), other->circuit.size());
        for (size_t i = 0; i < serial.circuit.size(); ++i) {
            ConstOpRef x = serial.circuit.ops()[i];
            ConstOpRef y = other->circuit.ops()[i];
            EXPECT_EQ(x.qubits(), y.qubits());
            EXPECT_EQ(x.labelId(), y.labelId());
            EXPECT_EQ(x.unitary().maxAbsDiff(y.unitary()), 0.0);
        }
    }
    // Every (distinct unitary, spec) lookup tallies exactly one hit or
    // miss. The split is timing-dependent under concurrency (racing
    // same-key requesters both compute and both count as misses, by
    // ProfileCache design), but the total is exact.
    EXPECT_EQ(serial.cache_hits + serial.cache_misses,
              uncapped.cache_hits + uncapped.cache_misses);
    EXPECT_EQ(serial.cache_hits, forced_serial.cache_hits);
    EXPECT_EQ(serial.cache_misses, forced_serial.cache_misses);
}

/**
 * Delegating engine that counts the cache keys built and the
 * representatives (dressing solves) requested through it.
 */
class KeyCountingStrategy : public DecompositionStrategy
{
  public:
    explicit KeyCountingStrategy(const std::string& engine)
        : inner_(makeDecompositionStrategy(engine))
    {
    }

    std::string name() const override { return inner_->name(); }
    bool canonicalizesTargets() const override
    {
        return inner_->canonicalizesTargets();
    }
    Matrix profileTarget(const Matrix& target) const override
    {
        profile_targets.fetch_add(1);
        return inner_->profileTarget(target);
    }
    std::string cacheKey(const Matrix& target,
                         const GateSpec& spec) const override
    {
        return inner_->cacheKey(target, spec);
    }
    void cacheKeyInto(std::string& out, const Matrix& target,
                      const GateSpec& spec) const override
    {
        keys.fetch_add(1);
        inner_->cacheKeyInto(out, target, spec);
    }
    GateProfile computeProfile(const Matrix& target, const GateSpec& spec,
                               const NuOpDecomposer& decomposer) const override
    {
        return inner_->computeProfile(target, spec, decomposer);
    }

    mutable std::atomic<size_t> keys{0};
    mutable std::atomic<size_t> profile_targets{0};

  private:
    std::unique_ptr<DecompositionStrategy> inner_;
};

/** 2Q op unitaries of the circuit that differ in at least one byte. */
size_t
bitwiseDistinctTwoQubitUnitaries(const Circuit& circuit)
{
    std::vector<const Matrix*> seen;
    for (const auto& op : circuit.ops()) {
        if (!op.isTwoQubit())
            continue;
        const Matrix& u = op.unitary();
        bool repeat = false;
        for (const Matrix* other : seen)
            repeat = repeat ||
                     std::memcmp(other->data(), u.data(),
                                 u.size() * sizeof(cplx)) == 0;
        if (!repeat)
            seen.push_back(&u);
    }
    return seen.size();
}

TEST(Translate, WarmTranslationLooksUpEachDistinctUnitaryOnce)
{
    // One cache lookup — one key built — per (bitwise-distinct 2Q
    // unitary, gate spec), serial or fanned over a pool, and on a warm
    // cache every one of them is a hit. Canonicalizing engines solve
    // each distinct unitary's dressing once.
    Device d("line4", Topology::line(4));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", 0.99);
        d.setEdgeFidelity(a, b, "S4", 0.98);
    }
    for (int q = 0; q < 4; ++q)
        d.setOneQubitError(q, 0.001);
    GateSet set = isa::rigettiSet(1); // {CZ, iSWAP}
    NuOpDecomposer decomposer(fastNuOp());
    Rng rng(74);
    // zz(0.3)'s twin differs only in the sign of one zero entry: it
    // renders a different key ("-0.000000000"), so it must not share
    // the original's lookup.
    Matrix zz_twin = zz(0.3);
    ASSERT_EQ(zz_twin(0, 1), cplx(0.0, 0.0));
    ASSERT_FALSE(std::signbit(zz_twin(0, 1).real()));
    zz_twin(0, 1) = cplx(-0.0, 0.0);
    Circuit logical(4);
    logical.add2q(0, 1, randomSu4(rng), "SU4");
    logical.add1q(2, hadamard(), "H");
    logical.add2q(1, 2, zz(0.3), "ZZ");
    logical.add2q(2, 3, randomSu4(rng), "SU4");
    logical.add2q(0, 1, zz(0.3), "ZZ"); // repeat: shares the lookup
    logical.add2q(2, 3, zz_twin, "ZZ"); // -0.0 twin: its own lookup
    const size_t distinct = bitwiseDistinctTwoQubitUnitaries(logical);
    ASSERT_EQ(distinct, 4u);
    const size_t expected = distinct * gateSpecs(set).size();

    ThreadPool pool(2);
    for (const char* engine : {"nuop", "auto"}) {
        SCOPED_TRACE(engine);
        KeyCountingStrategy strategy(engine);
        ProfileCache cache;
        TranslateResult cold =
            translateCircuit(logical, {0, 1, 2, 3}, d, set, decomposer,
                             strategy, cache, /*approximate=*/true);
        EXPECT_EQ(strategy.keys.load(), expected);
        EXPECT_EQ(cold.cache_hits + cold.cache_misses, expected);
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
            strategy.keys = 0;
            strategy.profile_targets = 0;
            TranslateResult warm =
                translateCircuit(logical, {0, 1, 2, 3}, d, set,
                                 decomposer, strategy, cache,
                                 /*approximate=*/true, p);
            EXPECT_EQ(strategy.keys.load(), expected);
            EXPECT_EQ(warm.cache_hits, expected);
            EXPECT_EQ(warm.cache_misses, 0u);
            EXPECT_EQ(warm.distinct_blocks, static_cast<int>(distinct));
            EXPECT_EQ(warm.dressing_fallbacks, 0);
            // No block here is its own Weyl representative, so every
            // distinct unitary costs exactly one dressing solve.
            EXPECT_EQ(strategy.profile_targets.load(),
                      strategy.canonicalizesTargets() ? distinct : 0u);
            // Shared lookups change nothing in the output.
            ASSERT_EQ(warm.circuit.size(), cold.circuit.size());
            for (size_t i = 0; i < warm.circuit.size(); ++i)
                EXPECT_EQ(warm.circuit.ops()[i].unitary().maxAbsDiff(
                              cold.circuit.ops()[i].unitary()),
                          0.0);
        }
    }
}

TEST(Translate, TypeUsageAccounting)
{
    Device d = twoQubitDevice(0.99, 0.99);
    GateSet set = isa::singleTypeSet(3);
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;

    Circuit logical(2);
    logical.add2q(0, 1, zz(0.3), "ZZ");
    logical.add2q(0, 1, zz(0.7), "ZZ");
    TranslateResult result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, cache, false);
    EXPECT_EQ(result.type_usage.at("S3"), result.two_qubit_count);
    EXPECT_EQ(result.two_qubit_count, 4); // 2 layers per ZZ
}

} // namespace
} // namespace qiset
