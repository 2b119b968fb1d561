// warm-recompile: four large circuits recompiled in turn, serially,
// against a profile cache their first compiles warmed.

#include <memory>
#include <optional>

#include "apps/fermi_hubbard.h"
#include "apps/qft.h"
#include "bench/bench_common.h"
#include "traced_pipeline.h"
#include "verify.h"
#include "workload_common.h"

namespace perfbench {

using namespace qiset;

namespace {

/** Set-ups per run: each compiles the four circuits cold (seconds). */
constexpr int kSetupRepeats = 3;
/** Host-speed probes (2 ms each) around each set-up; one per round. */
constexpr int kProbesPerSetup = 20;
/** Rounds of each leg of a traced run. */
constexpr int kTraceRounds = 40;

struct WarmInputs
{
    Device device;
    GateSet set;
    std::vector<Circuit> circuits;
};

WarmInputs
warmInputs(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Circuit> circuits;
    circuits.push_back(makeQftCircuitOnInput(
        32, static_cast<size_t>(rng.uniformInt(0, 0x7fffffff))));
    circuits.push_back(shapedQv(20, 1, rng));
    circuits.push_back(shapedQaoa(20, 1, rng));
    circuits.push_back(makeRandomFermiHubbardCircuit(24, rng));
    return {sycamore(), isa::singleTypeSet(3), std::move(circuits)};
}

CompileOptions
warmOptions()
{
    CompileOptions options;
    options.routing = "sabre";
    return options;
}

/** Inputs plus the cache the untimed first compiles warmed. */
struct WarmState
{
    WarmInputs in;
    std::unique_ptr<ProfileCache> cache;
    std::vector<CompileResult> first;
};

WarmState
warmSetup(uint64_t seed)
{
    WarmState state{warmInputs(seed), std::make_unique<ProfileCache>(), {}};
    for (const Circuit& circuit : state.in.circuits)
        state.first.push_back(compileCircuit(circuit, state.in.device,
                                             state.in.set, *state.cache,
                                             warmOptions()));
    return state;
}

void
runTraced(const RunConfig& config, WarmState& state, Report& report)
{
    const WarmInputs& in = state.in;
    const CompileOptions options = warmOptions();
    LayerFigures figures;
    Clock::time_point start = Clock::now();
    std::vector<CompileResult> untraced;
    for (int round = 0; round < kTraceRounds; ++round)
        for (const Circuit& circuit : in.circuits)
            untraced.push_back(compileCircuit(circuit, in.device, in.set,
                                              *state.cache, options));
    double untraced_s = secondsSince(start);

    SpanRecorder recorder;
    registerTracedStrategies(recorder);
    PassManager pipeline = tracedPipeline(options, recorder);
    ProfileCacheStats before = state.cache->stats();
    std::vector<CompileResult> traced;
    uint64_t compile = 0;
    start = Clock::now();
    setAllocationCounting(true);
    for (int round = 0; round < kTraceRounds; ++round)
        for (const Circuit& circuit : in.circuits)
            traced.push_back(compileTraced(pipeline, circuit, in.device,
                                           in.set, *state.cache, options,
                                           recorder, ++compile));
    setAllocationCounting(false);
    double traced_s = secondsSince(start);

    figures.addCache(before, state.cache->stats());
    checkSameOutputs(state.first, untraced, "repeat", report);
    checkSameOutputs(state.first, traced, "traced", report);
    recordHashes(state.first, traced, report);
    for (const CompileResult& result : traced)
        figures.addResult(result);
    figures.addSpans(recorder.spans(), recorder.names());
    figures.overhead_frac = traced_s / untraced_s - 1.0;
    emitLayers(figures, report);
    writeTrace(config, recorder, report);
}

} // namespace

uint64_t
warmInputsHash(uint64_t seed)
{
    return hashCircuits(warmInputs(seed).circuits);
}

void
runWarmRecompile(const RunConfig& config, Report& report)
{
    Clock::time_point start = Clock::now();
    std::optional<WarmState> warm;
    SetupTimes setup;
    HostSpeed speed;
    if (config.trace) {
        warm = warmSetup(config.seed);
    } else {
        speed.probe(kProbesPerSetup);
        setup.take(kSetupRepeats, speed, kProbesPerSetup,
                   [&] { warm = warmSetup(config.seed); });
    }
    checkInputs(config.workload, config.seed, report);
    WarmState& state = *warm;
    const WarmInputs& in = state.in;
    for (size_t i = 0; i < in.circuits.size(); ++i)
        report.attempt(checkStructure(state.first[i], in.circuits[i],
                                      in.device, in.set)
                           .empty(),
                       "warm-up output " + std::to_string(i) +
                           " is malformed");
    if (config.trace) {
        runTraced(config, state, report);
        return;
    }

    // One sample is one round: the four circuits recompiled in turn.
    // Per-circuit samples would form four separate modes, and a
    // percentile on a mode boundary reads one mode's slowest sample.
    const CompileOptions options = warmOptions();
    // The set-ups (cold compiles, seconds each) count towards the
    // run's --seconds; the loop takes the rest.
    ClosedLoop raw;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> rounds;
    while (secondsSince(start) < config.seconds ||
           !tailSupported(raw.latency_ms.size(), kTailQ)) {
        double round_ms = 0.0, pipeline_ms = 0.0;
        Clock::time_point round_start = Clock::now();
        for (size_t i = 0; i < in.circuits.size(); ++i) {
            Clock::time_point call = Clock::now();
            CompileResult result = compileCircuit(
                in.circuits[i], in.device, in.set, *state.cache, options);
            round_ms += secondsSince(call) * 1e3;
            pipeline_ms += totalWallMs(result.pass_metrics);
            report.attempt(
                bench::resultsBitIdentical(state.first[i], result),
                "warm output of circuit " + std::to_string(i) +
                    " differs from its first compile");
        }
        rounds.emplace_back(round_start, Clock::now());
        raw.add(round_ms, pipeline_ms, in.circuits.size());
        speed.probe(1);
    }
    // Every round's probes are taken; scale each round by those nearest.
    ClosedLoop loop;
    for (size_t r = 0; r < rounds.size(); ++r) {
        double k = speed.scaleAt(rounds[r].first +
                                 (rounds[r].second - rounds[r].first) / 2);
        loop.add(raw.latency_ms[r] * k, raw.compile_ms[r] * k,
                 in.circuits.size());
    }
    std::string fidelities = "[";
    for (const CompileResult& result : state.first)
        fidelities += (fidelities.size() > 1 ? ", " : "") +
                      jsonNumber(result.estimated_fidelity);
    report.detail("est_fidelity", fidelities + "]");
    report.detail("outputs_hash",
                  jsonString(hexHash(hashResults(state.first))));
    emitEndToEnd(report, speed, setup.median(speed),
                 median(loop.latency_ms) * 1e-3, loop, state.first);
}

} // namespace perfbench
