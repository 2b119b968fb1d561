// isa-sweep: the paper's Fig. 10 mix compiled cold, serially, for each
// of the 14 Google instruction sets on Sycamore.

#include <functional>

#include "apps/fermi_hubbard.h"
#include "apps/qft.h"
#include "bench/bench_common.h"
#include "traced_pipeline.h"
#include "verify.h"
#include "workload_common.h"

namespace perfbench {

using namespace qiset;

namespace {

/**
 * Set-ups (inputs and device, about a millisecond each) taken before
 * each instruction set's compiles, so the median covers the whole run.
 */
constexpr int kSetupRepeatsPerSet = 4;
/** Host-speed probes (2 ms each) before each compile. */
constexpr int kProbesPerCompile = 2;

struct IsaInputs
{
    Device device;
    std::vector<GateSet> sets;
    std::vector<Circuit> circuits;
};

IsaInputs
isaInputs(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Circuit> circuits;
    for (uint64_t shape = 1; shape <= 3; ++shape)
        circuits.push_back(shapedQv(6, shape, rng));
    for (uint64_t shape = 1; shape <= 3; ++shape)
        circuits.push_back(shapedQaoa(6, shape, rng));
    circuits.push_back(makeQftCircuitOnInput(
        6, static_cast<size_t>(rng.uniformInt(0, 63))));
    circuits.push_back(makeRandomFermiHubbardCircuit(6, rng));
    std::vector<GateSet> sets;
    for (int i = 1; i <= 7; ++i)
        sets.push_back(isa::singleTypeSet(i));
    for (int i = 1; i <= 7; ++i)
        sets.push_back(isa::googleSet(i));
    return {sycamore(), std::move(sets), std::move(circuits)};
}

struct Sweep
{
    std::vector<CompileResult> results;
    ClosedLoop loop;
    double wall_s = 0.0;
    /** The wall time as measured, when `wall_s` is at reference speed. */
    double measured_wall_s = 0.0;
};

/**
 * One cold sweep: a fresh ProfileCache per instruction set.
 * `before_set` runs before each set's compiles, outside the sweep's
 * wall time. With `speed`, every compile is preceded by host-speed
 * probes and the timings are taken to reference speed.
 */
Sweep
isaSweep(const IsaInputs& in, const CompileOptions& options,
         HostSpeed* speed = nullptr,
         const std::function<void()>& before_set = {})
{
    Sweep sweep;
    for (const GateSet& set : in.sets) {
        if (before_set)
            before_set();
        double set_s = 0.0;
        ProfileCache cache;
        for (const Circuit& circuit : in.circuits) {
            if (speed)
                speed->probe(kProbesPerCompile);
            Clock::time_point call = Clock::now();
            CompileResult result =
                compileCircuit(circuit, in.device, set, cache, options);
            Clock::time_point end = Clock::now();
            double call_ms =
                std::chrono::duration<double, std::milli>(end - call)
                    .count();
            double pipeline_ms = totalWallMs(result.pass_metrics);
            sweep.measured_wall_s += call_ms * 1e-3;
            if (speed) {
                double k = speed->scaleAt(call + (end - call) / 2);
                call_ms *= k;
                pipeline_ms *= k;
            }
            set_s += call_ms * 1e-3;
            sweep.loop.add(call_ms, pipeline_ms, 1);
            sweep.results.push_back(std::move(result));
        }
        sweep.wall_s += set_s;
    }
    return sweep;
}

Sweep
tracedIsaSweep(const IsaInputs& in, const CompileOptions& options,
               SpanRecorder& recorder, LayerFigures& figures)
{
    Sweep sweep;
    PassManager pipeline = tracedPipeline(options, recorder);
    uint64_t compile = 0;
    Clock::time_point start = Clock::now();
    for (const GateSet& set : in.sets) {
        ProfileCache cache;
        for (const Circuit& circuit : in.circuits)
            sweep.results.push_back(compileTraced(pipeline, circuit,
                                                  in.device, set, cache,
                                                  options, recorder,
                                                  ++compile));
        figures.addCache(ProfileCacheStats(), cache.stats());
    }
    sweep.wall_s = secondsSince(start);
    return sweep;
}

void
verifySweep(const IsaInputs& in, const Sweep& sweep, Report& report)
{
    size_t i = 0;
    for (const GateSet& set : in.sets)
        for (const Circuit& circuit : in.circuits) {
            std::string why =
                verifyOutput(sweep.results[i], circuit, in.device, set);
            report.attempt(why.empty(), set.name + " circuit " +
                                            std::to_string(i % 8) + ": " +
                                            why);
            ++i;
        }
}

} // namespace

uint64_t
isaInputsHash(uint64_t seed)
{
    return hashCircuits(isaInputs(seed).circuits);
}

void
runIsaSweep(const RunConfig& config, Report& report)
{
    IsaInputs in = isaInputs(config.seed);
    checkInputs(config.workload, config.seed, report);
    const CompileOptions options; // library defaults throughout

    if (config.trace) {
        LayerFigures figures;
        Sweep untraced = isaSweep(in, options);
        verifySweep(in, untraced, report);
        SpanRecorder recorder;
        registerTracedStrategies(recorder);
        setAllocationCounting(true);
        Sweep traced = tracedIsaSweep(in, options, recorder, figures);
        setAllocationCounting(false);
        checkSameOutputs(untraced.results, traced.results, "traced",
                         report);
        recordHashes(untraced.results, traced.results, report);
        for (const CompileResult& result : traced.results)
            figures.addResult(result);
        figures.addSpans(recorder.spans(), recorder.names());
        figures.overhead_frac = traced.wall_s / untraced.wall_s - 1.0;
        emitLayers(figures, report);
        writeTrace(config, recorder, report);
        return;
    }

    SetupTimes setup;
    HostSpeed speed;
    auto setUp = [&] {
        setup.take(kSetupRepeatsPerSet, speed, 1,
                   [&] { IsaInputs again = isaInputs(config.seed); });
    };
    // Another sweep only when it fits in the run; it must then
    // reproduce the first bit for bit.
    std::vector<Sweep> sweeps;
    Clock::time_point start = Clock::now();
    do {
        sweeps.push_back(isaSweep(in, options, &speed, setUp));
    } while (secondsSince(start) + sweeps.back().measured_wall_s <=
             config.seconds);

    const Sweep& first = sweeps.front();
    verifySweep(in, first, report);
    ClosedLoop all;
    std::vector<double> walls;
    for (size_t s = 0; s < sweeps.size(); ++s) {
        const ClosedLoop& loop = sweeps[s].loop;
        for (size_t i = 0; i < sweeps[s].results.size(); ++i) {
            all.add(loop.latency_ms[i], loop.compile_ms[i], 1);
            if (s > 0)
                report.attempt(bench::resultsBitIdentical(
                                   first.results[i], sweeps[s].results[i]),
                               "repeat sweep output " + std::to_string(i) +
                                   " differs from the first");
        }
        walls.push_back(sweeps[s].wall_s);
    }

    // The paper's Fig. 10 y-axis: density-matrix success rate.
    double success = 0.0;
    for (size_t i = 0; i < first.results.size(); ++i)
        success += simulateSuccessRate(
            first.results[i], in.circuits[i % in.circuits.size()]);
    report.detail("success_rate_mean",
                  jsonNumber(success / first.results.size()));
    report.detail("sweeps", std::to_string(sweeps.size()));
    report.detail("outputs_hash",
                  jsonString(hexHash(hashResults(first.results))));
    emitEndToEnd(report, speed, setup.median(speed), median(walls), all,
                 first.results);
}

} // namespace perfbench
