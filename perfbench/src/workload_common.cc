#include "workload_common.h"

#include <cmath>
#include <filesystem>

#include "apps/qaoa.h"
#include "apps/qv.h"
#include "verify.h"

namespace perfbench {

using namespace qiset;

namespace {

/** Calibration seed of the synthetic Sycamore every workload uses. */
constexpr uint64_t kSycamoreSeed = 10;

double
percentileOr0(const std::vector<double>& samples, double q)
{
    return samples.empty() ? 0.0 : percentile(samples, q);
}

} // namespace

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

int64_t
nsSince(Clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - since)
        .count();
}

Device
sycamore()
{
    Rng rng(kSycamoreSeed);
    return makeSycamore(rng);
}

double
SetupTimes::median(const HostSpeed& speed) const
{
    std::vector<double> seconds;
    for (const auto& [start, end] : spans_)
        seconds.push_back(speed.atReference(
            std::chrono::duration<double>(end - start).count(), start, end));
    return perfbench::median(seconds);
}

Circuit
shapedQv(int num_qubits, uint64_t shape, Rng& rng)
{
    Rng structure(shape);
    Circuit circuit = makeQuantumVolumeCircuit(num_qubits, structure);
    for (OpRef op : circuit.mutableOps())
        op.setUnitary(randomSu4(rng));
    return circuit;
}

Circuit
shapedQaoa(int num_qubits, uint64_t shape, Rng& rng)
{
    Rng structure(shape);
    return makeQaoaCircuit(num_qubits,
                           randomMaxcutGraph(num_qubits, structure), rng);
}

uint64_t
hashCircuits(const std::vector<Circuit>& circuits)
{
    uint64_t hash = kFnvBasis;
    for (const Circuit& circuit : circuits)
        hash = fnv1a(hash, circuitHash(circuit));
    return hash;
}

uint64_t
hashResults(const std::vector<CompileResult>& results)
{
    uint64_t hash = kFnvBasis;
    for (const CompileResult& result : results)
        hash = fnv1a(hash, resultHash(result));
    return hash;
}

void
checkInputs(const std::string& workload, uint64_t seed, Report& report)
{
    uint64_t hash = workloadInputsHash(workload, seed);
    report.detail("inputs_hash", jsonString(hexHash(hash)));
    if (workloadInputsHash(workload, seed) != hash)
        report.invalidate("inputs differ between two draws of one seed");
    if (workloadInputsHash(workload, seed + 1) == hash)
        report.invalidate("seed " + std::to_string(seed + 1) +
                          " draws the same inputs");
}

void
checkSameOutputs(const std::vector<CompileResult>& reference,
                 const std::vector<CompileResult>& outputs,
                 const std::string& what, Report& report)
{
    for (size_t i = 0; i < outputs.size(); ++i)
        report.attempt(resultHash(outputs[i]) ==
                           resultHash(reference[i % reference.size()]),
                       what + " output " + std::to_string(i) +
                           " differs from the untraced one");
}

void
recordHashes(const std::vector<CompileResult>& untraced,
             const std::vector<CompileResult>& traced, Report& report)
{
    std::vector<CompileResult> first_traced(
        traced.begin(),
        traced.begin() + static_cast<std::ptrdiff_t>(untraced.size()));
    report.detail("outputs_hash",
                  jsonString(hexHash(hashResults(untraced))));
    report.detail("traced_outputs_hash",
                  jsonString(hexHash(hashResults(first_traced))));
}

void
writeTrace(const RunConfig& config, const SpanRecorder& recorder,
           Report& report)
{
    if (config.trace_dir.empty())
        return;
    std::error_code error;
    std::filesystem::create_directories(config.trace_dir, error);
    std::string path = config.trace_dir + "/" + config.workload + "-seed" +
                       std::to_string(config.seed) + ".trace.json";
    // Per-lookup spans run to hundreds of thousands on the warm paths;
    // their totals are in nuop.key_ms, nuop.canon_ms and
    // translation.lookups.
    bool ok = writeChromeTrace(path, recorder.spans(), recorder.names(),
                               {"nuop.key", "nuop.canon"});
    report.detail("trace_file", ok ? jsonString(path) : "null");
}

void
LayerFigures::addSpans(const std::vector<Span>& spans,
                       const std::vector<std::string>& names)
{
    std::vector<int64_t> self = selfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        if (span.end_ns < 0)
            continue;
        const std::string& name = names.at(span.name);
        total_ms[name] += (span.end_ns - span.start_ns) * 1e-6;
        self_ms[name] += self[i] * 1e-6;
        count[name] += 1.0;
        allocs[name] += static_cast<double>(span.allocs);
        bytes[name] += static_cast<double>(span.bytes);
    }
}

void
LayerFigures::addCompile(int compile_swaps, int compile_teleports,
                         double compile_blocks)
{
    compiles += 1.0;
    swaps += compile_swaps;
    teleports += compile_teleports;
    blocks += compile_blocks;
}

void
LayerFigures::addResult(const CompileResult& result)
{
    addCompile(result.swaps_inserted, result.teleports_inserted,
               consolidatedBlocks(result));
}

void
LayerFigures::addCache(const ProfileCacheStats& before,
                       const ProfileCacheStats& after)
{
    uint64_t misses = after.misses - before.misses;
    cache.hits += after.hits - before.hits;
    cache.misses += misses;
    cache.entries += after.entries;
    redundant_misses += static_cast<double>(misses) -
                        (static_cast<double>(after.entries) -
                         static_cast<double>(before.entries));
}

double
consolidatedBlocks(const CompileResult& result)
{
    for (const PassMetric& pass : result.pass_metrics) {
        auto it = pass.counters.find("blocks_after");
        if (pass.pass == "consolidation" && it != pass.counters.end())
            return it->second;
    }
    return 0.0;
}

double
valueOr0(const std::map<std::string, double>& map, const std::string& key)
{
    auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
}

void
emitLayers(const LayerFigures& f, Report& report)
{
    double per = f.compiles > 0.0 ? 1.0 / f.compiles : 0.0;
    report.detail("trace_compiles", jsonNumber(f.compiles));
    report.metric("tracing.overhead_frac", f.overhead_frac);
    report.metric("nuop.profile_ms.bfgs",
                  valueOr0(f.total_ms, "nuop.profile.bfgs") * per);
    report.metric("nuop.profile_ms.analytic",
                  valueOr0(f.total_ms, "nuop.profile.analytic") * per);
    report.metric("nuop.profiles.bfgs",
                  valueOr0(f.count, "nuop.profile.bfgs"));
    report.metric("nuop.profiles.analytic",
                  valueOr0(f.count, "nuop.profile.analytic"));
    report.metric("nuop.canon_ms",
                  valueOr0(f.total_ms, "nuop.canon") * per);
    report.metric("nuop.key_ms", valueOr0(f.total_ms, "nuop.key") * per);
    report.metric("translation.lookups", valueOr0(f.count, "nuop.key"));
    double hits = static_cast<double>(f.cache.hits);
    double misses = static_cast<double>(f.cache.misses);
    report.metric("cache.hits", hits);
    report.metric("cache.misses", misses);
    report.metric("cache.hit_ratio",
                  hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    report.metric("cache.entries", static_cast<double>(f.cache.entries));
    report.metric("cache.redundant_misses", f.redundant_misses);
    report.metric("routing.swaps", f.swaps);
    report.metric("routing.teleports", f.teleports);
    report.metric("consolidation.blocks", f.blocks);
    report.metric("alloc.count", valueOr0(f.allocs, "compile") * per);
    report.metric("alloc.bytes", valueOr0(f.bytes, "compile") * per);
    report.metric("service.submit_us.p50",
                  percentileOr0(f.submit_us, 0.5));
    report.metric("service.submit_us.p99",
                  percentileOr0(f.submit_us, 0.99));
    report.metric("service.queue_wait_ms.p50",
                  percentileOr0(f.queue_ms, 0.5));
    report.metric("service.queue_wait_ms.p90",
                  percentileOr0(f.queue_ms, 0.9));
    report.metric("service.compile_ms.p50",
                  percentileOr0(f.service_compile_ms, 0.5));
    report.metric("events.dropped", f.events_dropped);
    for (const std::string& pass : reportedPasses()) {
        report.metric(pass + ".self_ms", valueOr0(f.self_ms, pass) * per);
        report.metric(pass + ".alloc_count",
                      valueOr0(f.allocs, pass) * per);
        report.metric(pass + ".alloc_bytes", valueOr0(f.bytes, pass) * per);
    }
}

void
recordHostSpeed(const HostSpeed& speed, Report& report)
{
    report.detail("host_scale", jsonNumber(speed.scale()));
    report.detail("host_probes", std::to_string(speed.probes()));
}

void
emitEndToEnd(Report& report, const HostSpeed& speed, double setup_s,
             double wall_s, const ClosedLoop& loop,
             const std::vector<CompileResult>& outputs)
{
    double two_qubit = 0.0, log_fidelity = 0.0;
    for (const CompileResult& result : outputs) {
        two_qubit += result.two_qubit_count;
        log_fidelity += std::log(result.estimated_fidelity);
    }
    report.metric("setup_s", setup_s);
    report.metric("wall_s", wall_s);
    report.metric("compile_ms.p50", percentile(loop.compile_ms, 0.5));
    report.metric("compile_ms.p90", percentile(loop.compile_ms, kTailQ));
    report.metric("compiles_per_s",
                  static_cast<double>(loop.compiles) / loop.busy_s);
    report.metric("latency_ms.p50", percentile(loop.latency_ms, 0.5));
    report.metric("two_qubit_total", two_qubit);
    report.metric("est_fidelity_gmean",
                  std::exp(log_fidelity /
                           static_cast<double>(outputs.size())));
    report.metric("peak_rss_mb", peakRssMb());
    recordHostSpeed(speed, report);
    report.detail("samples", std::to_string(loop.latency_ms.size()));
    report.detail("p90_samples_beyond",
                  std::to_string(samplesBeyond(loop.latency_ms.size(),
                                               kTailQ)));
}

} // namespace perfbench
