#ifndef PERFBENCH_WORKLOAD_COMMON_H
#define PERFBENCH_WORKLOAD_COMMON_H

/**
 * @file
 * What the three workloads share: clocks, the fixed devices, seeded
 * circuits of fixed shape, set-up timing, the determinism guard, and
 * the assembly of end-to-end and per-layer metrics. Internal to the
 * benchmark binary.
 */

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/pipeline.h"
#include "host_speed.h"
#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** The reported tail percentile; see README.md for why p90. */
constexpr double kTailQ = 0.90;

double secondsSince(Clock::time_point since);
int64_t nsSince(Clock::time_point since);

/** Synthetic Sycamore from a fixed calibration seed. */
qiset::Device sycamore();

/**
 * Set-up times of one run, in seconds. A set-up of a few milliseconds
 * reads the host at one moment, so a workload takes its samples at
 * several points of the run and reports their median.
 */
class SetupTimes
{
  public:
    /**
     * Run `setup` `repeats` times, timing each, with `probes`
     * host-speed probes after each.
     */
    template <class Setup>
    void take(int repeats, HostSpeed& speed, int probes, Setup&& setup)
    {
        for (int i = 0; i < repeats; ++i) {
            Clock::time_point start = Clock::now();
            setup();
            Clock::time_point end = Clock::now();
            spans_.emplace_back(start, end);
            speed.probe(probes);
        }
    }

    /** Median set-up time, at reference speed. */
    double median(const HostSpeed& speed) const;

  private:
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans_;
};

/**
 * Seeded circuits of fixed shape. The structure (QV layer pairings,
 * QAOA problem graph) comes from `shape`, a per-slot constant of the
 * workload; the run's seed draws every gate parameter through `rng`.
 * Routing work follows the structure, so drawing it from the run seed
 * would make the work of a run, and not the system, set the spread
 * between seeds.
 */
qiset::Circuit shapedQv(int num_qubits, uint64_t shape, qiset::Rng& rng);
qiset::Circuit shapedQaoa(int num_qubits, uint64_t shape, qiset::Rng& rng);

uint64_t hashCircuits(const std::vector<qiset::Circuit>& circuits);

uint64_t hashResults(const std::vector<qiset::CompileResult>& results);

/**
 * Determinism guard on the inputs: the seed reproduces them, and the
 * next seed changes them.
 */
void checkInputs(const std::string& workload, uint64_t seed,
                 Report& report);

/** Each output must hash-equal its reference (cycling through them). */
void checkSameOutputs(const std::vector<qiset::CompileResult>& reference,
                      const std::vector<qiset::CompileResult>& outputs,
                      const std::string& what, Report& report);

/** Determinism guard of a traced run: both legs' hashes, recorded. */
void recordHashes(const std::vector<qiset::CompileResult>& untraced,
                  const std::vector<qiset::CompileResult>& traced,
                  Report& report);

/** Write the recorder's spans under config.trace_dir, if set. */
void writeTrace(const RunConfig& config, const SpanRecorder& recorder,
                Report& report);

/** What a traced leg measured, before normalization. */
struct LayerFigures
{
    double compiles = 0.0;
    double overhead_frac = 0.0;
    /** By span name: summed duration, self time, count, allocations
     *  (inclusive of children). */
    std::map<std::string, double> total_ms, self_ms, count, allocs, bytes;
    qiset::ProfileCacheStats cache;
    double redundant_misses = 0.0;
    double swaps = 0.0, teleports = 0.0, blocks = 0.0;
    std::vector<double> submit_us, queue_ms, service_compile_ms;
    double events_dropped = 0.0;

    void addSpans(const std::vector<Span>& spans,
                  const std::vector<std::string>& names);
    /** One compile's routing and consolidation counts. */
    void addCompile(int swaps, int teleports, double blocks);
    void addResult(const qiset::CompileResult& result);
    /** Cache traffic between two stats() snapshots of one cache. */
    void addCache(const qiset::ProfileCacheStats& before,
                  const qiset::ProfileCacheStats& after);
};

/** Blocks the consolidation pass left in one compile. */
double consolidatedBlocks(const qiset::CompileResult& result);

double valueOr0(const std::map<std::string, double>& map,
                const std::string& key);

/** Every per-layer metric; a layer the workload does not reach is 0. */
void emitLayers(const LayerFigures& figures, Report& report);

/** Timing samples of the serial (closed-loop) workloads, at reference
 *  speed. */
struct ClosedLoop
{
    std::vector<double> latency_ms;
    std::vector<double> compile_ms;
    double busy_s = 0.0;
    size_t compiles = 0;

    /** One sample: caller-side latency and in-pipeline time. */
    void add(double latency, double pipeline_ms, size_t sample_compiles)
    {
        latency_ms.push_back(latency);
        compile_ms.push_back(pipeline_ms);
        busy_s += latency * 1e-3;
        compiles += sample_compiles;
    }
};

/**
 * Every end-to-end metric of a serial workload. The set-up, wall and
 * loop timings come in at reference speed (see host_speed.h); `speed`
 * goes to the detail line.
 */
void emitEndToEnd(Report& report, const HostSpeed& speed, double setup_s,
                  double wall_s, const ClosedLoop& loop,
                  const std::vector<qiset::CompileResult>& outputs);

/** Record a run's host scale and probe count in the detail line. */
void recordHostSpeed(const HostSpeed& speed, Report& report);

// The workloads (isa_sweep.cc, warm_recompile.cc, service_stream.cc).
void runIsaSweep(const RunConfig& config, Report& report);
uint64_t isaInputsHash(uint64_t seed);
void runWarmRecompile(const RunConfig& config, Report& report);
uint64_t warmInputsHash(uint64_t seed);
void runServiceStream(const RunConfig& config, Report& report);
uint64_t serviceInputsHash(uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_COMMON_H
