#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/**
 * @file
 * The benchmark's workloads:
 *  - "isa-sweep": the paper's Fig. 10 mix compiled cold for each of
 *    the 14 Google instruction sets, serially;
 *  - "warm-recompile": four large circuits recompiled against a warm
 *    profile cache, serially;
 *  - "service-stream": Poisson arrivals of small circuits into a
 *    CompileService over a sharded fleet, then one batch drain.
 * See perfbench/README.md for why each was chosen and what it reports.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    uint64_t seed = 0;
    /** Measuring time of one run. */
    double seconds = 10.0;
    /** Per-layer (traced) run instead of the end-to-end one. */
    bool trace = false;
    /** Arrival rate of service-stream, jobs/s. */
    double service_rate = 0.0;
    /** Where traced runs write their Chrome trace; empty = nowhere. */
    std::string trace_dir;
};

const std::vector<std::string>& workloadNames();

/**
 * Run one workload into `report`. Throws std::invalid_argument for an
 * unknown workload or a missing setting it needs.
 */
void runWorkload(const RunConfig& config, Report& report);

/** FNV-1a hash of every input a workload generates from `seed`. */
uint64_t workloadInputsHash(const std::string& workload, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
