#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

/**
 * @file
 * Sample statistics of the benchmark: nearest-rank percentiles, the
 * rule that a reported tail needs ten samples beyond it, and the
 * Poisson arrival schedule of the open-loop workload with its
 * due-time accounting.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Samples a tail percentile must leave beyond it to be reported. */
constexpr size_t kTailSamplesBeyond = 10;

/** 1-based nearest rank of quantile q in (0, 1] among n samples. */
size_t nearestRank(size_t n, double q);

/** Samples strictly above the nearest-rank q percentile of n. */
size_t samplesBeyond(size_t n, double q);

/** True when n samples leave >= kTailSamplesBeyond beyond q. */
bool tailSupported(size_t n, double q);

/**
 * Nearest-rank percentile q of the samples (copied and sorted).
 * Throws std::invalid_argument on an empty sample.
 */
double percentile(std::vector<double> samples, double q);

/** percentile(samples, 0.5). */
double median(std::vector<double> samples);

/**
 * Due times (ns from the stream start) of a Poisson arrival process
 * at `rate_per_s`, covering [0, duration_s). Deterministic in `seed`.
 */
std::vector<int64_t> poissonDueTimes(double rate_per_s, double duration_s,
                                     uint64_t seed);

/**
 * Open-loop accounting of one request: latency runs from when it was
 * due, not from when the generator got round to sending it, so a
 * stall charges every request it delayed.
 */
struct OpenLoopTiming
{
    int64_t due_ns = 0;
    int64_t sent_ns = 0;
    int64_t done_ns = 0;

    double latencyMs() const { return (done_ns - due_ns) * 1e-6; }
    /** How late the generator sent the request (>= 0). */
    double latenessMs() const
    {
        return sent_ns > due_ns ? (sent_ns - due_ns) * 1e-6 : 0.0;
    }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
