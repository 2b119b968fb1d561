#ifndef PERFBENCH_HOST_SPEED_H
#define PERFBENCH_HOST_SPEED_H

/**
 * @file
 * Host-speed reference of the end-to-end timings. The shared hosts the
 * benchmark runs on change speed by up to 2x, from one second to the
 * next and between stretches of minutes, so a timing alone says as
 * much about the moment as about the compiler. A run therefore also
 * times a fixed reference kernel, code of the benchmark's own that
 * never calls the library, between its timed samples, and reports each
 * sample scaled to the speed at which the kernel takes kReferenceMs:
 *
 *   reported = measured * kReferenceMs / median(nearby kernel times)
 *
 * where the nearby kernel times are the kNearestProbes probes taken
 * closest in time to the sample. A change to the library moves the
 * measured time and leaves the kernel alone, so it shows in full; a
 * change of host speed moves both and cancels. The detail line records
 * the run's overall scale factor.
 */

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

/**
 * The kernel time that defines the reference speed: a round figure near
 * its median on the host the bounds were set on (1.7-2.6 ms on a 4-core
 * Intel Xeon VM, GCC 12.2, Release), so reported timings there read
 * within about 20% of the measured ones.
 */
constexpr double kReferenceMs = 2.0;

/** Probes whose median scales one sample. */
constexpr size_t kNearestProbes = 9;

/** One run of the reference kernel; its wall time in ms. */
double referenceKernelMs();

/** The kernel times of one run, each stamped with when it ran. */
class HostSpeed
{
  public:
    using TimePoint = std::chrono::steady_clock::time_point;

    /** Time the kernel `repeats` times. */
    void probe(int repeats);

    /** Record one probe: the kernel took `ms` around `at`. */
    void add(TimePoint at, double ms);

    /**
     * kReferenceMs over the median of the kNearestProbes probes
     * closest to `at` (all of them when there are fewer): the factor
     * that takes a time measured at `at` to the reference speed.
     * Throws std::invalid_argument before the first probe.
     */
    double scaleAt(TimePoint at) const;

    /** The same factor over every probe of the run. */
    double scale() const;

    /** A sample measured from `start` to `end`, at reference speed. */
    double atReference(double measured, TimePoint start,
                       TimePoint end) const;

    size_t probes() const { return ms_.size(); }
    TimePoint lastProbe() const { return at_.back(); }

  private:
    std::vector<TimePoint> at_;
    std::vector<double> ms_;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_H
