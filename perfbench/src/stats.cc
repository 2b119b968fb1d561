#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace perfbench {

size_t
nearestRank(size_t n, double q)
{
    if (n == 0)
        return 0;
    double rank = std::ceil(q * static_cast<double>(n));
    return std::clamp(static_cast<size_t>(rank), size_t{1}, n);
}

size_t
samplesBeyond(size_t n, double q)
{
    return n - nearestRank(n, q);
}

bool
tailSupported(size_t n, double q)
{
    return samplesBeyond(n, q) >= kTailSamplesBeyond;
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        throw std::invalid_argument("percentile of an empty sample");
    size_t rank = nearestRank(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

std::vector<int64_t>
poissonDueTimes(double rate_per_s, double duration_s, uint64_t seed)
{
    // std::mt19937_64 and the inverse-CDF draw below are fully
    // specified by the standard, so the schedule is the same on every
    // platform (std::exponential_distribution is not).
    std::mt19937_64 gen(seed);
    std::vector<int64_t> due;
    double t = 0.0;
    for (;;) {
        double u = (static_cast<double>(gen() >> 11) + 0.5) * 0x1.0p-53;
        t += -std::log(u) / rate_per_s;
        if (t >= duration_s)
            break;
        due.push_back(static_cast<int64_t>(t * 1e9));
    }
    return due;
}

} // namespace perfbench
