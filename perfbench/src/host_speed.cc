#include "host_speed.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "stats.h"

namespace perfbench {

namespace {

using Complex = std::complex<double>;
using Matrix4 = std::array<Complex, 16>;

/** Rounds of each half of the kernel; about 2 ms in all. */
constexpr int kProductRounds = 5000;
constexpr int kTableRounds = 24000;

/** Keeps the kernel's results live. */
volatile double g_sink = 0.0;

Matrix4
product(const Matrix4& a, const Matrix4& b)
{
    Matrix4 c{};
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 4; ++k)
            for (int j = 0; j < 4; ++j)
                c[i * 4 + j] += a[i * 4 + k] * b[k * 4 + j];
    return c;
}

/**
 * The two kinds of work the compiler does: small dense complex
 * products (decomposition numerics) and hashing with small
 * allocations (profile-cache keys, routing tables).
 */
double
kernel()
{
    Matrix4 a, b;
    for (int i = 0; i < 16; ++i) {
        a[i] = std::polar(0.5, 0.37 * i);
        b[i] = std::polar(0.5, -0.21 * i);
    }
    for (int round = 0; round < kProductRounds; ++round) {
        a = product(a, b);
        // Renormalize so the chain neither overflows nor underflows.
        double norm = 0.0;
        for (const Complex& z : a)
            norm += std::norm(z);
        double inv = 1.0 / std::sqrt(norm);
        for (Complex& z : a)
            z *= inv;
    }
    std::unordered_map<uint64_t, uint32_t> table;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint64_t found = 0;
    for (int round = 0; round < kTableRounds; ++round) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        table[x >> 52] += static_cast<uint32_t>(round);
        found += table.count((x >> 40) & 0xfff);
    }
    return a[0].real() + static_cast<double>(found + table.size());
}

} // namespace

double
referenceKernelMs()
{
    auto start = std::chrono::steady_clock::now();
    g_sink = g_sink + kernel();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
HostSpeed::probe(int repeats)
{
    for (int i = 0; i < repeats; ++i) {
        TimePoint start = std::chrono::steady_clock::now();
        double ms = referenceKernelMs();
        add(start + std::chrono::microseconds(
                        static_cast<int64_t>(ms * 500.0)),
            ms);
    }
}

void
HostSpeed::add(TimePoint at, double ms)
{
    at_.push_back(at);
    ms_.push_back(ms);
}

double
HostSpeed::scaleAt(TimePoint at) const
{
    if (ms_.size() <= kNearestProbes)
        return scale();
    std::vector<std::pair<int64_t, double>> by_distance;
    by_distance.reserve(ms_.size());
    for (size_t i = 0; i < ms_.size(); ++i) {
        int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         at_[i] - at)
                         .count();
        by_distance.emplace_back(ns < 0 ? -ns : ns, ms_[i]);
    }
    std::nth_element(by_distance.begin(),
                     by_distance.begin() + kNearestProbes - 1,
                     by_distance.end());
    std::vector<double> nearest;
    for (size_t i = 0; i < kNearestProbes; ++i)
        nearest.push_back(by_distance[i].second);
    return kReferenceMs / median(nearest);
}

double
HostSpeed::scale() const
{
    return kReferenceMs / median(ms_);
}

double
HostSpeed::atReference(double measured, TimePoint start,
                       TimePoint end) const
{
    return measured * scaleAt(start + (end - start) / 2);
}

} // namespace perfbench
