#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

/**
 * @file
 * The benchmark's metric catalogue and its output: one detail line
 * (host fingerprint, hashes, sample counts, failures) and, last, the
 * result line {"correct", "attempted", "failed", "metrics"}.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** Metrics of an untraced run (--trace 0), every workload. */
const std::vector<MetricSpec>& endToEndMetrics();

/** Metrics of a traced run (--trace 1), every workload. */
const std::vector<MetricSpec>& perLayerMetrics();

/** Passes whose self time and allocations are reported. */
const std::vector<std::string>& reportedPasses();

/** What one run measured and checked. */
class Report
{
  public:
    /** Record a metric; its unit comes from the catalogue. */
    void metric(const std::string& name, double value);

    /** Record a detail; `json` is an already encoded JSON value. */
    void detail(const std::string& key, std::string json);

    /** Count one attempted operation and whether it failed. */
    void attempt(bool ok, const std::string& why = "");

    /** Mark the run incorrect without counting an operation. */
    void invalidate(const std::string& why);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return correct_ && failed_ == 0; }

    /**
     * The result line. Throws std::logic_error unless exactly the
     * catalogue's metrics for the run kind were recorded.
     */
    std::string resultLine(bool trace) const;

    /** The detail line (a JSON object prefixed by "# detail "). */
    std::string detailLine() const;

  private:
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, std::string>> details_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    bool correct_ = true;
};

/** JSON string literal of `s`. */
std::string jsonString(const std::string& s);

/** Shortest round-trip JSON number (all digits kept). */
std::string jsonNumber(double value);

/** Host fingerprint as a JSON object. */
std::string hostFingerprint();

/** Peak resident set size of the process, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
