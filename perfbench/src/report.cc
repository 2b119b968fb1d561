#include "report.h"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "qc/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec>&
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"compile_ms.p50", "ms"},
        {"compile_ms.p90", "ms"},
        {"compiles_per_s", "1/s"},
        {"latency_ms.p50", "ms"},
        {"two_qubit_total", "count"},
        {"est_fidelity_gmean", "frac"},
        {"peak_rss_mb", "MiB"},
    };
    return specs;
}

const std::vector<std::string>&
reportedPasses()
{
    static const std::vector<std::string> passes = {
        "mapping",     "routing",    "consolidation",
        "translation", "scheduling", "noise-annotation"};
    return passes;
}

const std::vector<MetricSpec>&
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            {"tracing.overhead_frac", "frac"},
            {"nuop.profile_ms.bfgs", "ms/compile"},
            {"nuop.profile_ms.analytic", "ms/compile"},
            {"nuop.profiles.bfgs", "count"},
            {"nuop.profiles.analytic", "count"},
            {"nuop.canon_ms", "ms/compile"},
            {"nuop.key_ms", "ms/compile"},
            {"translation.lookups", "count"},
            {"cache.hits", "count"},
            {"cache.misses", "count"},
            {"cache.hit_ratio", "frac"},
            {"cache.entries", "count"},
            {"cache.redundant_misses", "count"},
            {"routing.swaps", "count"},
            {"routing.teleports", "count"},
            {"consolidation.blocks", "count"},
            {"alloc.count", "count/compile"},
            {"alloc.bytes", "B/compile"},
            {"service.submit_us.p50", "us"},
            {"service.submit_us.p99", "us"},
            {"service.queue_wait_ms.p50", "ms"},
            {"service.queue_wait_ms.p90", "ms"},
            {"service.compile_ms.p50", "ms"},
            {"events.dropped", "count"},
        };
        for (const std::string& pass : reportedPasses()) {
            s.push_back({pass + ".self_ms", "ms/compile"});
            s.push_back({pass + ".alloc_count", "count/compile"});
            s.push_back({pass + ".alloc_bytes", "B/compile"});
        }
        return s;
    }();
    return specs;
}

void
Report::metric(const std::string& name, double value)
{
    metrics_.emplace_back(name, value);
}

void
Report::detail(const std::string& key, std::string json)
{
    details_.emplace_back(key, std::move(json));
}

void
Report::attempt(bool ok, const std::string& why)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 20)
            failures_.push_back(why);
    }
}

void
Report::invalidate(const std::string& why)
{
    correct_ = false;
    if (failures_.size() < 20)
        failures_.push_back(why);
}

std::string
Report::resultLine(bool trace) const
{
    const std::vector<MetricSpec>& catalogue =
        trace ? perLayerMetrics() : endToEndMetrics();
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    if (metrics_.size() != catalogue.size())
        throw std::logic_error("metric count differs from the catalogue");
    for (size_t i = 0; i < catalogue.size(); ++i) {
        auto it = std::find_if(metrics_.begin(), metrics_.end(),
                               [&](const auto& m) {
                                   return m.first == catalogue[i].name;
                               });
        if (it == metrics_.end())
            throw std::logic_error("metric not recorded: " +
                                   catalogue[i].name);
        os << (i ? ", " : "") << jsonString(catalogue[i].name)
           << ": {\"value\": " << jsonNumber(it->second)
           << ", \"unit\": " << jsonString(catalogue[i].unit) << "}";
    }
    os << "}}";
    return os.str();
}

std::string
Report::detailLine() const
{
    std::ostringstream os;
    os << "# detail {";
    for (size_t i = 0; i < details_.size(); ++i)
        os << (i ? ", " : "") << jsonString(details_[i].first) << ": "
           << details_[i].second;
    os << (details_.empty() ? "" : ", ") << "\"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i)
        os << (i ? ", " : "") << jsonString(failures_[i]);
    os << "]}";
    return os.str();
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        throw std::logic_error("non-finite metric value");
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
hostFingerprint()
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    struct utsname uts = {};
    std::string kernel = uname(&uts) == 0
                             ? std::string(uts.sysname) + " " + uts.release
                             : "unknown";
    std::ostringstream os;
    os << "{\"cores\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << jsonString(cpu)
       << ", \"kernel\": " << jsonString(kernel)
       << ", \"compiler\": " << jsonString(__VERSION__)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"kernel_tier\": "
       << jsonString(qiset::kernels::tierName()) << "}";
    return os.str();
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
