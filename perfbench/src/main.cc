/**
 * @file
 * The repository benchmark binary. One run = one workload from one
 * seed:
 *
 *   qiset_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--service-rate R] [--trace-dir DIR]
 *
 * Prints one "# detail {...}" line (host fingerprint, hashes, sample
 * counts, failures) and, as the last stdout line, the JSON result
 * {"correct", "attempted", "failed", "metrics"}. Exits non-zero
 * without a result when the run cannot be made.
 */

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

using perfbench::RunConfig;

[[noreturn]] void
usage(const std::string& problem)
{
    std::cerr << "qiset_perfbench: " << problem << "\n"
              << "usage: qiset_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--service-rate R] "
                 "[--trace-dir DIR]\nworkloads:";
    for (const std::string& name : perfbench::workloadNames())
        std::cerr << " " << name;
    std::cerr << "\n";
    std::exit(2);
}

RunConfig
parseArgs(int argc, char** argv)
{
    RunConfig config;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                config.workload = value;
            } else if (flag == "--seed") {
                config.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                config.seconds = std::stod(value);
                have_seconds = config.seconds > 0.0;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                config.trace = value == "1";
                have_trace = true;
            } else if (flag == "--service-rate") {
                config.service_rate = std::stod(value);
            } else if (flag == "--trace-dir") {
                config.trace_dir = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (config.workload.empty() || !have_seed || !have_seconds ||
        !have_trace)
        usage("--workload, --seed, --seconds > 0 and --trace are required");
    return config;
}

} // namespace

int
main(int argc, char** argv)
{
    RunConfig config = parseArgs(argc, argv);
    perfbench::Report report;
    report.detail("workload", perfbench::jsonString(config.workload));
    report.detail("seed", std::to_string(config.seed));
    report.detail("trace", config.trace ? "true" : "false");
    report.detail("host", perfbench::hostFingerprint());
    std::string result;
    try {
        perfbench::runWorkload(config, report);
        result = report.resultLine(config.trace);
    } catch (const std::exception& error) {
        std::cerr << "qiset_perfbench: " << error.what() << "\n";
        return 1;
    }
    std::cout << report.detailLine() << "\n" << result << std::endl;
    return 0;
}
