#include "workloads.h"

#include <stdexcept>

#include "workload_common.h"

namespace perfbench {

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "isa-sweep", "warm-recompile", "service-stream"};
    return names;
}

uint64_t
workloadInputsHash(const std::string& workload, uint64_t seed)
{
    if (workload == "isa-sweep")
        return isaInputsHash(seed);
    if (workload == "warm-recompile")
        return warmInputsHash(seed);
    if (workload == "service-stream")
        return serviceInputsHash(seed);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

void
runWorkload(const RunConfig& config, Report& report)
{
    if (config.workload == "isa-sweep")
        runIsaSweep(config, report);
    else if (config.workload == "warm-recompile")
        runWarmRecompile(config, report);
    else if (config.workload == "service-stream")
        runServiceStream(config, report);
    else
        throw std::invalid_argument("unknown workload '" + config.workload +
                                    "'");
}

} // namespace perfbench
