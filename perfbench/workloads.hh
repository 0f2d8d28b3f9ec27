/**
 * @file
 * The benchmark's three workloads.  Each one repeats its fixed batch
 * of work for the requested time, checks its outputs, prints its work
 * digest and workload-specific figures, and returns every metric it
 * measured by name; main() prints the tables and the result line.
 */

#ifndef FLEXTM_PERFBENCH_WORKLOADS_HH
#define FLEXTM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench
{

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    /** Record spans and report the per-layer metrics. */
    bool trace = false;
    /** Where a traced run writes its spans ("" = nowhere). */
    std::string traceOut;
};

struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metric values by name (units live in main()'s tables). */
    std::map<std::string, double> values;
};

/** sim-paper and sim-oracle. */
Outcome runSimWorkload(const RunArgs &args);

/** native-mixed. */
Outcome runNativeMixed(const RunArgs &args);

} // namespace perfbench

#endif // FLEXTM_PERFBENCH_WORKLOADS_HH
