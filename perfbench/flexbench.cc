/**
 * @file
 * The repository benchmark: one command that runs a named workload
 * through the public API of each module, checks its outputs, and
 * prints every metric by name with its unit.
 *
 *     flexbench --workload sim-paper|sim-oracle|native-mixed
 *               --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones (from a run that alternates traced and untraced passes, so it
 * also reports the tracing overhead).  The last stdout line is the
 * JSON result; the exit code is nonzero when a correctness check
 * failed.  perfbench/README.md documents the workloads and metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every workload reports all of these (BENCHMARK.json end_to_end). */
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_us_p50", "us"},
    {"latency_us_p99", "us"},
    {"peak_rss_mb", "MB"},
};

/** BENCHMARK.json per_layer.  A layer a workload does not exercise
 *  (the simulator on native-mixed, libflextm on sim-*) reads 0. */
constexpr MetricDef kPerLayer[] = {
    {"runtime.construct_s", "s"},
    {"runtime.teardown_s", "s"},
    {"runtime.commits", "count"},
    {"runtime.aborts", "count"},
    {"runtime.commit_ratio", "ratio"},
    {"runtime.cm_backoffs", "count"},
    {"runtime.irrevocable_entries", "count"},
    {"runtime.commits_per_mcycle", "1/Mcycle"},
    {"workloads.setup_s", "s"},
    {"workloads.setup_mcycles", "Mcycles"},
    {"workloads.verify_s", "s"},
    {"sim.parallel_s", "s"},
    {"sim.parallel_mcycles", "Mcycles"},
    {"sim.mcycles_per_s", "Mcycles/s"},
    {"sim.host_ns_per_access", "ns"},
    {"sim.oracle_s", "s"},
    {"sim.oracle_checked_ops", "count"},
    {"sim.oracle_ns_per_op", "ns"},
    {"sim.faults_fired", "count"},
    {"mem.l1_accesses", "count"},
    {"mem.l1_miss_ratio", "ratio"},
    {"mem.l2_misses", "count"},
    {"mem.dir_requests", "count"},
    {"mem.dir_forwards", "count"},
    {"mem.sharer_cache_hit_ratio", "ratio"},
    {"mem.cas_ops", "count"},
    {"core.pdi_tmi_installs", "count"},
    {"core.flash_aborts", "count"},
    {"core.commit_failed_csts", "count"},
    {"core.ot_spills", "count"},
    {"os.suspends", "count"},
    {"os.resumes", "count"},
    {"os.summary_traps", "count"},
    {"native.begin_ns_p50", "ns"},
    {"native.begin_ns_p99", "ns"},
    {"native.read_ns_p50", "ns"},
    {"native.read_ns_p99", "ns"},
    {"native.write_ns_p50", "ns"},
    {"native.write_ns_p99", "ns"},
    {"native.commit_ns_p50", "ns"},
    {"native.commit_ns_p99", "ns"},
    {"native.aborts_at_read", "count"},
    {"native.aborts_at_write", "count"},
    {"native.aborts_at_commit", "count"},
    {"native.commit_ratio", "ratio"},
    {"native.retries_per_txn_p99", "count"},
    {"native.wasted_s", "s"},
    {"native.ro_share", "ratio"},
    {"native.ro_txn_us_p50", "us"},
    {"native.ro_txn_us_p99", "us"},
    {"native.rw_txn_us_p50", "us"},
    {"native.rw_txn_us_p99", "us"},
    {"native.txn_self_ns_p50", "ns"},
    {"trace.spans", "count"},
    {"trace.unattributed_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "flexbench: %s\nusage: flexbench --workload "
                 "sim-paper|sim-oracle|native-mixed --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

template <std::size_t N>
std::vector<Metric>
collect(const MetricDef (&defs)[N], const Outcome &o)
{
    std::vector<Metric> ms;
    for (const MetricDef &d : defs) {
        const auto it = o.values.find(d.name);
        ms.push_back(Metric{d.name, it == o.values.end() ? 0.0 : it->second,
                            d.unit});
    }
    return ms;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *val = argv[++i];
        if (a == "--workload") {
            args.workload = val;
        } else if (a == "--seed") {
            args.seed = parseUnsigned("--seed", val);
            haveSeed = true;
        } else if (a == "--seconds") {
            args.seconds =
                static_cast<double>(parseUnsigned("--seconds", val));
            haveSeconds = true;
        } else if (a == "--trace") {
            const std::uint64_t t = parseUnsigned("--trace", val);
            if (t > 1)
                usage("--trace takes 0 or 1");
            args.trace = t == 1;
            haveTrace = true;
        } else if (a == "--trace-out") {
            args.traceOut = val;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds and --trace are required");

    Outcome o;
    if (args.workload == "sim-paper" || args.workload == "sim-oracle")
        o = runSimWorkload(args);
    else if (args.workload == "native-mixed")
        o = runNativeMixed(args);
    else
        usage(("unknown workload '" + args.workload + "'").c_str());
    o.values["peak_rss_mb"] = peakRssMb();

    const std::vector<Metric> ms =
        args.trace ? collect(kPerLayer, o) : collect(kEndToEnd, o);
    printMetrics(args.trace ? "per-layer metrics" : "end-to-end metrics",
                 ms);
    printResultJson(o.correct, o.attempted, o.failed, ms);
    return o.correct ? 0 : 1;
}
