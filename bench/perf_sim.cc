/**
 * @file
 * Simulator-performance trajectory bench (BENCH_sim.json).
 *
 * Unlike the figure/table harnesses, which measure the *simulated*
 * machine, perf_sim measures the *simulator*: host wall-clock and
 * simulated-cycles-per-host-second over fixed sets of cells.  Each
 * set is one "section" of the JSON:
 *
 *  - the frozen matrix (sections "baseline" / "current"): the 54-cell
 *    fault sweep shape (6 runtimes x 3 workloads x 3 seeds, 4
 *    threads, 96 ops, chaos fault plan, full oracle replay), frozen so
 *    successive PRs are comparable;
 *  - one side cell per row of kSideCells ("<name>_baseline" /
 *    "<name>_current"), for features that postdate the matrix and so
 *    must not change it.
 *
 * The first run records itself as the baseline:
 *
 *     perf_sim --record-baseline --out BENCH_sim.json
 *
 * Later runs reload the baseline blocks from the existing file,
 * re-measure, and emit both plus the matrix speedup:
 *
 *     perf_sim --out BENCH_sim.json
 *
 * Determinism cross-check: each section's summed commits / aborts /
 * checked-ops / cycles are part of the file; a current run whose
 * totals differ from the baseline's is measuring different work (a
 * red flag that a "perf" change altered simulation semantics) and
 * exits nonzero.
 *
 * --quick runs a 6-cell subset of the matrix (one workload, one seed
 * per runtime) plus the side cells, with no JSON output - the
 * perf-smoke ctest entries, so the harness itself cannot rot.
 *
 * --check FILE is the regression gate: re-measure every section
 * serially, verify the simulated work is bit-identical to FILE's
 * current sections, and fail when any section's wall clock exceeds
 * the recorded one by more than --max-regress percent (default 20)
 * plus a slack allowance.  The slack defaults to 0.05s + one recorded
 * wall, because the ctest entry runs the RelWithDebInfo build against
 * numbers recorded from the Release+LTO bench build; pass an explicit
 * --slack 0.05 for the strict like-for-like 20% gate when checking
 * from build-bench.
 *
 * The "native" block is real host ops/sec of the native libflextm
 * library (TL2 and global-lock backends) on the grader's read-mostly
 * Zipfian mix (bench/native_window.hh).  Host throughput is
 * machine-dependent and has no simulated-work identity, so the block
 * is trajectory-only: excluded from both the identity check and the
 * --check gate.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/native_window.hh"
#include "sim/env_util.hh"
#include "sim/parallel.hh"
#include "workloads/fault_harness.hh"

using namespace flextm;

namespace
{

constexpr RuntimeKind kRuntimes[] = {
    RuntimeKind::FlexTmEager, RuntimeKind::FlexTmLazy,
    RuntimeKind::Cgl,         RuntimeKind::Rstm,
    RuntimeKind::Tl2,         RuntimeKind::RtmF,
};
constexpr WorkloadKind kWorkloads[] = {
    WorkloadKind::HashTable,
    WorkloadKind::LFUCache,
    WorkloadKind::RBTree,
};
constexpr unsigned kSeedsPerCell = 3;
constexpr unsigned kThreads = 4;
constexpr unsigned kTotalOps = 96;

struct Cell
{
    RuntimeKind rk;
    WorkloadKind wk;
    std::uint64_t seed;
    MemBackendKind memBackend = MemBackendKind::Fixed;
    /** Contention-management policy (the frozen matrix is all-Polka). */
    CmPolicy policy = CmPolicy::Polka;
};

/** A side cell: tracked beside (not inside) the frozen matrix, in its
 *  own <name>_baseline / <name>_current section pair. */
struct SideCell
{
    const char *name;
    Cell cell;
};

const SideCell kSideCells[] = {
    // The banked DRAM backend instead of flat memory latency.
    {"dram", {RuntimeKind::FlexTmEager, WorkloadKind::HashTable, 7000,
              MemBackendKind::Dram}},
    // The hybrid runtime, which postdates the 6-runtime matrix.
    {"hytm", {RuntimeKind::HyTm, WorkloadKind::HashTable, 7200}},
    // The adversarial hot-spot storm under a non-default policy.
    {"cm", {RuntimeKind::FlexTmEager, WorkloadKind::HotSpot, 7400,
            MemBackendKind::Fixed, CmPolicy::TimestampGreedy}},
};

struct Totals
{
    double wallSeconds = 0.0;
    std::uint64_t simCycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t checkedOps = 0;
    unsigned jobs = 1;

    double
    cyclesPerSecond() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(simCycles) / wallSeconds;
    }
};

/** One timed cell set and its JSON section pair. */
struct Section
{
    std::string name;    //!< log label
    std::string prefix;  //!< JSON key prefix ("" for the matrix)
    std::vector<Cell> cells;
    Totals current;

    std::string key(const char *what) const { return prefix + what; }
};

std::vector<Cell>
buildMatrix(bool quick)
{
    std::vector<Cell> cells;
    unsigned r = 0;
    for (RuntimeKind rk : kRuntimes) {
        unsigned w = 0;
        for (WorkloadKind wk : kWorkloads) {
            for (unsigned k = 0; k < kSeedsPerCell; ++k) {
                // Same seed derivation style as the fault sweep:
                // distinct per cell, stable across runs.
                cells.push_back(Cell{
                    rk, wk,
                    7000 + (std::uint64_t{r} * 8 + w) * kSeedsPerCell +
                        k});
                if (quick)
                    break;
            }
            ++w;
            if (quick)
                break;
        }
        ++r;
    }
    return cells;
}

/** The matrix first, then one section per side cell. */
std::vector<Section>
buildSections(bool quick)
{
    std::vector<Section> sections;
    sections.push_back({"flat", "", buildMatrix(quick), {}});
    for (const SideCell &s : kSideCells)
        sections.push_back(
            {s.name, std::string(s.name) + "_", {s.cell}, {}});
    return sections;
}

ExperimentResult
runCell(const Cell &c)
{
    FaultRunOptions opt;
    opt.seed = c.seed;
    opt.threads = kThreads;
    opt.totalOps = kTotalOps;
    opt.quiet = true;
    opt.machine.cmPolicy = c.policy;
    opt.machine.memBackend = c.memBackend;
    return runFaultedExperiment(c.wk, c.rk, opt);
}

/** Run @p cells across @p jobs workers; returns totals. */
bool
runCells(const std::vector<Cell> &cells, unsigned jobs, Totals &tot)
{
    std::vector<ExperimentResult> results(cells.size());
    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(cells.size(), jobs,
                [&](std::size_t i) { results[i] = runCell(cells[i]); });
    const auto t1 = std::chrono::steady_clock::now();

    tot = Totals{};
    tot.jobs = jobs;
    tot.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    for (const ExperimentResult &r : results) {
        if (!r.report.ok) {
            std::fprintf(stderr, "perf_sim: cell failed: %s\n",
                         r.report.message.c_str());
            return false;
        }
        tot.simCycles += r.cycles;
        tot.commits += r.commits;
        tot.aborts += r.aborts;
        tot.checkedOps += r.report.checkedOps;
    }
    return true;
}

/**
 * Minimal extractor for the flat JSON this tool writes: finds
 * `"<section>": { ... "<key>": <number> ... }`.  Good enough to
 * round-trip our own output; not a general JSON parser.
 */
bool
extractNumber(const std::string &text, const std::string &section,
              const std::string &key, double &out)
{
    const std::size_t s = text.find("\"" + section + "\"");
    if (s == std::string::npos)
        return false;
    const std::size_t open = text.find('{', s);
    const std::size_t close = text.find('}', open);
    if (open == std::string::npos || close == std::string::npos)
        return false;
    const std::string body = text.substr(open, close - open);
    const std::size_t k = body.find("\"" + key + "\"");
    if (k == std::string::npos)
        return false;
    const std::size_t colon = body.find(':', k);
    if (colon == std::string::npos)
        return false;
    out = std::strtod(body.c_str() + colon + 1, nullptr);
    return true;
}

bool
loadTotals(const std::string &text, const std::string &section,
           Totals &base)
{
    double wall = 0, cycles = 0, commits = 0, aborts = 0, ops = 0;
    if (!extractNumber(text, section, "wall_seconds", wall) ||
        !extractNumber(text, section, "sim_cycles", cycles) ||
        !extractNumber(text, section, "commits", commits) ||
        !extractNumber(text, section, "aborts", aborts) ||
        !extractNumber(text, section, "checked_ops", ops)) {
        return false;
    }
    base.wallSeconds = wall;
    base.simCycles = static_cast<std::uint64_t>(cycles);
    base.commits = static_cast<std::uint64_t>(commits);
    base.aborts = static_cast<std::uint64_t>(aborts);
    base.checkedOps = static_cast<std::uint64_t>(ops);
    return true;
}

bool
readFile(const std::string &path, std::string &text)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
    return true;
}

/** The simulated-work identity check between a section's baseline
 *  and its re-measurement (perf must never change semantics). */
bool
matrixMatches(const std::string &what, const Totals &baseline,
              const Totals &current)
{
    if (baseline.commits == current.commits &&
        baseline.aborts == current.aborts &&
        baseline.checkedOps == current.checkedOps &&
        baseline.simCycles == current.simCycles) {
        return true;
    }
    std::fprintf(stderr,
                 "perf_sim: %s MATRIX MISMATCH vs baseline "
                 "(commits %llu/%llu aborts %llu/%llu "
                 "ops %llu/%llu cycles %llu/%llu)\n",
                 what.c_str(), (unsigned long long)current.commits,
                 (unsigned long long)baseline.commits,
                 (unsigned long long)current.aborts,
                 (unsigned long long)baseline.aborts,
                 (unsigned long long)current.checkedOps,
                 (unsigned long long)baseline.checkedOps,
                 (unsigned long long)current.simCycles,
                 (unsigned long long)baseline.simCycles);
    return false;
}

/** One section of the --check gate: simulated-work identity plus the
 *  wall-clock threshold against the recorded section. */
bool
checkSection(const std::string &what, const Totals &ref,
             const Totals &cur, double maxRegressPct,
             double slackSeconds)
{
    if (!matrixMatches(what, ref, cur))
        return false;
    const double slack =
        slackSeconds >= 0 ? slackSeconds : 0.05 + ref.wallSeconds;
    const double limit =
        ref.wallSeconds * (1.0 + maxRegressPct / 100.0) + slack;
    const bool ok = cur.wallSeconds <= limit;
    std::fprintf(stderr,
                 "perf_sim: check %-4s %s: %.3fs vs recorded %.3fs "
                 "(limit %.3fs = +%.0f%% + %.2fs slack)\n",
                 what.c_str(), ok ? "ok" : "REGRESSED", cur.wallSeconds,
                 ref.wallSeconds, limit, maxRegressPct, slack);
    return ok;
}

void
writeSection(std::FILE *f, const std::string &name, const Totals &t)
{
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"wall_seconds\": %.4f,\n"
                 "    \"sim_cycles\": %llu,\n"
                 "    \"sim_cycles_per_second\": %.0f,\n"
                 "    \"commits\": %llu,\n"
                 "    \"aborts\": %llu,\n"
                 "    \"checked_ops\": %llu,\n"
                 "    \"jobs\": %u\n"
                 "  },\n",
                 name.c_str(), t.wallSeconds,
                 static_cast<unsigned long long>(t.simCycles),
                 t.cyclesPerSecond(),
                 static_cast<unsigned long long>(t.commits),
                 static_cast<unsigned long long>(t.aborts),
                 static_cast<unsigned long long>(t.checkedOps), t.jobs);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_sim.json";
    std::string check_path;
    bool record_baseline = false;
    bool quick = false;
    double max_regress_pct = 20.0;
    double slack_seconds = -1.0;  // negative = auto (cross-build)
    unsigned jobs = defaultJobs();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (a == "--check" && i + 1 < argc) {
            check_path = argv[++i];
        } else if (a == "--max-regress" && i + 1 < argc) {
            max_regress_pct =
                env::parseF64("--max-regress", argv[++i], 0.0, 1000.0);
        } else if (a == "--slack" && i + 1 < argc) {
            slack_seconds =
                env::parseF64("--slack", argv[++i], 0.0, 3600.0);
        } else if (a == "--record-baseline") {
            record_baseline = true;
        } else if (a == "--quick") {
            quick = true;
        } else if (a == "--jobs" && i + 1 < argc) {
            jobs = static_cast<unsigned>(
                env::parseU64("--jobs", argv[++i], 1, 4096));
        } else {
            std::fprintf(stderr,
                         "usage: perf_sim [--out FILE] [--check FILE "
                         "[--max-regress PCT] [--slack SECONDS]] "
                         "[--record-baseline] [--quick] [--jobs N]\n");
            return 2;
        }
    }
    if (!check_path.empty())
        jobs = 1;  // the gate wants the stable serial wall clock

    std::vector<Section> sections = buildSections(quick);
    const Section &matrix = sections.front();
    std::fprintf(stderr,
                 "perf_sim: %zu cells (%s), %u job%s ...\n",
                 matrix.cells.size(), quick ? "quick" : "full", jobs,
                 jobs == 1 ? "" : "s");

    // Serial pass over every section: the single-thread trajectory
    // numbers.
    for (Section &s : sections) {
        if (!runCells(s.cells, 1, s.current))
            return 1;
        std::fprintf(stderr,
                     "perf_sim: %s serial %.2fs, %.0f Mcycles/s, "
                     "%llu sim cycles, %llu commits\n",
                     s.name.c_str(), s.current.wallSeconds,
                     s.current.cyclesPerSecond() / 1e6,
                     static_cast<unsigned long long>(s.current.simCycles),
                     static_cast<unsigned long long>(s.current.commits));
    }

    // Parallel pass over the matrix (skipped when it would repeat the
    // serial pass).
    Totals parallel = matrix.current;
    if (jobs > 1) {
        if (!runCells(matrix.cells, jobs, parallel))
            return 1;
        std::fprintf(stderr, "perf_sim: parallel(%u) %.2fs\n", jobs,
                     parallel.wallSeconds);
    }

    if (quick) {
        std::fprintf(stderr, "perf_sim: quick mode, no JSON output\n");
        return 0;
    }

    if (!check_path.empty()) {
        std::string ref_text;
        if (!readFile(check_path, ref_text)) {
            std::fprintf(stderr, "perf_sim: cannot read %s\n",
                         check_path.c_str());
            return 1;
        }
        bool ok = true;
        for (const Section &s : sections) {
            Totals ref;
            if (!loadTotals(ref_text, s.key("current"), ref)) {
                std::fprintf(stderr,
                             "perf_sim: %s lacks the %s section "
                             "needed for --check\n",
                             check_path.c_str(),
                             s.key("current").c_str());
                return 1;
            }
            ok &= checkSection(s.name, ref, s.current, max_regress_pct,
                               slack_seconds);
        }
        if (!ok) {
            std::fprintf(stderr,
                         "perf_sim: wall-clock regression gate FAILED "
                         "vs %s\n",
                         check_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "perf_sim: regression gate ok vs %s\n",
                     check_path.c_str());
        return 0;
    }

    // Native libflextm throughput on the grader's acceptance mix, in
    // short windows.  Informational (machine-dependent wall time, no
    // simulated-work identity), so it runs only when a full JSON is
    // being written.
    bench::NativeMix nativeMix;
    nativeMix.millis = 100;
    nativeMix.rounds = 3;
    const bench::NativeBest native = bench::interleavedBest(nativeMix);
    std::fprintf(stderr,
                 "perf_sim: native cell tl2 %.0f ops/s, "
                 "global-lock %.0f ops/s\n",
                 native.tl2, native.globalLock);

    // Each section's baseline comes from the existing file, or is
    // this run when the file lacks it (or on --record-baseline).
    std::string prior;
    const bool have_prior = !record_baseline && readFile(out_path, prior);
    std::vector<Totals> baselines;
    for (const Section &s : sections) {
        Totals b;
        if (!have_prior || !loadTotals(prior, s.key("baseline"), b)) {
            if (!record_baseline)
                std::fprintf(stderr,
                             "perf_sim: no %s section in %s; recording "
                             "this run as its baseline\n",
                             s.key("baseline").c_str(),
                             out_path.c_str());
            b = s.current;
        }
        // Same cells => same simulated work.  A mismatch means a perf
        // change altered simulation behaviour; fail loudly.
        if (!matrixMatches(s.name, b, s.current))
            return 1;
        baselines.push_back(b);
    }

    const double speedup_serial =
        matrix.current.wallSeconds > 0
            ? baselines.front().wallSeconds / matrix.current.wallSeconds
            : 0.0;
    const double speedup_best =
        parallel.wallSeconds > 0
            ? baselines.front().wallSeconds / parallel.wallSeconds
            : speedup_serial;

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perf_sim: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"bench\": \"perf_sim\",\n"
                 "  \"schema\": 6,\n"
                 "  \"regress_gate\": {\n"
                 "    \"max_regress_pct\": %.0f,\n"
                 "    \"command\": \"perf_sim --check BENCH_sim.json\"\n"
                 "  },\n"
                 "  \"matrix\": {\n"
                 "    \"runtimes\": 6,\n"
                 "    \"workloads\": 3,\n"
                 "    \"seeds_per_cell\": %u,\n"
                 "    \"cells\": %zu,\n"
                 "    \"threads\": %u,\n"
                 "    \"total_ops\": %u\n"
                 "  },\n",
                 max_regress_pct, kSeedsPerCell, matrix.cells.size(),
                 kThreads, kTotalOps);
    for (std::size_t i = 0; i < sections.size(); ++i) {
        writeSection(f, sections[i].key("baseline"), baselines[i]);
        writeSection(f, sections[i].key("current"), sections[i].current);
        if (i == 0)
            writeSection(f, "current_parallel", parallel);
    }
    std::fprintf(f,
                 "  \"native\": {\n"
                 "    \"tl2_ops_per_sec\": %.0f,\n"
                 "    \"global_lock_ops_per_sec\": %.0f,\n"
                 "    \"threads\": %u,\n"
                 "    \"ops_per_txn\": %u,\n"
                 "    \"write_pct\": %u\n"
                 "  },\n",
                 native.tl2, native.globalLock, nativeMix.threads,
                 nativeMix.opsPerTxn, nativeMix.writePct);
    std::fprintf(f,
                 "  \"speedup_serial\": %.3f,\n"
                 "  \"speedup_best\": %.3f\n"
                 "}\n",
                 speedup_serial, speedup_best);
    std::fclose(f);
    std::fprintf(stderr,
                 "perf_sim: wrote %s (serial speedup %.2fx, best "
                 "%.2fx vs baseline %.2fs)\n",
                 out_path.c_str(), speedup_serial, speedup_best,
                 baselines.front().wallSeconds);
    return 0;
}
