/**
 * @file
 * Real-time throughput grader for native libflextm: N pthreads issue
 * an open-loop Zipfian key-value transaction mix against one shared
 * region for a fixed wall-clock window, and the harness reports real
 * ops/sec for the TL2 backend vs the single-global-lock reference.
 *
 * This is the one harness in bench/ that measures *wall time on the
 * host*, not simulated cycles: it grades the native library, which
 * has no simulator under it.
 *
 *   native_throughput [--backend tl2|gl|both] [--threads N]
 *                     [--words N] [--ops N] [--write-pct N]
 *                     [--theta F] [--millis N] [--rounds N]
 *                     [--seed N] [--grade]
 *
 * Each TL2 line is followed by its best window's tm_stats counters:
 * commits, aborts by cause and back-off pauses.
 *
 * --grade runs the acceptance mix (4 threads, read-mostly Zipfian)
 * on both backends, best-of-rounds, and exits nonzero unless TL2
 * beats the global lock.  The global lock serializes whole
 * transactions and - under any real contention - pays a futex
 * round-trip per commit; TL2 reads take two uncontended atomic loads
 * and read-only transactions commit without writing shared metadata,
 * so the read-mostly mix is exactly where decoupled STM must win for
 * the library to be worth shipping.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/native_window.hh"
#include "sim/env_util.hh"

namespace
{

using namespace flextm;
using bench::NativeMix;
using native::Backend;

/** Best ops/sec over p.rounds windows; a non-null @p stats receives
 *  the best window's counters. */
double
bestOpsPerSec(Backend backend, const NativeMix &p,
              native::Stats *stats = nullptr)
{
    double best = 0.0;
    for (unsigned r = 0; r < p.rounds; ++r) {
        NativeMix round = p;
        round.seed = p.seed + r;
        native::Stats st;
        const double ops = bench::measureWindow(backend, round, &st);
        if (ops > best) {
            best = ops;
            if (stats != nullptr)
                *stats = st;
        }
    }
    return best;
}

void
report(const char *name, double ops, const NativeMix &p)
{
    std::printf("%-12s %10.0f ops/s  (%u threads, %u ops/txn, "
                "%u%% writes, theta=%.2f, %u words)\n",
                name, ops, p.threads, p.opsPerTxn, p.writePct,
                p.theta, p.words);
}

/** The TL2 window's counters, printed under its ops/s line. */
void
reportStats(const native::Stats &s)
{
    std::printf("%-12s commits %llu, aborts %llu (read: locked %llu, "
                "too new %llu, changed %llu; commit: lock busy %llu, "
                "validation %llu), back-off pauses %llu\n",
                "", static_cast<unsigned long long>(s.commits),
                static_cast<unsigned long long>(s.aborts()),
                static_cast<unsigned long long>(s.readLocked),
                static_cast<unsigned long long>(s.readTooNew),
                static_cast<unsigned long long>(s.readChanged),
                static_cast<unsigned long long>(s.commitLockBusy),
                static_cast<unsigned long long>(s.commitValidation),
                static_cast<unsigned long long>(s.backoffPauses));
}

/** The value after flag argv[i]; advances @p i past it. */
const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

/** argValue parsed in full as an integer in [@p lo, @p hi]; anything
 *  else is fatal. */
std::uint64_t
argNum(int argc, char **argv, int &i, std::uint64_t lo, std::uint64_t hi)
{
    const char *flag = argv[i];
    return env::parseU64(flag, argValue(argc, argv, i), lo, hi);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    NativeMix p;
    bool grade = false;
    std::string backend = "both";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--backend") {
            backend = argValue(argc, argv, i);
            if (backend != "tl2" && backend != "gl" && backend != "both") {
                std::fprintf(stderr,
                             "unknown --backend %s (want tl2, gl or "
                             "both)\n",
                             backend.c_str());
                return 2;
            }
        } else if (a == "--threads") {
            p.threads = static_cast<unsigned>(argNum(argc, argv, i, 1, 64));
        } else if (a == "--words") {
            p.words = static_cast<std::uint32_t>(
                argNum(argc, argv, i, 1, 1u << 24));
        } else if (a == "--ops") {
            p.opsPerTxn =
                static_cast<unsigned>(argNum(argc, argv, i, 1, 64));
        } else if (a == "--write-pct") {
            p.writePct =
                static_cast<unsigned>(argNum(argc, argv, i, 0, 100));
        } else if (a == "--theta") {
            p.theta = env::parseF64("--theta", argValue(argc, argv, i),
                                    0.0, 10.0);
        } else if (a == "--millis") {
            p.millis =
                static_cast<unsigned>(argNum(argc, argv, i, 1, 600000));
        } else if (a == "--rounds") {
            p.rounds =
                static_cast<unsigned>(argNum(argc, argv, i, 1, 1000));
        } else if (a == "--seed") {
            p.seed = argNum(argc, argv, i, 0, UINT64_MAX);
        } else if (a == "--grade") {
            grade = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
            return 2;
        }
    }

    if (grade) {
        // The acceptance mix: read-mostly Zipfian at 4 threads,
        // best-of-rounds on both sides with the windows interleaved.
        const bench::NativeBest best = bench::interleavedBest(p);
        report("tl2", best.tl2, p);
        reportStats(best.tl2Stats);
        report("global-lock", best.globalLock, p);
        if (best.tl2 > best.globalLock) {
            std::printf("GRADE PASS: tl2/gl = %.2fx\n",
                        best.tl2 / best.globalLock);
            return 0;
        }
        std::printf("GRADE FAIL: tl2/gl = %.2fx (need > 1)\n",
                    best.globalLock > 0 ? best.tl2 / best.globalLock
                                        : 0.0);
        return 1;
    }

    if (backend == "tl2" || backend == "both") {
        native::Stats stats;
        report("tl2", bestOpsPerSec(Backend::Tl2, p, &stats), p);
        reportStats(stats);
    }
    if (backend == "gl" || backend == "both")
        report("global-lock", bestOpsPerSec(Backend::GlobalLock, p),
               p);
    return 0;
}
