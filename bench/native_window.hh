/**
 * @file
 * The timed window of the native libflextm throughput grader, shared
 * by bench/native_throughput (the graded acceptance run) and perf_sim
 * (the trajectory cell in BENCH_sim.json): N pthreads issue a
 * pre-generated Zipfian key-value transaction mix against one shared
 * region for a fixed wall-clock window.
 */

#ifndef FLEXTM_BENCH_NATIVE_WINDOW_HH
#define FLEXTM_BENCH_NATIVE_WINDOW_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "native/tm.hh"
#include "native/workload_trace.hh"

namespace flextm::bench
{

/** One native mix.  The defaults are the grader's acceptance mix. */
struct NativeMix
{
    unsigned threads = 4;
    std::uint32_t words = 8192;
    unsigned opsPerTxn = 4;
    /** Per-op write probability.  The default mix is read-mostly
     *  (99% reads; ~96% of 4-op transactions are declared read-only),
     *  the regime decoupled STM is built for. */
    unsigned writePct = 1;
    double theta = 0.7;
    unsigned millis = 300;
    unsigned rounds = 4;
    std::uint64_t seed = 1;
};

/** Real host ops/sec of one timed window: every thread issues
 *  transactions back to back until the stop flag flips.  The key/op
 *  streams are pre-generated (YCSB-style) so the window times the
 *  library, not the Zipf sampler; each thread cycles through its
 *  private stream.  A non-null @p stats receives the region's
 *  tm_stats counters for the window. */
inline double
measureWindow(native::Backend backend, const NativeMix &p,
              native::Stats *stats = nullptr)
{
    native::shared_t sh = native::tm_create_with(
        std::size_t{p.words} * 8, 8, backend);
    if (sh == native::invalid_shared) {
        std::fprintf(stderr, "tm_create failed\n");
        std::exit(2);
    }
    auto *base = static_cast<std::uint64_t *>(native::tm_start(sh));

    native::TraceParams tp;
    tp.seed = p.seed;
    tp.threads = p.threads;
    tp.words = p.words;
    tp.txnsPerThread = 4096;
    tp.opsPerTxn = p.opsPerTxn;
    tp.writePct = p.writePct;
    tp.theta = p.theta;
    const native::WorkloadTrace trace = makeZipfianTrace(tp);

    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> commits(p.threads, 0);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < p.threads; ++t) {
        threads.emplace_back([&, t] {
            const auto &stream = trace.perThread[t];
            // Declared-read-only flags, precomputed per transaction.
            std::vector<bool> ro(stream.size(), true);
            for (std::size_t i = 0; i < stream.size(); ++i) {
                for (const auto &op : stream[i].ops)
                    ro[i] = ro[i] && !op.isWrite;
            }
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            std::uint64_t mine = 0;
            std::size_t next = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const native::TraceTxn &txn = stream[next];
                const bool is_ro = ro[next];
                if (++next == stream.size())
                    next = 0;
            retry:
                const native::tx_t tx = native::tm_begin(sh, is_ro);
                for (const auto &op : txn.ops) {
                    std::uint64_t v = op.value;
                    const bool ok =
                        op.isWrite
                            ? native::tm_write(sh, tx, &v, 8,
                                               &base[op.word])
                            : native::tm_read(sh, tx,
                                              &base[op.word], 8, &v);
                    if (!ok)
                        goto retry;
                }
                if (!native::tm_end(sh, tx))
                    goto retry;
                ++mine;
            }
            commits[t] = mine;
        });
    }

    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(p.millis));
    stop.store(true, std::memory_order_relaxed);
    for (auto &th : threads)
        th.join();
    const auto t1 = std::chrono::steady_clock::now();

    std::uint64_t total = 0;
    for (const std::uint64_t c : commits)
        total += c;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (stats != nullptr)
        *stats = native::tm_stats(sh);
    native::tm_destroy(sh);
    return secs <= 0.0 ? 0.0
                       : static_cast<double>(total) * p.opsPerTxn / secs;
}

/** Best ops/sec of each backend over p.rounds windows (round r uses
 *  seed p.seed + r), and the best TL2 window's counters. */
struct NativeBest
{
    double tl2 = 0.0;
    double globalLock = 0.0;
    native::Stats tl2Stats;
};

/** The graded comparison: the two backends' windows interleave round
 *  by round, so a noisy phase on a small shared box cannot
 *  systematically penalize one side. */
inline NativeBest
interleavedBest(const NativeMix &p)
{
    NativeBest best;
    for (unsigned r = 0; r < p.rounds; ++r) {
        NativeMix round = p;
        round.seed = p.seed + r;
        native::Stats st;
        const double tl2 =
            measureWindow(native::Backend::Tl2, round, &st);
        if (tl2 > best.tl2) {
            best.tl2 = tl2;
            best.tl2Stats = st;
        }
        best.globalLock = std::max(
            best.globalLock,
            measureWindow(native::Backend::GlobalLock, round));
    }
    return best;
}

} // namespace flextm::bench

#endif // FLEXTM_BENCH_NATIVE_WINDOW_HH
