/**
 * @file
 * Recorded Zipfian key-value workload traces, shared by the
 * native-vs-simulator equivalence suite and the throughput grader.
 *
 * A trace is fully deterministic from its parameters: per-thread
 * streams of transactions, each a short mix of reads and writes over
 * a word-indexed array, with the word choice drawn from a classic
 * Zipf(theta) distribution (hot-key skew) and every written value a
 * pure function of (seed, thread, txn, op).  The same trace object
 * replays through the simulator's TL2 runtime (against the
 * serializability oracle) and through native libflextm (against the
 * access-log checker); "both worlds accept the same behaviour" is
 * the cross-check.
 */

#ifndef FLEXTM_NATIVE_WORKLOAD_TRACE_HH
#define FLEXTM_NATIVE_WORKLOAD_TRACE_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace flextm::native
{

struct TraceOp
{
    bool isWrite;
    std::uint32_t word;   //!< index into the shared word array
    std::uint64_t value;  //!< written value (ignored for reads)
};

struct TraceTxn
{
    std::vector<TraceOp> ops;
};

struct WorkloadTrace
{
    unsigned threads = 0;
    std::uint32_t words = 0;  //!< shared array size, in 8-byte words
    /** perThread[t] is thread t's transaction stream. */
    std::vector<std::vector<TraceTxn>> perThread;
};

struct TraceParams
{
    std::uint64_t seed = 1;
    unsigned threads = 4;
    std::uint32_t words = 1024;
    unsigned txnsPerThread = 200;
    unsigned opsPerTxn = 8;
    unsigned writePct = 20;   //!< per-op write probability
    double theta = 0.8;       //!< Zipf skew (0 = uniform)
};

inline WorkloadTrace
makeZipfianTrace(const TraceParams &p)
{
    WorkloadTrace tr;
    tr.threads = p.threads;
    tr.words = p.words;
    tr.perThread.resize(p.threads);
    const ZipfSampler zipf(p.words, p.theta);
    for (unsigned t = 0; t < p.threads; ++t) {
        Rng rng(p.seed * 0x9e3779b97f4a7c15ULL + t + 1);
        auto &stream = tr.perThread[t];
        stream.resize(p.txnsPerThread);
        for (unsigned x = 0; x < p.txnsPerThread; ++x) {
            auto &txn = stream[x];
            txn.ops.reserve(p.opsPerTxn);
            for (unsigned o = 0; o < p.opsPerTxn; ++o) {
                TraceOp op;
                op.isWrite = rng.percent(p.writePct);
                op.word = static_cast<std::uint32_t>(zipf.sample(rng));
                // A distinctive, collision-free value: which thread
                // wrote it, in which txn, at which op.
                op.value = (std::uint64_t{t + 1} << 48) |
                           (std::uint64_t{x} << 16) | o;
                txn.ops.push_back(op);
            }
        }
    }
    return tr;
}

} // namespace flextm::native

#endif // FLEXTM_NATIVE_WORKLOAD_TRACE_HH
