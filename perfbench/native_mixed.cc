/**
 * @file
 * native-mixed: libflextm's TL2 backend on real pthreads, in a closed
 * loop of four clients.  Each client runs its next transaction only
 * once the previous one has committed, retrying it from tm_begin until
 * it does.  The mix (8192 words, 8 ops per transaction, 20% writes per
 * op, Zipf theta 0.9) is the one on which TL2 stops scaling; about 41%
 * of its transactions are read-only, so the read-only fast path and
 * the writer commit path both carry load and are reported apart.
 *
 * A round is one set-up (region creation and trace generation) and one
 * fixed batch of transactions.  Correctness is checked outside every
 * timed window by a separate pass with the access-log checker attached.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "native/access_log.hh"
#include "native/tm.hh"
#include "native/workload_trace.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using namespace flextm::native;

constexpr unsigned kClients = 4;
constexpr std::uint32_t kWords = 8192;
constexpr unsigned kOpsPerTxn = 8;
constexpr unsigned kWritePct = 20;
constexpr double kTheta = 0.9;
/** Transactions in each client's trace; the batch cycles through it. */
constexpr unsigned kStreamTxns = 16384;
/** Transactions each client commits per round. */
constexpr unsigned kBatchTxns = 200000;
/** Transactions each client commits in the access-logged pass. */
constexpr unsigned kLoggedTxns = 4000;
/** In traced rounds, one transaction in this many gets per-call spans. */
constexpr unsigned kSampleEvery = 64;
/** Sampled transactions per client kept for the trace file. */
constexpr unsigned kSpansKept = 256;

enum Call : unsigned { Begin, Read, Write, Commit, NumCalls };
constexpr const char *kCallNames[NumCalls] = {"tm_begin", "tm_read",
                                              "tm_write", "tm_end"};

struct Inputs
{
    shared_t sh = invalid_shared;
    std::uint64_t *base = nullptr;
    WorkloadTrace trace;
    /** ro[c][i]: client c's transaction i performs no write. */
    std::vector<std::vector<char>> ro;
};

Inputs
makeInputs(std::uint64_t seed, unsigned txns)
{
    Inputs in;
    in.sh = tm_create_with(std::size_t{kWords} * 8, 8, Backend::Tl2);
    if (in.sh == invalid_shared)
        return in;
    in.base = static_cast<std::uint64_t *>(tm_start(in.sh));
    TraceParams tp;
    tp.seed = seed;
    tp.threads = kClients;
    tp.words = kWords;
    tp.txnsPerThread = txns;
    tp.opsPerTxn = kOpsPerTxn;
    tp.writePct = kWritePct;
    tp.theta = kTheta;
    in.trace = makeZipfianTrace(tp);
    for (const auto &stream : in.trace.perThread) {
        std::vector<char> ro(stream.size(), 1);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            for (const TraceOp &op : stream[i].ops)
                ro[i] = ro[i] && !op.isWrite;
        }
        in.ro.push_back(std::move(ro));
    }
    return in;
}

struct RawSpan
{
    const char *name;
    int parent;  //!< index into the same client's span vector
    Clock::time_point start, end;
};

struct ClientStats
{
    std::vector<float> roUs, rwUs;  //!< latency per committed txn
    std::uint64_t attempts = 0;
    std::array<std::uint64_t, NumCalls> abortsAt{};
    std::vector<std::uint64_t> retryHist;  //!< txns by retry count
    double wastedS = 0;
    Clock::time_point finish;
    /** Traced rounds only: per-call durations of sampled txns, and
     *  each sampled txn's self time (its duration minus its calls). */
    std::array<std::vector<float>, NumCalls> callNs;
    std::vector<float> txnSelfNs;
    double sampledCallNs = 0;
    std::vector<RawSpan> spans;
};

/** One attempt; returns the call that aborted it, NumCalls on commit. */
Call
attempt(const Inputs &in, const TraceTxn &txn, bool isRo,
        ClientStats *sampled, int txnSpan)
{
    auto timed = [&](Call k, auto &&fn) {
        if (sampled == nullptr)
            return fn();
        const Clock::time_point t0 = Clock::now();
        const bool ok = fn();
        const Clock::time_point t1 = Clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        sampled->callNs[k].push_back(static_cast<float>(ns));
        sampled->sampledCallNs += ns;
        if (txnSpan >= 0)
            sampled->spans.push_back(RawSpan{kCallNames[k], txnSpan, t0, t1});
        return ok;
    };
    tx_t tx = invalid_tx;
    timed(Begin, [&] {
        tx = tm_begin(in.sh, isRo);
        return true;
    });
    for (const TraceOp &op : txn.ops) {
        std::uint64_t v = op.value;
        std::uint64_t *word = &in.base[op.word];
        const bool ok =
            op.isWrite ? timed(Write, [&] {
                return tm_write(in.sh, tx, &v, 8, word);
            })
                       : timed(Read, [&] {
                return tm_read(in.sh, tx, word, 8, &v);
            });
        if (!ok)
            return op.isWrite ? Write : Read;
    }
    return timed(Commit, [&] { return tm_end(in.sh, tx); }) ? NumCalls
                                                             : Commit;
}

void
runClient(const Inputs &in, unsigned c, unsigned batch, bool traced,
          unsigned keepSpans, const std::atomic<bool> &go,
          ClientStats &st)
{
    const auto &stream = in.trace.perThread[c];
    const auto &ro = in.ro[c];
    st.roUs.reserve(batch);
    st.rwUs.reserve(batch);
    st.retryHist.assign(1, 0);
    unsigned kept = 0;
    while (!go.load(std::memory_order_acquire))
        std::this_thread::yield();
    std::size_t next = 0;
    for (unsigned n = 0; n < batch; ++n) {
        const TraceTxn &txn = stream[next];
        const bool isRo = ro[next] != 0;
        if (++next == stream.size())
            next = 0;
        ClientStats *sampled =
            traced && n % kSampleEvery == 0 ? &st : nullptr;
        int txnSpan = -1;
        st.sampledCallNs = 0;
        if (sampled != nullptr && kept < keepSpans) {
            ++kept;
            txnSpan = static_cast<int>(st.spans.size());
            st.spans.push_back(RawSpan{isRo ? "ro_txn" : "rw_txn", -1, {}, {}});
        }
        const Clock::time_point first = Clock::now();
        Clock::time_point attemptStart = first;
        std::size_t retries = 0;
        for (;;) {
            ++st.attempts;
            const Call abortedAt = attempt(in, txn, isRo, sampled, txnSpan);
            if (abortedAt == NumCalls)
                break;
            const Clock::time_point now = Clock::now();
            st.wastedS += secondsBetween(attemptStart, now);
            attemptStart = now;
            ++st.abortsAt[abortedAt];
            ++retries;
        }
        const Clock::time_point done = Clock::now();
        if (sampled != nullptr) {
            st.txnSelfNs.push_back(static_cast<float>(
                std::chrono::duration<double, std::nano>(done - first)
                    .count() -
                st.sampledCallNs));
        }
        if (txnSpan >= 0) {
            st.spans[static_cast<std::size_t>(txnSpan)].start = first;
            st.spans[static_cast<std::size_t>(txnSpan)].end = done;
        }
        const float us = static_cast<float>(
            std::chrono::duration<double, std::micro>(done - first).count());
        (isRo ? st.roUs : st.rwUs).push_back(us);
        if (retries >= st.retryHist.size())
            st.retryHist.resize(retries + 1, 0);
        ++st.retryHist[retries];
    }
    st.finish = Clock::now();
}

/** Run every client through @p batch transactions; returns the
 *  window from releasing the clients to the last one finishing. */
double
runClients(const Inputs &in, unsigned batch, bool traced,
           unsigned keepSpans, std::vector<ClientStats> &stats)
{
    stats.assign(kClients, ClientStats{});
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back(runClient, std::cref(in), c, batch, traced,
                             keepSpans, std::cref(go), std::ref(stats[c]));
    }
    const Clock::time_point t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    Clock::time_point last = t0;
    for (const ClientStats &s : stats)
        last = std::max(last, s.finish);
    return secondsBetween(t0, last);
}

struct Round
{
    bool traced = false;
    double setupS = 0;
    double wallS = 0;
    /** Latency percentiles over the round's committed transactions. */
    double p50 = 0, p99 = 0, roP50 = 0, roP99 = 0, rwP50 = 0, rwP99 = 0;
    std::uint64_t txns = 0, roTxns = 0;
    std::uint64_t attempts = 0;
    std::array<std::uint64_t, NumCalls> abortsAt{};
    std::vector<std::uint64_t> retryHist;
    double wastedS = 0;
};

double
pct(const std::vector<float> &v, double p)
{
    return percentile(std::vector<double>(v.begin(), v.end()), p);
}

/** One round; a traced round samples per-call timings into @p callNs
 *  and @p txnSelfNs, and the first one also records spans into @p tr. */
Round
runRound(std::uint64_t seed, bool traced, Tracer &tr,
         std::array<std::vector<float>, NumCalls> &callNs,
         std::vector<float> &txnSelfNs)
{
    Round r;
    r.traced = traced;
    const Clock::time_point t0 = Clock::now();
    Inputs in = makeInputs(seed, kStreamTxns);
    r.setupS = secondsBetween(t0, Clock::now());
    if (in.sh == invalid_shared)
        return r;
    std::vector<ClientStats> stats;
    const unsigned keepSpans = traced && tr.size() == 0 ? kSpansKept : 0;
    r.wallS = runClients(in, kBatchTxns, traced, keepSpans, stats);
    tm_destroy(in.sh);

    std::vector<float> roUs, rwUs;
    for (unsigned c = 0; c < kClients; ++c) {
        ClientStats &s = stats[c];
        roUs.insert(roUs.end(), s.roUs.begin(), s.roUs.end());
        rwUs.insert(rwUs.end(), s.rwUs.begin(), s.rwUs.end());
        r.attempts += s.attempts;
        for (unsigned k = 0; k < NumCalls; ++k) {
            r.abortsAt[k] += s.abortsAt[k];
            callNs[k].insert(callNs[k].end(), s.callNs[k].begin(),
                             s.callNs[k].end());
        }
        if (s.retryHist.size() > r.retryHist.size())
            r.retryHist.resize(s.retryHist.size(), 0);
        for (std::size_t k = 0; k < s.retryHist.size(); ++k)
            r.retryHist[k] += s.retryHist[k];
        r.wastedS += s.wastedS;
        txnSelfNs.insert(txnSelfNs.end(), s.txnSelfNs.begin(),
                         s.txnSelfNs.end());
        // Spans become the tracer's in order, so a local parent index
        // shifts by the tracer's size before the client's first span.
        const int offset = static_cast<int>(tr.size());
        for (const RawSpan &sp : s.spans) {
            tr.add(sp.name, sp.parent < 0 ? -1 : offset + sp.parent,
                   sp.start, sp.end, c + 1);
        }
    }
    r.roTxns = roUs.size();
    r.txns = roUs.size() + rwUs.size();
    r.roP50 = pct(roUs, 50);
    r.roP99 = pct(roUs, 99);
    r.rwP50 = pct(rwUs, 50);
    r.rwP99 = pct(rwUs, 99);
    roUs.insert(roUs.end(), rwUs.begin(), rwUs.end());
    r.p50 = pct(roUs, 50);
    r.p99 = pct(roUs, 99);
    return r;
}

/** The access-logged correctness pass (untimed). */
bool
checkSerializable(std::uint64_t seed, std::uint64_t &txns)
{
    Inputs in = makeInputs(seed, kLoggedTxns);
    if (in.sh == invalid_shared) {
        std::printf("FAIL native-mixed: tm_create failed\n");
        return false;
    }
    AccessLog log;
    tm_set_logging(in.sh, &log);
    std::vector<ClientStats> stats;
    runClients(in, kLoggedTxns, false, 0, stats);
    tm_set_logging(in.sh, nullptr);
    tm_destroy(in.sh);
    const AccessLog::Report rep = log.validate();
    txns = std::uint64_t{kClients} * kLoggedTxns;
    const bool ok = rep.ok && rep.checkedTxns == txns;
    std::printf("native-mixed: access-log check of %llu txns / %llu ops: "
                "%s%s\n",
                static_cast<unsigned long long>(rep.checkedTxns),
                static_cast<unsigned long long>(rep.checkedOps),
                ok ? "serializable" : "FAILED ", ok ? "" : rep.message.c_str());
    return ok;
}

} // anonymous namespace

Outcome
runNativeMixed(const RunArgs &args)
{
    Outcome out;
    std::uint64_t loggedTxns = 0;
    const bool serializable = checkSerializable(args.seed, loggedTxns);
    out.attempted += loggedTxns;
    if (!serializable)
        out.failed += loggedTxns;

    Tracer tr(args.trace);
    std::array<std::vector<float>, NumCalls> callNs;
    std::vector<float> txnSelfNs;
    std::vector<Round> rounds;
    const Clock::time_point start = Clock::now();
    while (rounds.size() < (args.trace ? 2u : 1u) ||
           secondsBetween(start, Clock::now()) + rounds.back().setupS +
                   rounds.back().wallS <=
               args.seconds) {
        const bool traced = args.trace && rounds.size() % 2 == 1;
        rounds.push_back(runRound(args.seed, traced, tr, callNs, txnSelfNs));
        if (rounds.back().wallS == 0) {
            std::printf("FAIL native-mixed: tm_create failed\n");
            out.failed += 1;
            break;
        }
        out.attempted += std::uint64_t{kClients} * kBatchTxns;
    }
    out.correct = out.failed == 0;

    std::vector<double> wall, setup, opsRate, p50, p99, roP50, roP99, rwP50,
        rwP99, wasted, tracedWall;
    std::array<std::vector<double>, NumCalls> aborts;
    std::uint64_t attempts = 0, commits = 0, roTxns = 0;
    std::vector<std::uint64_t> retryHist;
    for (const Round &r : rounds) {
        setup.push_back(r.setupS);
        if (r.traced) {
            tracedWall.push_back(r.wallS);
            continue;
        }
        wall.push_back(r.wallS);
        opsRate.push_back(static_cast<double>(kClients) * kBatchTxns *
                          kOpsPerTxn / r.wallS);
        p50.push_back(r.p50);
        p99.push_back(r.p99);
        roP50.push_back(r.roP50);
        roP99.push_back(r.roP99);
        rwP50.push_back(r.rwP50);
        rwP99.push_back(r.rwP99);
        wasted.push_back(r.wastedS);
        for (unsigned k = 0; k < NumCalls; ++k)
            aborts[k].push_back(static_cast<double>(r.abortsAt[k]));
        attempts += r.attempts;
        commits += r.txns;
        roTxns += r.roTxns;
        if (r.retryHist.size() > retryHist.size())
            retryHist.resize(r.retryHist.size(), 0);
        for (std::size_t k = 0; k < r.retryHist.size(); ++k)
            retryHist[k] += r.retryHist[k];
    }
    const Round &any = rounds.front();
    std::printf("native-mixed: %u clients, closed loop, %zu rounds (%zu "
                "untraced) of %u txns; latency samples per round: %zu "
                "(%zu read-only, %zu read-write)\n",
                kClients, rounds.size(), wall.size(), kClients * kBatchTxns,
                static_cast<std::size_t>(any.txns),
                static_cast<std::size_t>(any.roTxns),
                static_cast<std::size_t>(any.txns - any.roTxns));
    std::printf("native-mixed: round wall_s:");
    for (const Round &r : rounds)
        std::printf(" %.3f%s", r.wallS, r.traced ? "(traced)" : "");
    std::printf("\n");
    printMetrics("workload metrics",
                 {{"ro_txn_us_p50", median(roP50), "us"},
                  {"ro_txn_us_p99", median(roP99), "us"},
                  {"rw_txn_us_p50", median(rwP50), "us"},
                  {"rw_txn_us_p99", median(rwP99), "us"},
                  {"fail_ratio",
                   static_cast<double>(out.failed) /
                       static_cast<double>(out.attempted),
                   "ratio"}});

    auto &v = out.values;
    v["wall_s"] = median(wall);
    v["setup_s"] = median(setup);
    v["ops_per_s"] = median(opsRate);
    v["latency_us_p50"] = median(p50);
    v["latency_us_p99"] = median(p99);
    if (!args.trace)
        return out;

    std::uint64_t retryRank = 0, retryP99 = 0;
    for (std::size_t k = 0; k < retryHist.size(); ++k) {
        retryRank += retryHist[k];
        if (static_cast<double>(retryRank) >=
            0.99 * static_cast<double>(commits)) {
            retryP99 = k;
            break;
        }
    }
    for (unsigned k = 0; k < NumCalls; ++k) {
        const std::string name = std::string("native.") +
                                 (k == Begin   ? "begin"
                                  : k == Read  ? "read"
                                  : k == Write ? "write"
                                               : "commit");
        v[name + "_ns_p50"] = pct(callNs[k], 50);
        v[name + "_ns_p99"] = pct(callNs[k], 99);
    }
    v["native.aborts_at_read"] = median(aborts[Read]);
    v["native.aborts_at_write"] = median(aborts[Write]);
    v["native.aborts_at_commit"] = median(aborts[Commit]);
    v["native.commit_ratio"] =
        static_cast<double>(commits) / static_cast<double>(attempts);
    v["native.retries_per_txn_p99"] = static_cast<double>(retryP99);
    v["native.wasted_s"] = median(wasted);
    v["native.ro_share"] =
        static_cast<double>(roTxns) / static_cast<double>(commits);
    v["native.ro_txn_us_p50"] = median(roP50);
    v["native.ro_txn_us_p99"] = median(roP99);
    v["native.rw_txn_us_p50"] = median(rwP50);
    v["native.rw_txn_us_p99"] = median(rwP99);
    v["native.txn_self_ns_p50"] = pct(txnSelfNs, 50);
    v["trace.spans"] = static_cast<double>(tr.size());
    v["trace.wall_s"] = median(tracedWall);
    v["trace.overhead_s"] = median(tracedWall) - median(wall);
    if (!args.traceOut.empty() && !tr.write(args.traceOut))
        std::printf("warning: cannot write %s\n", args.traceOut.c_str());
    return out;
}

} // namespace perfbench
