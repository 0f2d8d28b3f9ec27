#include "runtime/rstm_runtime.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace flextm
{

RstmThread::RstmThread(Machine &m, ObjectStmGlobals &g, ThreadId tid,
                       CoreId core)
    : ObjectStmThread(m, g, tid, core)
{
    // Reserve the clone arena up front, before the workload has made
    // any allocation: clone buffers are written without transactional
    // bookkeeping, so they must never share addresses with (possibly
    // freed and recycled) workload data.
    clonePool_.reserve(cloneArenaLines);
    for (unsigned i = 0; i < cloneArenaLines; ++i)
        clonePool_.push_back(
            m_.memory().allocate(lineBytes, lineBytes));
}

RstmThread::~RstmThread() = default;

Addr
RstmThread::acquireClone()
{
    if (!clonePool_.empty()) {
        const Addr a = clonePool_.back();
        clonePool_.pop_back();
        return a;
    }
    return m_.memory().allocate(lineBytes, lineBytes);
}

void
RstmThread::beginTx()
{
    readSet_.clear();
    writeSet_.clear();
    plainWrite(tswAddr_, TswActive, 4);
    g_.tswOf[core_] = tswAddr_;
    // Starvation escalation: carry consecutive-abort karma forward.
    g_.karma[core_] = m_.progress().bonusKarma(tid_);
    work(25);  // setjmp register checkpoint
}

void
RstmThread::checkStatus()
{
    // Non-blocking STM: enemies abort us by CASing our status word;
    // we poll it as part of each open (metadata bookkeeping).
    const auto tsw =
        static_cast<std::uint32_t>(plainRead(tswAddr_, 4));
    if (tsw == TswAborted)
        throw TxAbort{AbortCause::EnemyKill};
}

void
RstmThread::validateReadSet()
{
    // Invisible readers + self-validation: every open re-checks all
    // previously opened objects for consistency.  Header loads go
    // out in ascending header order (the former std::map order).
    readSet_.forEachSorted([this](Addr header, const std::uint64_t &ver) {
        const std::uint64_t cur = plainRead(header, 8);
        if (cur == ver)
            return;
        if (isLocked(cur) && lockOwner(cur) == core_) {
            // We acquired this object after reading it: the version
            // we saw must match the pre-acquisition version, else a
            // writer committed in between.  Aliased write entries
            // all share the acquisition word, so any match decides.
            bool consistent = false;
            for (const auto &[line, e] : writeSet_) {
                if (e.header == header) {
                    consistent = (e.oldHeader == ver);
                    break;
                }
            }
            if (consistent)
                return;
        }
        throw TxAbort{AbortCause::Validation};
    });
    ++m_.stats().counter("rstm.validations");
}

std::uint64_t
RstmThread::txRead(Addr a, unsigned size)
{
    // Object-accessor indirection on every access (the paper's
    // "metadata management" share of RSTM execution time).
    work(3);
    const Addr line = lineAlign(a);
    auto wit = writeSet_.find(line);
    if (wit != writeSet_.end()) {
        // Read through the clone (metadata indirection).
        return plainRead(wit->second.clone + (a - line), size);
    }

    const Addr header = g_.headerFor(a);
    if (!readSet_.count(header)) {
        checkStatus();
        std::uint64_t h = plainRead(header, 8);
        while (isLocked(h) && lockOwner(h) != core_) {
            resolveOwner(header);
            h = plainRead(header, 8);
        }
        readSet_.emplace(header, h);
        ++g_.karma[core_];
        validateReadSet();
    }
    return plainRead(a, size);
}

void
RstmThread::txWrite(Addr a, std::uint64_t v, unsigned size)
{
    work(3);
    const Addr line = lineAlign(a);
    auto wit = writeSet_.find(line);
    if (wit == writeSet_.end()) {
        checkStatus();
        const Addr header = g_.headerFor(a);
        std::uint64_t old;
        for (;;) {
            old = plainRead(header, 8);
            if (isLocked(old)) {
                if (lockOwner(old) == core_) {
                    // Aliased header already ours: reuse the version
                    // word captured when it was first acquired, not
                    // the locked word we just read.
                    for (const auto &[l, e] : writeSet_) {
                        if (e.header == header) {
                            old = e.oldHeader;
                            break;
                        }
                    }
                    break;
                }
                resolveOwner(header);
                continue;
            }
            if (casWord(header, old, lockedWord(), 8).success)
                break;
        }

        // Clone the object (the paper's "copying" overhead).
        const Addr clone = acquireClone();
        for (unsigned w = 0; w < lineBytes / 8; ++w) {
            const std::uint64_t word = plainRead(line + 8 * w, 8);
            plainWrite(clone + 8 * w, word, 8);
        }
        wit = writeSet_
                  .emplace(line, WriteEntry{clone, header, old})
                  .first;
        ++g_.karma[core_];
        validateReadSet();
    }
    plainWrite(wit->second.clone + (a - line), v, size);
}

void
RstmThread::releaseWrites(bool committed)
{
    // Install every clone before releasing any header: a header can
    // guard several cloned lines (hash aliasing), and releasing it
    // while one of those lines still has a pending install would let
    // a competitor acquire it and be overwritten by our stale clone.
    if (committed) {
        writeSet_.forEachSorted([this](Addr line, const WriteEntry &e) {
            for (unsigned w = 0; w < lineBytes / 8; ++w) {
                const std::uint64_t word =
                    plainRead(e.clone + 8 * w, 8);
                plainWrite(line + 8 * w, word, 8);
            }
        });
    }
    // Release each header exactly once (aliased entries share one).
    // Line order decides the releasing entry and the clone-recycle
    // order, exactly as the ordered write set used to.
    std::vector<std::pair<Addr, const WriteEntry *>> items;
    items.reserve(writeSet_.size());
    for (const auto &[line, e] : writeSet_)
        items.emplace_back(line, &e);
    std::sort(items.begin(), items.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (std::size_t i = 0; i < items.size(); ++i) {
        bool first = true;
        for (std::size_t j = 0; j < i; ++j) {
            if (items[j].second->header == items[i].second->header) {
                first = false;
                break;
            }
        }
        if (first)
            plainWrite(items[i].second->header,
                       committed ? items[i].second->oldHeader + 2
                                 : items[i].second->oldHeader,
                       8);
        clonePool_.push_back(items[i].second->clone);
    }
    writeSet_.clear();
}

bool
RstmThread::commitTx()
{
    checkStatus();
    // Serialization point: acquired headers stay locked through
    // release and the read set is validated from here forward, so
    // the transaction logically executes at the start of this final
    // validation.
    oracleStamp();
    validateReadSet();
    if (!casWord(tswAddr_, TswActive, TswCommitted, 4).success)
        throw TxAbort{AbortCause::EnemyKill};
    releaseWrites(true);
    readSet_.clear();
    g_.tswOf[core_] = 0;
    g_.karma[core_] = 0;
    return true;
}

void
RstmThread::abortCleanup()
{
    releaseWrites(false);
    readSet_.clear();
    g_.tswOf[core_] = 0;
    g_.karma[core_] = 0;
}

} // namespace flextm
