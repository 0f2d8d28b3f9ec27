/**
 * @file
 * TL2-style word-based software TM (Dice, Shalev & Shavit [11]) -
 * the blocking-STM baseline of Workload-Set 2 (Figure 4f-g).
 *
 * The algorithm itself (GV1 clock, per-stripe versioned write-locks,
 * invisible readers, redo-log lazy versioning, the commit protocol)
 * lives in runtime/tl2_algo.hh, shared with the native libflextm
 * backend.  This file supplies the simulated World: all metadata
 * traffic (lock words, the clock, read/write-set log appends) is
 * issued as real simulated memory accesses, so TL2's bookkeeping
 * shows up as genuine cache/coherence work - exactly the overhead the
 * paper's comparison is about ("the bookkeeping required prior to the
 * first read, for post-read validation, and at commit time").
 */

#ifndef FLEXTM_RUNTIME_TL2_RUNTIME_HH
#define FLEXTM_RUNTIME_TL2_RUNTIME_HH

#include "runtime/tl2_algo.hh"
#include "runtime/tx_thread.hh"

namespace flextm
{

/** Machine-wide TL2 metadata. */
struct Tl2Globals
{
    explicit Tl2Globals(Machine &m);

    Machine &m;
    Addr clockAddr;        //!< global version clock (8 bytes)
    Addr lockTableBase;    //!< kTl2Stripes stripe lock words

    /** Lock word for the stripe covering address @p a. */
    Addr lockFor(Addr a) const;
};

/** One TL2 thread: the simulated World driving the shared core. */
class Tl2Thread : public TxThread
{
  public:
    Tl2Thread(Machine &m, Tl2Globals &g, ThreadId tid, CoreId core);

    std::string name() const override { return "TL2"; }

    /** @name World interface consumed by Tl2Algo
     *  Every call issues simulated memory traffic and/or charges
     *  bookkeeping work; tl2_algo.hh's call order is the frozen
     *  contract for the determinism goldens.  This is the one world
     *  that throws, and only outside the core: txRead/commitTx turn
     *  its failed statuses into TxAbort (CmSelf when the policy gave
     *  up a lock wait, Validation otherwise). */
    /// @{
    std::uint64_t sampleClock();
    std::uint64_t bumpClock();
    Addr lockFor(Addr a) const { return g_.lockFor(a); }
    std::uint64_t loadLock(Addr lock) { return plainRead(lock, 8); }
    std::uint64_t loadData(Addr a, unsigned size)
    {
        return plainRead(a, size);
    }
    bool casLock(Addr lock, std::uint64_t expected,
                 std::uint64_t desired)
    {
        return casWord(lock, expected, desired, 8).success;
    }
    void storeLock(Addr lock, std::uint64_t word)
    {
        plainWrite(lock, word, 8);
    }
    void writeData(Addr a, std::uint64_t v, unsigned size)
    {
        plainWrite(a, v, size);
    }
    std::uint64_t myLockWord() const
    {
        return tl2MakeLockWord(core_);
    }
    bool ownsLock(std::uint64_t word) const
    {
        return tl2LockOwner(word) == core_;
    }
    bool lockWaitRound(Addr lock, unsigned tries);
    void onBegin() { logSlot_ = 0; }
    void onReadIssued() { work(1); }
    void onWriteSetHit() { work(3); }
    void onReadLogged() { logAppend(1); }
    void onWriteLogged() { logAppend(2); }
    /// @}

  protected:
    void beginTx() override;
    bool commitTx() override;
    void abortCleanup() override;
    std::uint64_t txRead(Addr a, unsigned size) override;
    void txWrite(Addr a, std::uint64_t v, unsigned size) override;

  private:
    Tl2Globals &g_;
    Addr logBase_;          //!< per-thread log region (bookkeeping)
    unsigned logSlot_ = 0;

    /** The shared TL2 protocol state (read/write sets, held locks). */
    Tl2Algo<Addr, Addr> algo_;

    void logAppend(unsigned words);
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_TL2_RUNTIME_HH
