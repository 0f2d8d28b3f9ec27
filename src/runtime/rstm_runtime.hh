/**
 * @file
 * RSTM-style object-based non-blocking software TM (Marathe et
 * al. [24]) - the legacy-hardware STM baseline of Workload-Set 1.
 *
 * Configuration matches the paper's: invisible readers with
 * self-validation for conflict detection.  Objects are mapped to
 * cache lines (the paper's workloads use small nodes of 1-4 lines);
 * each object has a versioned header word.  The characteristic RSTM
 * cost structure is reproduced with real simulated memory traffic:
 *
 *  - metadata indirection: a header access on every first touch;
 *  - cloning: writers copy the object on acquire and copy back at
 *    commit ("copying" in the paper's breakdown);
 *  - self-validation: every new open re-validates all previously
 *    opened objects (O(n^2) header loads per transaction - the 80%
 *    validation share the paper reports for RandomGraph);
 *  - non-blocking enemy aborts: an attacker CASes the victim's
 *    per-transaction status word.
 */

#ifndef FLEXTM_RUNTIME_RSTM_RUNTIME_HH
#define FLEXTM_RUNTIME_RSTM_RUNTIME_HH

#include <vector>

#include "runtime/object_stm.hh"
#include "sim/flat_map.hh"

namespace flextm
{

/** One RSTM thread. */
class RstmThread : public ObjectStmThread
{
  public:
    RstmThread(Machine &m, ObjectStmGlobals &g, ThreadId tid,
               CoreId core);
    ~RstmThread() override;

    std::string name() const override { return "RSTM"; }

  protected:
    void beginTx() override;
    bool commitTx() override;
    void abortCleanup() override;
    std::uint64_t txRead(Addr a, unsigned size) override;
    void txWrite(Addr a, std::uint64_t v, unsigned size) override;
    void pollAbort() override { checkStatus(); }

  private:
    struct WriteEntry
    {
        Addr clone;
        Addr header;
        std::uint64_t oldHeader;
    };

    /** (header addr -> version observed) for opened-for-read lines */
    FlatMap<Addr, std::uint64_t> readSet_;
    /** line base -> write entry */
    FlatMap<Addr, WriteEntry> writeSet_;

    /** Clone buffers come from a thread-private arena reserved at
     *  construction and are never returned to the shared allocator:
     *  clone traffic is invisible to transactional bookkeeping, so it
     *  must not touch addresses workload data can occupy. */
    static constexpr unsigned cloneArenaLines = 256;
    std::vector<Addr> clonePool_;

    Addr acquireClone();

    void checkStatus();
    /** Re-validate every opened-for-read header (self-validation). */
    void validateReadSet();
    void releaseWrites(bool committed);
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_RSTM_RUNTIME_HH
