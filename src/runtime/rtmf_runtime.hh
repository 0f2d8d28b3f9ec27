/**
 * @file
 * RTM-F-style hardware-accelerated software TM (Shriraman et
 * al. [34,35]) - the "hardware-accelerated STM" comparand of
 * Workload-Set 1.
 *
 * RTM-F uses two of FlexTM's mechanisms - Alert-On-Update and
 * Programmable Data Isolation - but *not* signatures or CSTs:
 * conflict detection runs through software-managed per-object
 * metadata.  PDI eliminates copying (speculative writes buffer in
 * TMI lines); AOU on object headers eliminates read-set validation
 * (a writer's header acquisition alerts every reader).  What remains
 * is the per-access metadata bookkeeping the paper measures at
 * 40-50% of execution time - header loads, ALoads, acquisition
 * CASes, and release stores - which this implementation issues as
 * real simulated memory traffic.
 */

#ifndef FLEXTM_RUNTIME_RTMF_RUNTIME_HH
#define FLEXTM_RUNTIME_RTMF_RUNTIME_HH

#include "runtime/object_stm.hh"
#include "sim/flat_map.hh"

namespace flextm
{

/** One RTM-F thread. */
class RtmfThread : public ObjectStmThread
{
  public:
    RtmfThread(Machine &m, ObjectStmGlobals &g, ThreadId tid,
               CoreId core);

    std::string name() const override { return "RTM-F"; }

  protected:
    void beginTx() override;
    bool commitTx() override;
    void abortCleanup() override;
    std::uint64_t txRead(Addr a, unsigned size) override;
    void txWrite(Addr a, std::uint64_t v, unsigned size) override;
    void injectSpuriousAlert() override { tswTx_.spuriousAlert(); }
    void injectRemoteAbort() override { tswTx_.remoteAbort(); }
    void pollAbort() override { checkAlert(); }

  private:
    TswTx tswTx_;

    /** Headers we ALoaded for read monitoring -> word observed. */
    FlatMap<Addr, std::uint64_t> readHeaders_;
    /** Acquired headers -> pre-acquisition word. */
    FlatMap<Addr, std::uint64_t> acquired_;
    /** Lines already opened (avoid re-running open protocol). */
    FlatSet<Addr> openedLines_;

    void checkAlert();
    /** After a header alert: confirm every watched header still has
     *  the word we observed (a committed writer bumps it). */
    void revalidateReadHeaders();
    void openForRead(Addr a);
    void openForWrite(Addr a);
    void releaseAll(bool committed);
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_RTMF_RUNTIME_HH
