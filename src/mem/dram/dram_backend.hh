/**
 * @file
 * Banked DRAM timing backend (MemBackendKind::Dram).
 *
 * Owns the address decoder, the per-channel bank/queue machinery, and
 * the shared DRAM stats.  read() decodes the line, lets the owning
 * channel resolve a completion cycle, and returns the latency the L2
 * fill should charge; write() posts the writeback and returns only
 * the requestor-visible stall.
 */

#ifndef FLEXTM_MEM_DRAM_DRAM_BACKEND_HH
#define FLEXTM_MEM_DRAM_DRAM_BACKEND_HH

#include <vector>

#include "mem/dram/address_map.hh"
#include "mem/dram/command_queue.hh"
#include "mem/dram/mem_backend.hh"

namespace flextm
{

class DramBackend final : public MemBackend
{
  public:
    DramBackend(const MachineConfig &cfg, StatRegistry &stats);

    Cycles read(Addr line, Cycles now) override;
    Cycles write(Addr line, Cycles now) override;
    const char *name() const override { return "dram"; }

    /** @name Test hooks */
    /// @{
    const DramChannel &channel(unsigned i) const
    {
        return channels_[i];
    }
    DramChannel &channel(unsigned i) { return channels_[i]; }
    const DramStats &stats() const { return stats_; }
    /// @}

  private:
    DramConfig cfg_;  //!< copied: backend outlives nothing but Machine
    DramAddressMap map_;
    DramStats stats_;
    std::vector<DramChannel> channels_;
};

} // namespace flextm

#endif // FLEXTM_MEM_DRAM_DRAM_BACKEND_HH
