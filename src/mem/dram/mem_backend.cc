#include "mem/dram/mem_backend.hh"

#include <cstdlib>
#include <cstring>

#include "mem/dram/dram_backend.hh"
#include "sim/env_util.hh"
#include "sim/logging.hh"

namespace flextm
{

void
validateDramConfig(const DramConfig &cfg)
{
    if (cfg.channels == 0)
        fatal("dram: channels must be nonzero");
    if (cfg.ranksPerChannel == 0)
        fatal("dram: ranksPerChannel must be nonzero");
    if (cfg.banksPerRank == 0)
        fatal("dram: banksPerRank must be nonzero");
    if (cfg.rowBytes < lineBytes ||
        (cfg.rowBytes & (cfg.rowBytes - 1)) != 0) {
        fatal("dram: rowBytes (%zu) must be a power of two of at "
              "least one cache line (%zu bytes)",
              cfg.rowBytes, static_cast<std::size_t>(lineBytes));
    }
    if (cfg.window == 0)
        fatal("dram: in-flight window must be nonzero");
    if (cfg.writeQueueDepth == 0)
        fatal("dram: writeQueueDepth must be nonzero");
}

MemBackendKind
envMemBackend(MemBackendKind fallback)
{
    switch (env::choiceOr("FLEXTM_MEM_BACKEND", {"fixed", "dram"})) {
      case 0:
        return MemBackendKind::Fixed;
      case 1:
        return MemBackendKind::Dram;
      default:
        return fallback;
    }
}

std::unique_ptr<MemBackend>
makeMemBackend(const MachineConfig &cfg, StatRegistry &stats)
{
    switch (cfg.memBackend) {
      case MemBackendKind::Fixed:
        return std::make_unique<FixedBackend>();
      case MemBackendKind::Dram:
        validateDramConfig(cfg.dram);
        return std::make_unique<DramBackend>(cfg, stats);
    }
    panic("unknown MemBackendKind %u",
          static_cast<unsigned>(cfg.memBackend));
}

} // namespace flextm
