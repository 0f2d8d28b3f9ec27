#include "runtime/machine.hh"

#include "runtime/conflict_manager.hh"
#include "sim/auditor.hh"

namespace flextm
{

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), mem_(cfg.memoryBytes), progress_(cfg.progress, stats_)
{
    sched_.setWatchdog(&progress_);
    contexts_.reserve(cfg_.cores);
    for (unsigned c = 0; c < cfg_.cores; ++c)
        contexts_.emplace_back(static_cast<CoreId>(c), cfg_.signatureBits);
    // Environment override so existing harnesses (fuzz, fault sweep,
    // goldens) can be audited without a config plumbing change:
    // FLEXTM_AUDITOR=off|txn|transition.
    cfg_.auditor = envAuditLevel(cfg_.auditor);
    // Same idea for the main-memory timing backend:
    // FLEXTM_MEM_BACKEND=fixed|dram.
    cfg_.memBackend = envMemBackend(cfg_.memBackend);
    cmPolicy_ = &cmPolicyFor(cfg_.cmPolicy);
    memsys_ =
        std::make_unique<MemorySystem>(cfg_, mem_, contexts_, stats_);
    // The I9 progressiveness check must know who holds the
    // irrevocability token.
    if (StateAuditor *a = memsys_->auditor())
        a->setProgress(&progress_);
    fault_.configure(cfg_.fault, cfg_.seed);
    if (fault_.enabled()) {
        sched_.setFaultPlan(&fault_);
        memsys_->setFaultPlan(&fault_);
        FaultPlan::setActive(&fault_);
    }
}

Machine::~Machine()
{
    if (FaultPlan::active() == &fault_)
        FaultPlan::setActive(nullptr);
}

} // namespace flextm
