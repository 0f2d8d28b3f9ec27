/**
 * @file
 * Factory that builds threads for any of the registered runtimes over
 * one Machine, owning the runtime's machine-wide shared state.
 */

#ifndef FLEXTM_RUNTIME_RUNTIME_FACTORY_HH
#define FLEXTM_RUNTIME_RUNTIME_FACTORY_HH

#include <memory>
#include <vector>

#include "runtime/cgl_runtime.hh"
#include "runtime/flextm_runtime.hh"
#include "runtime/hytm_runtime.hh"
#include "runtime/rstm_runtime.hh"
#include "runtime/rtmf_runtime.hh"
#include "runtime/tl2_runtime.hh"
#include "runtime/tx_thread.hh"

namespace flextm
{

/**
 * The runtime registry: every RuntimeKind the factory can build, in
 * factory order.  Harnesses (goldens, fault sweeps, oracle matrices)
 * iterate this instead of hard-coding the list, so registering a new
 * runtime automatically enrolls it everywhere - and the teeth tests
 * fail loudly if a harness artifact (e.g. a determinism golden) is
 * missing for a registered kind.
 */
const std::vector<RuntimeKind> &allRuntimeKinds();

/** Builds TxThreads of one runtime kind for one machine. */
class RuntimeFactory
{
  public:
    RuntimeFactory(Machine &m, RuntimeKind kind);

    /** Create a thread handle bound to @p core. */
    std::unique_ptr<TxThread> makeThread(ThreadId tid, CoreId core);

    RuntimeKind kind() const { return kind_; }
    Machine &machine() { return m_; }

    /** FlexTM shared state (null for other runtimes). */
    FlexTmGlobals *flexGlobals() { return flex_.get(); }

  private:
    Machine &m_;
    RuntimeKind kind_;
    std::unique_ptr<FlexTmGlobals> flex_;
    std::unique_ptr<CglGlobals> cgl_;
    std::unique_ptr<Tl2Globals> tl2_;
    std::unique_ptr<ObjectStmGlobals> objectStm_;  //!< RSTM / RTM-F
    std::unique_ptr<HyTmGlobals> hytm_;
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_RUNTIME_FACTORY_HH
