#include "runtime/runtime_factory.hh"

#include "sim/logging.hh"

namespace flextm
{

const std::vector<RuntimeKind> &
allRuntimeKinds()
{
    // Factory order.  Append only: harnesses derive deterministic
    // seeds from a kind's position in this list, so reordering would
    // silently re-seed every recorded sweep.
    static const std::vector<RuntimeKind> kinds = {
        RuntimeKind::FlexTmEager, RuntimeKind::FlexTmLazy,
        RuntimeKind::Cgl,         RuntimeKind::Rstm,
        RuntimeKind::Tl2,         RuntimeKind::RtmF,
        RuntimeKind::HyTm,
    };
    return kinds;
}

RuntimeFactory::RuntimeFactory(Machine &m, RuntimeKind kind)
    : m_(m), kind_(kind)
{
    switch (kind_) {
      case RuntimeKind::FlexTmEager:
      case RuntimeKind::FlexTmLazy:
        flex_ = std::make_unique<FlexTmGlobals>(m_);
        break;
      case RuntimeKind::Cgl:
        cgl_ = std::make_unique<CglGlobals>(m_);
        break;
      case RuntimeKind::Tl2:
        tl2_ = std::make_unique<Tl2Globals>(m_);
        break;
      case RuntimeKind::Rstm:
      case RuntimeKind::RtmF:
        objectStm_ = std::make_unique<ObjectStmGlobals>(m_);
        break;
      case RuntimeKind::HyTm:
        hytm_ = std::make_unique<HyTmGlobals>(m_);
        break;
    }
}

std::unique_ptr<TxThread>
RuntimeFactory::makeThread(ThreadId tid, CoreId core)
{
    switch (kind_) {
      case RuntimeKind::FlexTmEager:
        return std::make_unique<FlexTmThread>(m_, *flex_, tid, core,
                                              ConflictMode::Eager);
      case RuntimeKind::FlexTmLazy:
        return std::make_unique<FlexTmThread>(m_, *flex_, tid, core,
                                              ConflictMode::Lazy);
      case RuntimeKind::Cgl:
        return std::make_unique<CglThread>(m_, *cgl_, tid, core);
      case RuntimeKind::Tl2:
        return std::make_unique<Tl2Thread>(m_, *tl2_, tid, core);
      case RuntimeKind::Rstm:
        return std::make_unique<RstmThread>(m_, *objectStm_, tid,
                                            core);
      case RuntimeKind::RtmF:
        return std::make_unique<RtmfThread>(m_, *objectStm_, tid,
                                            core);
      case RuntimeKind::HyTm:
        return std::make_unique<HyTmThread>(m_, *hytm_, tid, core);
    }
    panic("unknown runtime kind");
}

} // namespace flextm
