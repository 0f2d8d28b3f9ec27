#include "sim/trace.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/env_util.hh"
#include "sim/logging.hh"

namespace flextm::trace
{

namespace detail
{

constinit thread_local unsigned activeMask = 0;
constinit thread_local bool maskInitialized = false;

void
initMaskFromEnv()
{
    maskInitialized = true;
    if (const char *env = flextm::env::raw("FLEXTM_TRACE"))
        activeMask = parseCategories(env);
}

} // namespace detail

namespace
{

/** Sink routing is per OS thread for the same isolation reason as
 *  the mask. */
thread_local Sink activeSink;

const char *
name(Category c)
{
    switch (c) {
      case Protocol:
        return "protocol";
      case Tm:
        return "tm";
      case Os:
        return "os";
      case Watch:
        return "watch";
      case Fault:
        return "fault";
      case Oracle:
        return "oracle";
      case Dram:
        return "dram";
      default:
        return "?";
    }
}

} // anonymous namespace

unsigned
parseCategories(const std::string &spec)
{
    unsigned m = 0;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        if (tok == "all")
            m |= All;
        else if (tok == "protocol")
            m |= Protocol;
        else if (tok == "tm")
            m |= Tm;
        else if (tok == "os")
            m |= Os;
        else if (tok == "watch")
            m |= Watch;
        else if (tok == "fault")
            m |= Fault;
        else if (tok == "oracle")
            m |= Oracle;
        else if (tok == "dram")
            m |= Dram;
        else
            fatal("FLEXTM_TRACE token \"%s\" is not recognized (want "
                  "protocol / tm / os / watch / fault / oracle / "
                  "dram / all)",
                  tok.c_str());
        pos = comma + 1;
    }
    return m;
}

unsigned
setMask(unsigned m)
{
    if (!detail::maskInitialized)
        detail::initMaskFromEnv();
    const unsigned prev = detail::activeMask;
    detail::activeMask = m;
    return prev;
}

void
setSink(Sink sink)
{
    activeSink = std::move(sink);
}

void
logf(Category c, std::uint64_t cycle, const char *fmt, ...)
{
    char body[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(body, sizeof(body), fmt, ap);
    va_end(ap);

    char line[600];
    std::snprintf(line, sizeof(line), "%10llu: %s: %s",
                  static_cast<unsigned long long>(cycle), name(c),
                  body);
    if (activeSink)
        activeSink(line);
    else
        std::fprintf(stderr, "%s\n", line);
}

} // namespace flextm::trace
