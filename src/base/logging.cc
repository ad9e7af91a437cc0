#include "base/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace pipestitch {

namespace {

std::atomic<bool> quietMode{false};

/** Nesting depth of live ScopedQuiet instances on this thread. */
thread_local int scopedQuietDepth = 0;

/** Nesting depth of live ScopedFatalTrap instances on this thread. */
thread_local int fatalTrapDepth = 0;

bool
quietNow()
{
    return scopedQuietDepth > 0 ||
           quietMode.load(std::memory_order_relaxed);
}

std::string
vformat(const char *fmt, va_list args)
{
    // Most messages and node names fit the stack buffer: one
    // formatting pass and no scratch allocation.
    char small[256];
    va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(small, sizeof(small), fmt, copy);
    va_end(copy);
    if (n < 0)
        return "<format error>";
    if (static_cast<size_t>(n) < sizeof(small))
        return std::string(small, static_cast<size_t>(n));
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

} // namespace

std::string
csprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vformat(fmt, args);
    va_end(args);
    return s;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    if (fatalTrapDepth > 0)
        throw FatalError(msg);
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietNow())
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quietNow())
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
setQuiet(bool quiet)
{
    quietMode.store(quiet, std::memory_order_relaxed);
}

ScopedQuiet::ScopedQuiet(bool enable) : active(enable)
{
    if (active)
        scopedQuietDepth++;
}

ScopedQuiet::~ScopedQuiet()
{
    if (active)
        scopedQuietDepth--;
}

ScopedFatalTrap::ScopedFatalTrap()
{
    fatalTrapDepth++;
}

ScopedFatalTrap::~ScopedFatalTrap()
{
    fatalTrapDepth--;
}

} // namespace pipestitch
