/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (simulator bugs), fatal() is for user errors (bad
 * configuration, malformed input), warn()/inform() report conditions
 * without stopping the run.
 */

#ifndef PIPESTITCH_BASE_LOGGING_HH
#define PIPESTITCH_BASE_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace pipestitch {

/** Format a printf-style message into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Abort with a message; use for internal invariant violations. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Exit(1) with a message; use for user/configuration errors. */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Print a warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Globally silence warn()/inform() (used by benches for clean
 * tables). Thread-safe: the flag is an atomic, and each message is
 * emitted with a single stdio call, so concurrent runs never
 * interleave mid-line. For silencing only the current thread (one
 * run among many in a thread pool), use ScopedQuiet or
 * RunConfig::quiet instead of this process-wide switch.
 */
void setQuiet(bool quiet);

/**
 * RAII per-thread silencer: warn()/inform() emitted by the current
 * thread are suppressed while any ScopedQuiet is alive, without
 * touching other threads. Nests; a disabled instance is a no-op.
 */
class ScopedQuiet
{
  public:
    explicit ScopedQuiet(bool enable = true);
    ~ScopedQuiet();

    ScopedQuiet(const ScopedQuiet &) = delete;
    ScopedQuiet &operator=(const ScopedQuiet &) = delete;

  private:
    bool active;
};

/** Thrown by fatal() while a ScopedFatalTrap is active on the
 *  calling thread; carries the formatted message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * RAII per-thread trap: while alive, fatal() on this thread throws
 * FatalError instead of exiting the process. For resident callers
 * (the serve daemon) that must survive user errors raised deep in
 * code written for batch tools — a malformed kernel in one request
 * must not take the whole server down. Nests. panic() is unaffected:
 * internal invariant violations still abort.
 */
class ScopedFatalTrap
{
  public:
    ScopedFatalTrap();
    ~ScopedFatalTrap();

    ScopedFatalTrap(const ScopedFatalTrap &) = delete;
    ScopedFatalTrap &operator=(const ScopedFatalTrap &) = delete;
};

} // namespace pipestitch

#define panic(...) \
    ::pipestitch::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

#define fatal(...) \
    ::pipestitch::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Assert-with-message that stays enabled in release builds. */
#define ps_assert(cond, ...)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::pipestitch::panicImpl(__FILE__, __LINE__, __VA_ARGS__);   \
        }                                                               \
    } while (0)

#endif // PIPESTITCH_BASE_LOGGING_HH
