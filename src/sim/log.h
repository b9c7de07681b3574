/**
 * @file
 * Minimal logging and error-reporting helpers, modelled on gem5's
 * panic()/fatal()/warn()/inform() conventions.
 *
 *  - panic():  an internal invariant was violated (a bug in this library);
 *              aborts so a debugger or core dump can catch it.
 *  - fatal():  the *user* of the library asked for something impossible
 *              (bad configuration, invalid arguments); exits cleanly.
 *  - warn():   something suspicious but survivable happened.
 */
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace memif::sim {

namespace detail {
[[noreturn]] void panic_impl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));
[[noreturn]] void fatal_impl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));
void warn_impl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
/** Prints the failed condition text (which may itself contain '%'). */
void assert_fail(const char *file, int line, const char *cond);
/** Aborts after an assert_fail, with or without an extra message. */
[[noreturn]] void assert_abort();
[[noreturn]] void assert_abort(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
}  // namespace detail

}  // namespace memif::sim

/** Abort on an internal invariant violation (library bug). */
#define MEMIF_PANIC(...) \
    ::memif::sim::detail::panic_impl(__FILE__, __LINE__, __VA_ARGS__)

/** Exit on an unrecoverable user error (bad config / arguments). */
#define MEMIF_FATAL(...) \
    ::memif::sim::detail::fatal_impl(__FILE__, __LINE__, __VA_ARGS__)

/** Report a survivable anomaly. */
#define MEMIF_WARN(...) ::memif::sim::detail::warn_impl(__VA_ARGS__)

/**
 * panic() unless @p cond holds. Extra arguments, if given, must start
 * with a string *literal* format (it is concatenated into the message).
 */
#define MEMIF_ASSERT(cond, ...)                                         \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::memif::sim::detail::assert_fail(__FILE__, __LINE__,       \
                                              #cond);                   \
            ::memif::sim::detail::assert_abort(__VA_ARGS__);            \
        }                                                               \
    } while (0)
