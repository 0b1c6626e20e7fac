#include "sim/perf.hh"

#include <atomic>
// Host-clock use is the audited no-wallclock exemption: WallTimer
// feeds the BENCH_<date>.json events/sec reporting only and never
// influences simulated behavior (see the file comment in perf.hh).
#include <chrono> // htlint: allow(no-wallclock)

#include <cstdlib>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace hypertee
{
namespace perf
{

namespace detail
{
thread_local std::uint64_t t_pendingEventsFired = 0;
thread_local std::uint64_t t_pendingInstsRetired = 0;
} // namespace detail

namespace
{
std::atomic<std::uint64_t> g_eventsFired{0};
std::atomic<std::uint64_t> g_instsRetired{0};
} // namespace

void
flushThreadCounters()
{
    std::uint64_t pending = detail::t_pendingEventsFired;
    if (pending != 0) {
        detail::t_pendingEventsFired = 0;
        g_eventsFired.fetch_add(pending, std::memory_order_relaxed);
    }
    std::uint64_t insts = detail::t_pendingInstsRetired;
    if (insts != 0) {
        detail::t_pendingInstsRetired = 0;
        g_instsRetired.fetch_add(insts, std::memory_order_relaxed);
    }
}

std::uint64_t
totalEventsFired()
{
    return g_eventsFired.load(std::memory_order_relaxed) +
           detail::t_pendingEventsFired;
}

std::uint64_t
totalInstsRetired()
{
    return g_instsRetired.load(std::memory_order_relaxed) +
           detail::t_pendingInstsRetired;
}

void
resetEventsFired()
{
    g_eventsFired.store(0, std::memory_order_relaxed);
    detail::t_pendingEventsFired = 0;
    g_instsRetired.store(0, std::memory_order_relaxed);
    detail::t_pendingInstsRetired = 0;
}

std::uint64_t
peakRssKb()
{
#if defined(__linux__)
    // ru_maxrss keeps the high-water mark of the image that exec'd
    // this one (a launcher script, say); VmHWM is this image's own.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::uint64_t kb = std::strtoull(line.c_str() + 6, nullptr, 10);
            if (kb != 0)
                return kb;
            break;
        }
    }
#endif
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    // macOS reports bytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
    // Linux reports KiB.
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
#else
    return 0;
#endif
}

void
WallTimer::restart()
{
    using Clock = std::chrono::steady_clock; // htlint: allow(no-wallclock)
    _startNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast< // htlint: allow(no-wallclock)
            std::chrono::nanoseconds>( // htlint: allow(no-wallclock)
            Clock::now().time_since_epoch())
            .count());
}

double
WallTimer::elapsedSeconds() const
{
    using Clock = std::chrono::steady_clock; // htlint: allow(no-wallclock)
    std::uint64_t now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast< // htlint: allow(no-wallclock)
            std::chrono::nanoseconds>( // htlint: allow(no-wallclock)
            Clock::now().time_since_epoch())
            .count());
    return static_cast<double>(now_ns - _startNs) / 1e9;
}

} // namespace perf
} // namespace hypertee
