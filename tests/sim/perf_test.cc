/** @file Host-side measurement helpers (sim/perf). */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "sim/perf.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace hypertee
{
namespace
{

TEST(Perf, PeakRssIsThisProcessesOwnHighWaterMark)
{
    // Touch 8 MiB so the peak is clearly this process's own.
    std::vector<char> block(8 << 20, 1);
    volatile char sink = block[block.size() / 2];
    (void)sink;

    std::uint64_t peak = perf::peakRssKb();
    EXPECT_GE(peak, 8u * 1024u);
#if defined(__linux__)
    // ru_maxrss also counts the pre-exec image, so it bounds VmHWM
    // from above, up to the kernel's per-CPU RSS counter batching:
    // getrusage reads the counters approximately, /proc sums them,
    // and the two may differ by max(32, 2 * cpus) pages per CPU.
    struct rusage usage;
    ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
    std::uint64_t cpus = std::max(1u, std::thread::hardware_concurrency());
    std::uint64_t slack_kb = std::max<std::uint64_t>(32, 2 * cpus) * cpus *
                             static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) /
                             1024;
    EXPECT_LE(peak, static_cast<std::uint64_t>(usage.ru_maxrss) + slack_kb);
#endif
}

} // namespace
} // namespace hypertee
