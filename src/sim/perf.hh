/**
 * @file
 * Host-side performance accounting for the perf-baseline harness.
 *
 * Two worlds must not be confused here:
 *
 *  - *Simulated* time (Tick) and randomness are deterministic and come
 *    from EventQueue / sim/random.hh; the htlint `no-wallclock` rule
 *    bans host clocks from src/ precisely to protect that.
 *  - *Host* performance — how many simulated events the process fires
 *    per wall-clock second, and how much memory it needs — is what the
 *    committed BENCH_<date>.json trajectory tracks, and measuring it
 *    requires a real clock.
 *
 * This file is the one audited exemption: WallTimer is the only
 * legitimate host-clock user under src/, it is used exclusively for
 * reporting (never to make a simulation decision), and every
 * suppression is visible to `htlint --list-suppressions`.
 *
 * Event accounting is deliberately cheap and thread-friendly: firing
 * an event bumps a thread-local counter (one register-relative
 * increment, no atomics on the hot path); worker threads fold their
 * counters into a process-wide atomic total when they leave the shard
 * pool (sim/parallel.cc) and totalEventsFired() adds the calling
 * thread's still-pending count. The totals are a pure function of the
 * simulated workload, so they are identical for every --jobs value.
 */

#ifndef HYPERTEE_SIM_PERF_HH
#define HYPERTEE_SIM_PERF_HH

#include <cstdint>

namespace hypertee
{
namespace perf
{

namespace detail
{
/** Calling thread's not-yet-flushed fired-event count. */
extern thread_local std::uint64_t t_pendingEventsFired;
/** Calling thread's not-yet-flushed retired-instruction count. */
extern thread_local std::uint64_t t_pendingInstsRetired;
} // namespace detail

/** Record one fired event; called from EventQueue::step(). */
inline void
noteEventFired()
{
    ++detail::t_pendingEventsFired;
}

/**
 * Record @p n simulated instructions retired; called once per
 * Core::run with the whole run's count, so the instruction hot loop
 * itself carries no accounting cost.
 */
inline void
noteInstsRetired(std::uint64_t n)
{
    detail::t_pendingInstsRetired += n;
}

/**
 * Fold the calling thread's pending counts into the process total.
 * The shard worker pool calls this before a worker exits; long-lived
 * threads may call it whenever their counts should become visible.
 */
void flushThreadCounters();

/**
 * Process-wide fired-event total: everything flushed so far plus the
 * calling thread's pending count. Exact once all other counting
 * threads have flushed (the shard pool guarantees this on join).
 */
std::uint64_t totalEventsFired();

/**
 * Process-wide retired-instruction total, with the same flush
 * semantics as totalEventsFired(). Like the event count, it is a
 * pure function of the simulated workload — identical for every
 * --jobs value — which is what lets the perf baseline exact-match it
 * for deterministic benches.
 */
std::uint64_t totalInstsRetired();

/** Reset the process totals and the calling thread's pending counts. */
void resetEventsFired();

/**
 * Peak resident set size of this process in KiB: VmHWM from
 * /proc/self/status on Linux, else getrusage(RUSAGE_SELF), whose
 * ru_maxrss on Linux also carries the high-water mark of the image
 * that exec'd this one. 0 where neither is supported.
 */
std::uint64_t peakRssKb();

/**
 * Monotonic host-time stopwatch for events/sec reporting.
 *
 * Never use this inside a model: simulated latencies come from the
 * EventQueue. It exists so the bench harness can compute events/sec
 * and per-bench wall time for BENCH_<date>.json.
 */
class WallTimer
{
  public:
    /** Starts running on construction. */
    WallTimer() { restart(); }

    /** Restart the stopwatch at zero. */
    void restart();

    /** Seconds elapsed since construction or the last restart(). */
    double elapsedSeconds() const;

  private:
    /** Monotonic clock reading at start, in nanoseconds. */
    std::uint64_t _startNs = 0;
};

} // namespace perf
} // namespace hypertee

#endif // HYPERTEE_SIM_PERF_HH
