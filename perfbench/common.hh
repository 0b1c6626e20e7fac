/**
 * @file
 * Shared pieces of the host-performance benchmark driver: the run
 * options, the report every workload fills, host clocks, quantiles,
 * the in-memory span log of the traced run, and the simulated-result
 * fingerprint.
 *
 * Everything here times calls into the simulator's libraries from
 * outside; nothing in src/ is instrumented.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory the traced run writes its span log into. */
    std::string outDir = ".";
};

/** Host monotonic clock in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t start_ns)
{
    return double(nowNs() - start_ns) * 1e-9;
}

/** Host clock reading taken during static initialisation. */
extern const std::int64_t processStartNs;

/**
 * Host-speed probe.
 *
 * Other tenants of the host slow this process down by up to a third,
 * in spells that move between cores and last from a second to
 * minutes. A pass is a fixed amount of integer work in four
 * independent lanes, with unpredictable branches and loads and stores
 * to a 16 KiB table that it pulls into L1 before the clock starts. So
 * its time follows the share of a core this process gets, the core's
 * clock and what else runs on the same physical core, but not what
 * the timed work before it left in the caches.
 * Host times measured between two passes are scaled by
 * referencePassNs over the mean of the two, which puts every
 * end-to-end time at the reference host speed. Passes are never
 * timed work.
 */
class HostSpeed
{
  public:
    /** Nominal pass time: one pass on an uncontended host. */
    static constexpr double referencePassNs = 5.0e5;

    /** Host ns of one pass now. */
    double pass();

  private:
    std::array<std::uint64_t, 2048> _table{};
    std::uint64_t _state = 0x9e3779b97f4a7c15ULL;
};

/** Host times of a workload's repeated set-up. */
struct SetupTimes
{
    /** Each set-up, scaled to the reference host speed, in s. */
    std::vector<double> scaledS;
    /** The first set-up from process start, as timed, in s. */
    double coldS = 0;

    /** setup_s: the median of scaledS. */
    double medianS() const;
    /** One report line with the median, range and cold set-up. */
    std::string line() const;
};

/** Set-ups per run: at least this many, */
constexpr int setupMinRepeats = 9;
/** and until this much host time has gone into them. */
constexpr double setupMinSeconds = 1.0;

/**
 * Run a workload's set-up repeatedly (see setupMinRepeats) and keep
 * the last result. The first repeat is timed from process start, the
 * others from their own start; each is scaled to the reference host
 * speed by the passes around it. Spreading the repeats over a second
 * keeps a short spell of host contention from moving setup_s.
 */
template <typename Make>
auto
repeatedSetup(SetupTimes &times, Make make)
{
    HostSpeed speed;
    decltype(make()) last{};
    const std::int64_t start = nowNs();
    for (int i = 0; i < setupMinRepeats ||
                    secondsSince(start) < setupMinSeconds;
         ++i) {
        last = {}; // release the previous set-up before the next one
        const double before = i == 0 ? 0.0 : speed.pass();
        const std::int64_t t0 = i == 0 ? processStartNs : nowNs();
        last = make();
        const double seconds = secondsSince(t0);
        const double after = speed.pass();
        const double pass_ns = i == 0 ? after : (before + after) / 2;
        if (i == 0)
            times.coldS = seconds;
        times.scaledS.push_back(seconds * HostSpeed::referencePassNs /
                                pass_ns);
    }
    return last;
}

/** Nearest-rank quantile (q in [0,1]); 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

/** Median of @p values (nearest rank, lower middle). */
inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Simulated picoseconds to microseconds. */
inline double
ticksToUs(hypertee::Tick t)
{
    return double(t) * 1e-6;
}

/**
 * Simulated-result fingerprint of a fixed prefix of a workload's op
 * stream. It depends only on the seed and the model, never on host
 * speed, so a change in it means the model changed.
 */
struct Fingerprint
{
    std::uint64_t ops = 0;         ///< ops covered by this print
    std::uint64_t ticks = 0;       ///< simulated core ticks
    std::uint64_t insts = 0;       ///< simulated instructions
    std::uint64_t tlbMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t latencySum = 0;  ///< sum of per-op lastLatency()
    std::uint64_t digest = 0xcbf29ce484222325ULL; ///< FNV-1a of results
    bool complete = false;         ///< the prefix was reached

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            digest ^= (v >> (8 * i)) & 0xff;
            digest *= 0x100000001b3ULL;
        }
    }

    template <typename Container>
    void
    mixBytes(const Container &bytes)
    {
        mix(bytes.size());
        for (auto b : bytes) {
            digest ^= std::uint8_t(b);
            digest *= 0x100000001b3ULL;
        }
    }

    std::string toJson() const;
};

/**
 * Timing windows of an end-to-end run. After every short window of
 * timed work (a few lifecycles, a thousand churn ops, one Core::run
 * chunk) the log runs a HostSpeed pass, and scales the window's host
 * time and latency samples by the passes just before and after it.
 */
class WindowLog
{
  public:
    struct Window
    {
        double work = 0;       ///< primitives or instructions
        double ns = 0;         ///< host time
        double scale = 1;      ///< referencePassNs / local pass time
        std::size_t first = 0; ///< latency samples [first, last)
        std::size_t last = 0;
    };

    WindowLog();

    /** Open a window whose latency samples start at @p first. */
    void open(std::size_t first);
    /** Account timed work to the open window. */
    void
    add(double ns, double work)
    {
        _open.ns += ns;
        _open.work += work;
    }
    /**
     * Close the open window at sample @p last, then probe. @p kind
     * labels the pass by the work just before it (see medianPassNs).
     */
    void close(std::size_t last, int kind = 0);

    std::size_t size() const { return _windows.size(); }

    struct Summary
    {
        double work = 0;
        double ns = 0;    ///< scaled
        double rawNs = 0; ///< as timed
        std::vector<double> samples; ///< scaled
    };

    /** Totals and latency @p samples of all windows, scaled. */
    Summary summarize(const std::vector<double> &samples) const;

    /** Median pass time of the run, in ns. */
    double medianPassNs() const;
    /**
     * Median time of the passes run right after windows of @p kind.
     * It should not depend on the kind: that shows the scale follows
     * the host, not the work before it.
     */
    double medianPassNs(int kind) const;

  private:
    HostSpeed _speed;
    std::vector<double> _passNs;
    std::vector<int> _passKind; ///< kind of the window before; -1: none
    Window _open;
    std::vector<Window> _windows;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run hands back to main(). */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Structural checks that are not per-op (teardown, replay). */
    std::vector<std::string> errors;
    std::vector<Metric> metrics;
    /** Human-readable lines printed above the result. */
    std::vector<std::string> lines;
    Fingerprint fingerprint;

    /**
     * Add a metric unless one of that name is already set: the
     * workload's own measurement is added before any probe's.
     */
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        for (const Metric &m : metrics) {
            if (m.name == name)
                return;
        }
        metrics.push_back({name, value, unit});
    }

    /** Record a failed output check (counts into error_rate). */
    void
    fail(const std::string &what)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what);
    }

    void line(const std::string &text) { lines.push_back(text); }
};

/**
 * In-memory span log of the traced run. A span has a name, host start
 * and end, the span that caused it, and the id of the request (the
 * lifecycle, churn op or profile slice) it belongs to. Spans are only
 * recorded by the benchmark's own code, around calls into a module.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::uint32_t name;
        std::int32_t parent;
        std::uint64_t req;
        std::int64_t start;
        std::int64_t end;
    };

    /** Intern @p name; the returned id is stable for the run. */
    std::uint32_t nameId(const std::string &name);

    /** Open a span under the innermost open span. */
    void
    open(std::uint32_t name, std::uint64_t req)
    {
        std::int32_t parent =
            _stack.empty() ? -1 : std::int32_t(_stack.back());
        _spans.push_back({name, parent, req, nowNs(), 0});
        _stack.push_back(_spans.size() - 1);
    }

    /** Close the innermost open span; returns its duration in ns. */
    std::int64_t
    close()
    {
        Span &s = _spans[_stack.back()];
        _stack.pop_back();
        s.end = nowNs();
        return s.end - s.start;
    }

    const std::vector<Span> &spans() const { return _spans; }
    const std::vector<std::string> &names() const { return _names; }

    /** Write every span as TSV (name, start, end, parent, req). */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> _spans;
    std::vector<std::size_t> _stack;
    std::vector<std::string> _names;
};

/**
 * Peak resident set size of this program so far, in MiB. The workloads
 * read it when their fixed fingerprint prefix completes, so that it
 * measures a fixed amount of work and does not grow with host speed.
 */
double peakRssMb();

std::string fmt(const char *format, ...)
    __attribute__((format(printf, 1, 2)));

/** The workloads; each returns its report for @p opts. */
Report runEnclaveExec(const Options &opts);
Report runMgmtAttest(const Options &opts);
Report runMgmtChurn(const Options &opts);

/**
 * Per-layer probes shared by every traced run, so that each traced
 * workload reports every per-layer metric: layers off the workload's
 * own path are measured on a small fixed probe, which is the
 * "should not move" control for that workload.
 */
void probeDataPlane(const Options &opts, Report &report);
void probeManagement(const Options &opts, const std::string &skip,
                     Report &report);
void probeCrypto(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
