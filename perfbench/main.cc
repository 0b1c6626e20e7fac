/**
 * @file
 * Host-performance benchmark driver: one process, one thread, one
 * workload per invocation.
 *
 *   perfbench --workload <enclave_exec|mgmt_attest|mgmt_churn>
 *             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
 *
 * Prints human-readable lines, then one JSON object as the last line:
 * the pass/fail counts, the metrics of the mode (end-to-end with
 * --trace 0, per-layer with --trace 1), the build it ran on and the
 * simulated-result fingerprint. run.py builds this binary and reduces
 * that line to the benchmark's result.
 */

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common.hh"
#include "sim/logging.hh"
#include "sim/perf.hh"

namespace perfbench
{

const std::int64_t processStartNs = nowNs();

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * double(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    std::nth_element(values.begin(), values.begin() + long(rank - 1),
                     values.end());
    return values[rank - 1];
}

double
HostSpeed::pass()
{
    for (std::uint64_t &v : _table)
        v += 1; // into L1 before the clock starts
    const std::int64_t t0 = nowNs();
    std::array<std::uint64_t, 4> x = {_state, _state * 3 + 1,
                                      _state * 5 + 7, _state * 7 + 11};
    std::uint64_t acc = 0;
    const std::uint64_t mask = _table.size() - 1;
    for (int i = 0; i < 14000; ++i) {
        for (std::uint64_t &y : x) {
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            acc += _table[y & mask];
            if (y & 2)
                _table[(y >> 11) & mask] ^= acc;
        }
    }
    _state = x[0] ^ x[1] ^ x[2] ^ x[3] ^ acc; // keeps the pass observable
    return double(nowNs() - t0);
}

double
SetupTimes::medianS() const
{
    return median(scaledS);
}

std::string
SetupTimes::line() const
{
    return fmt("setup_s %.6f s: median of %zu set-ups at reference host "
               "speed (range %.6f-%.6f s); the first, from process start, "
               "took %.6f s as timed",
               medianS(), scaledS.size(),
               *std::min_element(scaledS.begin(), scaledS.end()),
               *std::max_element(scaledS.begin(), scaledS.end()), coldS);
}

WindowLog::WindowLog()
{
    _passNs.push_back(_speed.pass());
    _passKind.push_back(-1);
}

void
WindowLog::open(std::size_t first)
{
    _open = Window{0, 0, 1, first, first};
}

void
WindowLog::close(std::size_t last, int kind)
{
    const double after = _speed.pass();
    _open.last = last;
    _open.scale =
        HostSpeed::referencePassNs / ((_passNs.back() + after) / 2);
    _passNs.push_back(after);
    _passKind.push_back(kind);
    _windows.push_back(_open);
}

double
WindowLog::medianPassNs() const
{
    return median(_passNs);
}

double
WindowLog::medianPassNs(int kind) const
{
    std::vector<double> passes;
    for (std::size_t i = 0; i < _passNs.size(); ++i) {
        if (_passKind[i] == kind)
            passes.push_back(_passNs[i]);
    }
    return median(passes);
}

WindowLog::Summary
WindowLog::summarize(const std::vector<double> &samples) const
{
    Summary out;
    for (const Window &w : _windows) {
        out.work += w.work;
        out.ns += w.ns * w.scale;
        out.rawNs += w.ns;
        for (std::size_t n = w.first; n < w.last; ++n)
            out.samples.push_back(samples[n] * w.scale);
    }
    return out;
}

std::uint32_t
SpanLog::nameId(const std::string &name)
{
    for (std::size_t i = 0; i < _names.size(); ++i) {
        if (_names[i] == name)
            return std::uint32_t(i);
    }
    _names.push_back(name);
    return std::uint32_t(_names.size() - 1);
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "name\tstart_ns\tend_ns\tparent\treq\n";
    for (const Span &s : _spans) {
        out << _names[s.name] << '\t' << s.start << '\t' << s.end << '\t'
            << s.parent << '\t' << s.req << '\n';
    }
    return bool(out);
}

double
peakRssMb()
{
    // VmHWM is the high-water mark of this program's own address
    // space. getrusage's ru_maxrss (perf::peakRssKb) also counts the
    // launcher's pages from before exec, which would put the Python
    // wrapper's footprint into this metric.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return double(hypertee::perf::peakRssKb()) / 1024.0;
}

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return buf;
}

std::string
Fingerprint::toJson() const
{
    return fmt("{\"complete\": %s, \"ops\": %llu, \"ticks\": %llu, "
               "\"insts\": %llu, \"tlb_misses\": %llu, "
               "\"l2_misses\": %llu, \"latency_sum\": %llu, "
               "\"digest\": \"%016llx\"}",
               complete ? "true" : "false", (unsigned long long)ops,
               (unsigned long long)ticks, (unsigned long long)insts,
               (unsigned long long)tlbMisses,
               (unsigned long long)l2Misses,
               (unsigned long long)latencySum,
               (unsigned long long)digest);
}

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <enclave_exec|mgmt_attest|"
                 "mgmt_churn> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n",
                 argv0);
    return 2;
}

} // namespace
} // namespace perfbench

using namespace perfbench;

int
main(int argc, char **argv)
{
    hypertee::logging_detail::setVerbose(false);

    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty())
                return usage(argv[0]);
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(opts.seconds > 0) ||
                opts.seconds > 600)
                return usage(argv[0]);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage(argv[0]);
            opts.trace = value == "1";
        } else if (flag == "--out-dir") {
            opts.outDir = value;
        } else {
            return usage(argv[0]);
        }
    }
    if (!have_workload)
        return usage(argv[0]);

    Report report;
    if (opts.workload == "enclave_exec")
        report = runEnclaveExec(opts);
    else if (opts.workload == "mgmt_attest")
        report = runMgmtAttest(opts);
    else if (opts.workload == "mgmt_churn")
        report = runMgmtChurn(opts);
    else
        return usage(argv[0]);

    const unsigned nproc = std::thread::hardware_concurrency();
    std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
                opts.workload.c_str(), (unsigned long long)opts.seed,
                opts.seconds, opts.trace ? 1 : 0);
    std::printf("# build: type=%s compiler=%s nproc=%u\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, nproc);
    for (const std::string &l : report.lines)
        std::printf("%s\n", l.c_str());
    for (const Metric &m : report.metrics) {
        std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("fingerprint %s\n", report.fingerprint.toJson().c_str());
    for (const std::string &e : report.errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());

    const bool correct = report.failed == 0 && report.errors.empty() &&
                         report.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += fmt(", \"attempted\": %llu, \"failed\": %llu",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        json += i ? ", " : "";
        json += jsonString(m.name) + ": {\"value\": " +
                fmt("%.17g", std::isfinite(m.value) ? m.value : 0.0) +
                ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}, \"workload\": " + jsonString(opts.workload);
    json += fmt(", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d",
                (unsigned long long)opts.seed, opts.seconds,
                opts.trace ? 1 : 0);
    json += ", \"build\": {\"type\": " +
            jsonString(PERFBENCH_BUILD_TYPE) +
            ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
            fmt(", \"nproc\": %u}", nproc);
    json += ", \"fingerprint\": " + report.fingerprint.toJson() + "}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
