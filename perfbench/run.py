#!/usr/bin/env python3
"""Host-performance benchmark of the HyperTEE simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare A.json B.json

The first form builds the simulator libraries and the driver from source
into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), runs one
workload, checks its outputs, keeps the full record (metrics, build,
fingerprint) under .bench_build/perfbench/results/, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.

The second form compares two kept records, and refuses to when they
come from different builds (build type, compiler or core count), since
that shifts every host-time number.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enclave_exec", "mgmt_attest", "mgmt_churn")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then build the driver incrementally."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")
    return bdir / "perfbench"


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    binary = build(build_dir())
    results = build_dir() / "results"
    spans = build_dir() / "spans"
    results.mkdir(exist_ok=True)
    spans.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out-dir", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode})", 3)
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver's last line is not JSON (exit {proc.returncode})", 3)

    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if expected is not None and got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, wrong unit {wrong}", 4)

    record["report"] = lines[:-1]
    out = results / (f"{args.workload}-seed{args.seed}-"
                     f"trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")

    for line in lines[:-1]:
        print(line)
    print(f"# record kept in {out.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] and proc.returncode == 0 else 1


def compare(path_a, path_b):
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    if a["build"] != b["build"]:
        fail(f"refusing to compare runs of different builds: "
             f"{a['build']} vs {b['build']}")
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or modes")
    print(f"{a['workload']} trace={a['trace']}  build {a['build']}")
    print(f"{'metric':36} {'A':>14} {'B':>14} {'B/A-1':>9}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        delta = f"{(vb / va - 1) * 100:+8.2f}%" if va else "     n/a"
        print(f"{name:36} {va:14.6g} {vb:14.6g} {delta} {ma['unit']}")
    same = a["fingerprint"] == b["fingerprint"]
    if a["seed"] == b["seed"] and a["fingerprint"]["complete"]:
        print("fingerprint: " + ("identical (same simulated model)" if same
                                 else "DIFFERENT (the model changed)"))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
