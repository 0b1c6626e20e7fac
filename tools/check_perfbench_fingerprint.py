#!/usr/bin/env python3
"""Check a perfbench run's simulated-result fingerprint against the pin.

    python3 perfbench/run.py --workload mgmt_churn --seed 1 --seconds 3 \\
        --trace 0 > run.log
    python3 tools/check_perfbench_fingerprint.py mgmt_churn run.log

The fingerprint covers a fixed prefix of the workload's operations
(simulated ticks, instructions, misses, latencies and a digest of every
result), so it must equal the pinned one whatever the host speed. Exits
0 when it does, 1 when it differs or the run never completed the
prefix, 2 on bad input. A deliberate model change updates
tests/golden/perfbench_fingerprints.json and states the cause.
"""

import json
import pathlib
import sys

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent / "tests" /
          "golden" / "perfbench_fingerprints.json")
PREFIX = "fingerprint "


def main(argv):
    if len(argv) != 3:
        print("usage: check_perfbench_fingerprint.py WORKLOAD LOG",
              file=sys.stderr)
        return 2
    workload, log_path = argv[1], argv[2]
    pinned = json.loads(GOLDEN.read_text())["workloads"].get(workload)
    if pinned is None:
        print(f"no pinned fingerprint for {workload} in {GOLDEN.name}",
              file=sys.stderr)
        return 2
    lines = [line[len(PREFIX):]
             for line in pathlib.Path(log_path).read_text().splitlines()
             if line.startswith(PREFIX)]
    if len(lines) != 1:
        print(f"{log_path}: expected one fingerprint line, found "
              f"{len(lines)}", file=sys.stderr)
        return 2
    got = json.loads(lines[0])
    if not got.get("complete"):
        print(f"{workload}: fingerprint incomplete (the run ended before "
              f"its prefix): {lines[0]}")
        return 1
    if got != pinned:
        print(f"{workload}: fingerprint differs from {GOLDEN.name}")
        for key in sorted(set(got) | set(pinned)):
            if got.get(key) != pinned.get(key):
                print(f"  {key}: pinned {pinned.get(key)!r}, "
                      f"got {got.get(key)!r}")
        return 1
    print(f"{workload}: fingerprint matches {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
