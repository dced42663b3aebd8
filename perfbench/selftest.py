#!/usr/bin/env python3
"""Self-test of the serving benchmark.

    python3 perfbench/selftest.py

Run from the repository root; builds the benchmark first if needed.
Checks that:
  * the same seed gives the same request-stream hash and another seed a
    different one, on every workload;
  * every workload prints every metric BENCHMARK.json names, with its
    unit, in both the untraced and the traced run;
  * every metric and workload name matches [A-Za-z0-9_.-]+;
  * one deliberately corrupted answer is counted as an error and makes
    the run exit non-zero.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's build step)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SECONDS = "2"
failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def invoke(*args):
    out = subprocess.run([run.BINARY] + list(args), capture_output=True,
                         text=True, timeout=run.RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, result, out.stdout


def stream_hash(workload, seed):
    code, _, stdout = invoke("--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--stream-hash")
    return stdout.strip() if code == 0 else None


def metrics_match(result, expected):
    if not isinstance(result, dict):
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return False
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            return False
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
    return True


def main():
    if not run.build():
        print("FAIL build")
        return 1
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    names = workloads + list(end_to_end) + list(per_layer)
    bad = [n for n in names if not NAME.match(n)]
    check(not bad and len(set(names)) == len(names),
          "metric and workload names match [A-Za-z0-9_.-]+ and are unique %s"
          % (bad or ""))

    for workload in workloads:
        first, again, other = (stream_hash(workload, 1), stream_hash(workload, 1),
                               stream_hash(workload, 2))
        check(first is not None and first == again,
              "%s: same seed, same request-stream hash" % workload)
        check(first is not None and first != other,
              "%s: another seed, another request-stream hash" % workload)

    for workload in workloads:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            code, result, stdout = invoke("--workload", workload, "--seed", "7",
                                          "--seconds", SECONDS, "--trace", trace)
            ok = (code == 0 and metrics_match(result, expected)
                  and result["correct"] is True and result["failed"] == 0)
            check(ok, "%s --trace %s: exits 0, answers correct, prints every "
                  "metric with its unit" % (workload, trace))
            if not ok:
                print("  exit %d; output ends:\n  %s" % (
                    code, "\n  ".join(stdout.strip().splitlines()[-6:])[:3000]))

    # point checks answers on arrival; grid checks one-off answers after
    # the phase, by block sums.
    for workload in ("point", "grid"):
        code, result, _ = invoke("--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--corrupt-one")
        check(code == 1 and result is not None and result["correct"] is False
              and result["failed"] >= 1,
              "%s: a corrupted answer is counted as an error and fails the run"
              % workload)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
