#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload gc_churn --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload gc_churn --seed 1 --seconds 20 --trace 1
  python3 perfbench/run.py --calibrate --workload gc_churn --seed 1
  python3 perfbench/run.py --selftest

The offered rate of each workload is the number after "offered" in its
`why` line in BENCHMARK.json; nothing else sets it. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of stdout is the result object; the line before it holds provenance, the
simulated-clock detail and each metric's better direction.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

RUN_TIMEOUT_S = 170
RATE_RE = re.compile(r"\boffered ([0-9]+(?:\.[0-9]+)?) req/s\b")


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_benchmark(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def offered_rate(bench, workload):
    for w in bench["workloads"]:
        if w["name"] == workload:
            m = RATE_RE.search(w["why"])
            if not m:
                fail(f"workload {workload}: no 'offered N req/s' in its why line")
            return m.group(1)
    fail(f"unknown workload {workload}")


def build(root):
    src = os.path.join(root, "perfbench")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    out = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out, os.path.join(out, "perfbench")


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"  # Not a git checkout; source_digest identifies the sources.
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest(root):
    """sha256 over the simulator and benchmark sources (checkouts carry no git sha)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(cmd):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: " + " ".join(cmd))
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"no output (exit {r.returncode}): " + " ".join(cmd))
    try:
        return r.returncode, json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1][:200])


def check_metrics(bench, result, trace):
    """Every metric BENCHMARK.json names for this mode, with its unit, and nothing else."""
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    problems = []
    for name, unit in wanted.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name}: unit {got[name].get('unit')} != {unit}")
        elif not isinstance(got[name].get("value"), (int, float)) or \
                not math.isfinite(got[name]["value"]):
            problems.append(f"metric {name}: value is not a finite number")
    problems += [f"metric {n} is not in BENCHMARK.json" for n in got if n not in wanted]
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--calibrate", action="store_true",
                   help="measure saturated capacity and check the frozen rate")
    p.add_argument("--selftest", action="store_true", help="run the program's own unit checks")
    args = p.parse_args()

    root = os.getcwd()
    bench = load_benchmark(root)
    out_dir, binary = build(root)
    if args.selftest:
        code, result = run_binary([binary, "--selftest"])
        print(json.dumps(result))
        return code
    if not args.workload:
        fail("--workload is required")
    rate = offered_rate(bench, args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--rate", rate,
           "--git-sha", git_sha(root), "--source-digest", source_digest(root)]
    if args.calibrate:
        code, result = run_binary(cmd + ["--calibrate"])
        print(json.dumps(result))
        return code
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")]
    code, result = run_binary(cmd)
    # Exit 1 with "correct": false is a failed correctness gate: the result is
    # still printed, and the run fails. Any other nonzero exit is a crash.
    if code != 0 and not (code == 1 and result.get("correct") is False):
        fail(f"perfbench exited with {code}")
    problems = check_metrics(bench, result, args.trace)
    if problems:
        fail("; ".join(problems))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"provenance": result["provenance"], "detail": result["detail"],
                      "failures": result["failures"],
                      "better": {m["name"]: m["better"] for m in declared}}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] is True else 1


if __name__ == "__main__":
    sys.exit(main())
