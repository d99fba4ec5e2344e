#!/usr/bin/env python3
"""Build the omxbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --smoke

The first form prints omxbench's provenance and metric lines, then one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json. The
run is split over PARTS fresh processes, each set up cold (the shared graph
and partition caches live for the whole process, so only a new process sets
up cold) and timed for seconds/PARTS; each metric is the median over the
parts. With --trace 1 one process reports the per-layer metrics.

--smoke runs every workload (including those BENCHMARK.json leaves out) at
a tiny size in both modes and checks the output schema against
BENCHMARK.json, every output check, and that two runs of one seed print the
same digest. It takes well under a minute once built.

Build output goes to stderr and to .bench_build/omxbench; nothing is written
outside the working directory.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build") / "omxbench"
WORK_DIR = BUILD_DIR / "work"
# A --trace 0 run is split over this many processes: timings differ by tens
# of percent from one process to the next on a shared host, so each metric
# is the median over the parts (and setup_s the median of PARTS cold
# set-ups).
PARTS = 5
RUN_TIMEOUT_S = 170
# omxbench workloads kept out of BENCHMARK.json (see README.md); the smoke
# pass still runs them.
UNLISTED_WORKLOADS = ["benor-coinhiding"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (cheap when cached) and build; None if either step fails."""
    steps = [
        ["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "omxbench", "-j2"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(cmd))
            return None
    return BUILD_DIR / "omxbench"


def source_id():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        if out:
            return "git-" + out
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for root in ("src", "perfbench"):
        for path in sorted(Path(root).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def child_env():
    """omxbench's environment, minus settings that would warm or redirect
    what the benchmark measures cold."""
    env = dict(os.environ)
    for key in list(env):
        if key == "OMX_ARTIFACT_CACHE" or key.startswith("OMX_SWEEP_"):
            del env[key]
    return env


def run_binary(binary, args):
    """Run omxbench; return (stdout lines, parsed last line) or None."""
    cmd = [str(binary), "--work-dir", str(WORK_DIR)] + args
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: omxbench timed out: " + " ".join(cmd))
        return None
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        log("run.py: omxbench exited with %d: %s" % (p.returncode,
                                                     " ".join(cmd)))
        return None
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run.py: last line is not JSON: " + lines[-1])
        return None


def run_parts(binary, args, parts, echo):
    """One benchmark run split over `parts` processes, each set up cold and
    timed for seconds/parts. Every metric is the median over the parts.
    Returns (result, digest) or None."""
    results = []
    digests = []
    for part in range(parts):
        got = run_binary(binary, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / parts), "--trace",
            str(args.trace), "--part", str(part), "--parts", str(parts),
            "--source", source_id()] + (["--smoke"] if args.smoke else []))
        if got is None:
            return None
        lines, result = got
        if echo:
            for line in lines[:-1]:
                print(line)
        results.append(result)
        digests += [l.split()[1] for l in lines if l.startswith("digest:")]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
        if echo and parts > 1:
            print("%s: median of %d parts %s" %
                  (name, parts, " ".join("%.6g" % v for v in values)))
    digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }, digest


def measure(binary, args):
    """One benchmark run; returns the process exit code."""
    got = run_parts(binary, args, PARTS if args.trace == 0 else 1, echo=True)
    if got is None:
        return 1
    result, digest = got
    print("digest: %s" % digest)
    print(json.dumps(result))
    return 0


def smoke(binary):
    """Tiny-size pass over every workload, checks and output schema."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    problems = []
    for name in [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS:
        before = len(problems)
        digests = []
        for trace, parts in ((0, 2), (1, 1), (0, 2)):
            args = argparse.Namespace(workload=name, seed=1, seconds=1.0,
                                      trace=trace, smoke=True)
            got = run_parts(binary, args, parts, echo=False)
            if got is None:
                problems.append("%s trace=%d: no result" % (name, trace))
                continue
            result, digest = got
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append("%s trace=%d: checks failed" % (name, trace))
            metrics = result["metrics"]
            if [(k, v["unit"]) for k, v in metrics.items()] != expected[trace]:
                problems.append("%s trace=%d: metrics differ from "
                                "BENCHMARK.json" % (name, trace))
            if trace == 0:
                digests.append(digest)
                if any(v["value"] <= 0 for v in metrics.values()):
                    problems.append("%s: an end-to-end metric is not positive"
                                    % name)
        if len(set(digests)) != 1:
            problems.append("%s: digests differ across runs of one seed: %s"
                            % (name, digests))
        print("smoke %-18s %s" % (name, "ok" if len(problems) == before
                                      else "FAILED"))
    for p in problems:
        print("smoke problem: " + p)
    print("smoke: %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        binary = build()
        return 1 if binary is None else smoke(binary)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    return 1 if binary is None else measure(binary, args)


if __name__ == "__main__":
    sys.exit(main())
