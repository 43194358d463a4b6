#!/usr/bin/env python3
"""Builds the polystore benchmark from source, runs one workload, and
prints its metrics: a human-readable table, the run's identity, and as
the last line one JSON object {correct, attempted, failed, metrics}.

    python3 perfbench/run.py --workload icu_interactive --seed 1 \
        --seconds 10 --trace 0 [--smoke]

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
the same load untraced and traced and reports the per-layer metrics plus
the tracing overhead. --smoke shrinks every input to toy size. See
README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
BUILD_TIMEOUT_S = 850
# A run must end within 180 s of its start; the build check takes a few.
RUN_TIMEOUT_S = 170
# An untraced run is several fresh processes on the same inputs, each
# measuring an equal share of --seconds, their samples pooled. Allocator
# state differs per process (see metrics.pool for peak memory); more
# processes where set-up is cheap.
PROCESSES = {"icu_interactive": 4, "analytic_scan": 2, "stream_ageout": 10}


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout carries no git history."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run_logged(cmd, timeout):
    with open(BUILD_LOG, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(sha):
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
                      "-DBIGDAWG_GIT_SHA=" + sha[:12]])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if run_logged(cmd, BUILD_TIMEOUT_S) != 0:
            with open(BUILD_LOG) as log:
                sys.stderr.write("".join(log.readlines()[-30:]))
            die("build failed; see " + BUILD_LOG)


def run_binary(args, seconds, timeout):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % timeout)
    if out.returncode != 0:
        die("perfbench exited with %d" % out.returncode)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size inputs: every path in seconds")
    args = parser.parse_args()

    # Both sides of a comparison must run the shipping defaults.
    overrides = sorted(k for k in os.environ if k.startswith("BIGDAWG_"))
    if overrides:
        die("refusing to run with %s set" % ", ".join(overrides))
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found under %s/src" % ROOT)

    sha = git_sha()
    build(sha)
    if args.trace:
        # One process: its untraced and traced phases split --seconds.
        raw = run_binary(args, args.seconds / 2, RUN_TIMEOUT_S)
    else:
        count = PROCESSES[args.workload]
        raw = metrics.pool([run_binary(args, args.seconds / count, RUN_TIMEOUT_S / count)
                            for _ in range(count)])

    identity = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "git_sha": sha, "source_digest": source_digest(),
                "build_type": raw["build_type"], "compiler": raw["compiler"],
                "nproc": os.cpu_count()}
    phases = raw["phases"]
    untraced = metrics.end_to_end(raw, phases["untraced"])
    attempted = raw["invariant_checks"]
    failed = len(raw["invariant_failures"])
    errors = list(raw["invariant_failures"])
    for phase in phases.values():
        attempted += phase["attempted"]
        failed += phase["failed"] + phase["wrong"]
        errors += phase["errors"]
    correct = failed == 0

    print("identity " + " ".join("%s=%s" % kv for kv in identity.items()))
    print("%-22s %14s  %s" % ("end-to-end", "value", "unit"))
    for name, unit, _, _ in metrics.END_TO_END:
        note = ""
        if name == "query_tail_ms":
            note = "  (p%.2f of %d queries, 10 beyond)" % (untraced["tail_percentile"],
                                                           untraced["queries"])
        elif name == "setup_s":
            note = "  (median of %d set-ups)" % len(raw["setup_s"])
        print("%-22s %14.6g  %s%s" % (name, untraced[name], unit, note))
    units = dict(metrics.REPORTED)
    if "ingest_events_per_s" in untraced:
        print("%-22s %14.6g  %s" % ("ingest_events_per_s", untraced["ingest_events_per_s"],
                                    units["ingest_events_per_s"]))
    print("%-22s %14.6g  %s  (%d of %d)" % ("error_rate", failed / max(1, attempted),
                                            units["error_rate"], failed, attempted))
    for e in errors[:5]:
        print("error: " + e)

    if args.trace:
        traced = metrics.end_to_end(raw, phases["traced"])
        try:
            reported, detail = metrics.per_layer(raw, args.workload, untraced, traced)
        except ValueError as e:
            print("error: %s" % e)
            correct = False
            reported, detail = {n: (0.0, u) for n, u, _, _ in metrics.PER_LAYER}, {}
        for name, (value, unit) in list(reported.items()) + list(detail.items()):
            print("%-40s %14.6g  %s" % (name, value, unit))
    else:
        reported = {name: (untraced[name], unit) for name, unit, _, _ in metrics.END_TO_END}
    print(metrics.result_line(correct, attempted, failed, reported))


if __name__ == "__main__":
    main()
