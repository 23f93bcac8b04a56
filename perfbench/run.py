#!/usr/bin/env python3
"""Entry point of the repo benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` binary from the
library sources into `.bench_build/` (or $CARGO_TARGET_DIR when set, taken
relative to the checkout), runs the workload in one child process with no
inherited FOCUS_* settings, checks the child's result line against
BENCHMARK.json and prints it as the last line of stdout. The exit code is
the child's: nonzero when any correctness check failed. Build output goes
to `<build dir>/build.log`; traced runs leave their spans in
`<build dir>/traces/`.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("serve_light", "serve_saturated", "offline_build")

# A first run (configure + full build) must end within 900 s, later runs
# within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(
                    cmd, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                code = str(err)
            if code != 0:
                log.flush()
                sys.stderr.write(Path(log_path).read_text()[-4000:])
                sys.exit(f"perfbench: build step failed ({code}): "
                         f"{' '.join(cmd)}")
    return out / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result line, or exits when it breaks the format."""
    try:
        result = json.loads(line)
    except ValueError:
        sys.exit(f"perfbench: last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"perfbench: unexpected result keys {sorted(result)}")
    got = set(result["metrics"])
    want = expected_metrics(trace)
    if got != want:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(want - got)}, extra {sorted(got - want)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    # perfbench.cc sets every library knob itself (thread counts included):
    # drop inherited FOCUS_* settings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FOCUS_")}

    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             cwd=ROOT)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        sys.exit(f"perfbench: {args.workload} did not finish within "
                 f"{RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    if not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        sys.exit(f"perfbench: {binary.name} exited with {child.returncode} "
                 "and no result")
    result = check_result(lines[-1], args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
