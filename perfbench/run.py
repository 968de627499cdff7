#!/usr/bin/env python3
"""Host-time benchmark of heterolab: build, run one workload, print metrics.

    python3 perfbench/run.py --workload rd_p27|grid_full|svc_restart \
        --seed N --seconds S --trace 0|1

Run from the repository root. Every run configures and builds
perfbench/CMakeLists.txt (the library sources plus the program) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Every store,
socket and report the workload writes lives in a private directory under
the build directory that is removed when the run ends. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rd_p27", "grid_full", "svc_restart")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures and builds the benchmark program; returns its path."""
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "perfbench")


def stop(proc):
    """Kills whatever is left of the program's process group (worker
    processes included), reaps the program and waits until the group is
    gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def check_metrics(result, trace):
    """Checks that the program reported exactly the metrics BENCHMARK.json
    lists for this kind of run, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != listed:
        missing = sorted(set(listed) - set(got))
        extra = sorted(set(got) - set(listed))
        units = sorted(n for n in set(got) & set(listed) if got[n] != listed[n])
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         "missing %s, not listed %s, other unit %s"
                         % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    os.makedirs(os.path.join(build_dir, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(build_dir, "tmp"))
    spans = os.path.join(build_dir, "traces", "%s-seed%d.spans.jsonl" %
                         (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--pins", os.path.join(HERE, "data", "svc_answers.tsv"),
           "--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        stop(proc)
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # The diagnostics, without a result line.
        if lines[-1].startswith("{"):
            lines.pop()
        sys.stdout.write("\n".join(lines) + "\n")
        print("perfbench: %s failed (exit %d)" % (args.workload, proc.returncode),
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    check_metrics(result, args.trace == 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
