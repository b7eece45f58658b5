#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 tsebench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The benchmark binary is built
with dune (the shared dune cache is disabled, so the build stays inside
the checkout), then run once per workload. Its standard output is passed
through; the last line is one JSON object with the keys correct,
attempted, failed and metrics. With --workload all every workload runs in
its own process and the last line merges their results, metric names
prefixed by the workload. The exit code is 0 only when the build succeeded
and every correctness check passed.
"""

import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["evolve_deep", "views_oltp", "durable_evolve"]
TARGET = "./tsebench/tsebench.exe"
EXE = os.path.join("_build", "default", "tsebench", "tsebench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"tsebench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return None, b""
    return proc.returncode, out


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ".", TARGET], BUILD_TIMEOUT_S, env=env)
    return code == 0 and os.path.exists(EXE)


def run_one(workload, args):
    code, out = run([EXE, "--workload", workload] + args, RUN_TIMEOUT_S, capture=True)
    text = out.decode(errors="replace")
    sys.stdout.write(text)
    sys.stdout.flush()
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return code, result


def main(argv):
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        print(__doc__, file=sys.stderr)
        return 2
    i = argv.index("--workload")
    workload = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    if workload != "all" and workload not in WORKLOADS:
        print(f"tsebench: unknown workload {workload}", file=sys.stderr)
        return 2
    if not build():
        print("tsebench: build failed", file=sys.stderr)
        return 3
    if workload != "all":
        code, _ = run_one(workload, rest)
        return 4 if code is None else code
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in WORKLOADS:
        code, result = run_one(w, rest)
        if code != 0 or result is None:
            status = status or (code if code else 4)
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = metric
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
