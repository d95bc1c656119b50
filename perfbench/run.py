#!/usr/bin/env python3
"""Builds the zonestream benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload admit_churn --seed 1 --seconds 10 --trace 0

Run it from the root of a zonestream source tree. It configures and
builds perfbench/ (which builds the libraries from ../src) as a Release
build under $CARGO_TARGET_DIR (default .bench_build), runs
zonestream_perfbench, and relays its lines. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: every end-to-end metric of BENCHMARK.json with --trace 0, every
per-layer metric with --trace 1. Each per-layer metric belongs to the
workloads listed in LAYER_OWNERS; a traced run that does not report one
of its own fails, and the metrics of other workloads' layers read 0.

Exit status: 0 when every output check passed, 1 when one failed, and
2 when the benchmark cannot run (no source tree, build failure, bad
arguments); no result line is printed then.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Which workloads report a per-layer metric, by name prefix. Every
# per-layer metric of BENCHMARK.json must match one entry.
LAYER_OWNERS = {
    "service.": ["admit_churn"],
    "workload.": ["array_rebuild"],
    "server.": ["array_rebuild"],
    "recovery.": ["array_rebuild"],
    "obs.": ["array_rebuild"],
    "core.": ["bound_audit"],
    "sim.": ["bound_audit"],
    "common.": ["bound_audit"],
    "unattributed_frac": ["admit_churn", "array_rebuild", "bound_audit"],
    "trace.": ["admit_churn", "array_rebuild", "bound_audit"],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_root, env):
    """Configures (once) and builds zonestream_perfbench; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "env": env}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], **quiet).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "zonestream_perfbench", "-j", jobs], **quiet).returncode:
        fail("build failed")
    return os.path.join(build_dir, "zonestream_perfbench")


def owners(name):
    """The workloads that report per-layer metric `name`."""
    for prefix, workloads in LAYER_OWNERS.items():
        if name.startswith(prefix):
            return workloads
    fail(f"per-layer metric {name} has no owning workload in LAYER_OWNERS")


def contract_result(raw, spec, workload, trace):
    """Maps the binary's result onto the metric list of BENCHMARK.json."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    reported = raw["metrics"]
    for name, metric in reported.items():
        if units.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not declared with that "
                 f"unit in BENCHMARK.json")
    own = [name for name in units
           if not trace or workload in owners(name)]
    missing = [name for name in own if name not in reported]
    if missing:
        fail(f"{workload} did not report its metrics: {', '.join(missing)}")
    metrics = {}
    for name, unit in units.items():
        value = reported[name]["value"] if name in reported else 0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: perturb one expected answer")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no zonestream source tree here ({needed} is missing)")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    work_dir = os.path.join(build_root, "run")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(build_root, env)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        fail(f"no result line (exit status {run.returncode})")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(contract_result(raw, spec, args.workload, args.trace)))
    sys.exit(0 if run.returncode == 0 and raw["correct"] else 1)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    main()
