#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload.

    python3 perfbench/selftest.py

Run from the root of the source tree. It checks that

* an untraced run prints every end-to-end metric of BENCHMARK.json, and a
  traced run every per-layer metric, each with its declared unit, in the
  last line; the metrics the workload itself reports (all end-to-end ones,
  and the per-layer ones run.py's LAYER_OWNERS gives it) also appear as a
  human-readable `metric` line with unit and sample count;
* run.py refuses a traced result that lacks one of the workload's own
  per-layer metrics, instead of reading it as 0;
* a run whose expected answer is corrupted (--corrupt-expected) fails its
  output check: it exits nonzero and reports "correct": false;
* a directory holding only BENCHMARK.json and perfbench/ makes run.py
  exit nonzero without printing a result.

Exit status 0 when all hold, 1 otherwise.
"""
import importlib.util
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", SECONDS,
               "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return done.returncode, done.stdout.rstrip("\n").split("\n")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    run_module = load_run_module()

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(code == 0, f"{label} exits 0 (got {code})")
            try:
                result = json.loads(lines[-1])
            except ValueError:
                expect(False, f"{label} ends with a JSON result line")
                continue
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label} result has exactly the contract keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{label} is correct with at least one op")
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{label} reports every declared metric with "
                                 f"its unit")
            own = [name for name in units
                   if trace == 0 or workload in run_module.owners(name)]
            unprinted = [name for name in own if not any(
                line.startswith(f"metric {name} ") and
                f" {units[name]} " in line and " n=" in line
                for line in lines)]
            expect(not unprinted,
                   f"{label} prints its own {len(own)} metrics with unit and "
                   f"sample count (missing: {', '.join(unprinted) or 'none'})")
            if trace == 1:
                dropped = {name: result["metrics"][name] for name in own[1:]}
                try:
                    run_module.contract_result(
                        dict(result, metrics=dropped), spec, workload, trace)
                    refused = False
                except SystemExit:
                    refused = True
                expect(refused, f"{label}: run.py refuses a result without "
                                f"its own metric {own[0]}")

        code, lines = run(workload, 0, "--corrupt-expected")
        try:
            correct = json.loads(lines[-1])["correct"]
        except (ValueError, KeyError):
            correct = None
        expect(code != 0 and correct is False,
               f"{workload}: a corrupted expected answer fails the output "
               f"check (exit {code}, correct {correct})")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(spec["workloads"][0]["name"], 0, cwd=bare)
    expect(code != 0 and not lines[-1].startswith("{"),
           "a directory with only the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    main()
