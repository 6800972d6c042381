"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py [--seconds 8]

For every workload it runs a short timed pass and a short traced pass, and
checks that each result line is well formed and correct, that its metric
names and units are exactly those in BENCHMARK.json, that the self times of
the traced run's layer spans (every span but the per-operation roots) cover
at least 90 % of its wall time, and that without the
program's sources the benchmark fails without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, argv):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_result(spec, workload, trace, seconds):
    code, lines, err = run(ROOT, ["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                                  "--trace", str(trace)])
    problems = []
    if code != 0 or not lines:
        return [f"exit code {code}: {err.strip()[-400:]}"]
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len("detail "):])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or not result["attempted"] >= 1:
        problems.append(f"correct={result['correct']} failed={result['failed']}: {detail['failures']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metric names or units differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name} = {m['value']!r}")
        elif not trace and m["value"] <= 0:
            problems.append(f"end-to-end metric {name} = {m['value']}")
    if trace and not detail["layer_self_over_wall"] >= 0.90:
        problems.append(f"layer span self times are {detail['layer_self_over_wall']:.3f} of the traced wall time")
    return problems


def check_refuses_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/, the run must fail."""
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, lines, _ = run(bare, ["--workload", "desk_train", "--seed", "1", "--seconds", "1", "--trace", "0"])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"ran without sources: exit code {code}, output {lines[-1:]}"]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = 0
    cases = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    for workload, trace in cases:
        problems = check_result(spec, workload, trace, args.seconds)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}" + "".join(f"\n     {p}" for p in problems))
    problems = check_refuses_without_sources()
    failed += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without sources" + "".join(f"\n     {p}" for p in problems))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
