"""Self-test of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) it makes three short traced runs: two at
one seed, which must report identical ``.count`` metrics, and one at another
seed, which must report the same op mix.  A short untraced run completes the
set.  Every run must print a result line with ``correct`` true and exactly
the metrics that BENCHMARK.json lists for its mode.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = {trace: {m["name"] for m in SPEC[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def short_run(workload, seed, trace=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return env, json.loads(lines[-1])


def check_workload(workload):
    problems = []
    env_a, first = short_run(workload, 7)
    _, second = short_run(workload, 7)
    env_c, other = short_run(workload, 8)
    _, untraced = short_run(workload, 7, trace=0)
    for label, trace, result in (("seed 7", 1, first), ("seed 7 again", 1, second),
                                 ("seed 8", 1, other), ("untraced", 0, untraced)):
        if not result["correct"]:
            problems.append(f"{label}: correct is false")
        if set(result["metrics"]) != EXPECTED[trace]:
            problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(result['metrics']) ^ EXPECTED[trace])}")
    counts = {name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
              for name in first["metrics"] if name.endswith(".count")}
    problems += [f"{name} differs between runs at one seed: {a} vs {b}"
                 for name, (a, b) in counts.items() if a != b]
    if env_a["op_mix"] != env_c["op_mix"]:
        problems.append(f"op mix differs between seeds: {env_a['op_mix']} vs {env_c['op_mix']}")
    return problems


def main(names):
    failed = False
    for workload in names or sorted(WORKLOADS):
        problems = check_workload(workload)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
