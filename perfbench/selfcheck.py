"""Short run of every workload that checks the benchmark itself.

    python3 perfbench/selfcheck.py

For each workload it runs ``run.py`` for one second untraced and traced and
asserts that every metric of ``BENCHMARK.json`` is printed with its unit,
that ``error_rate`` is 0, and that the per-layer self times sum to no more
than the traced wall time.  It also checks that the benchmark refuses to run,
without printing a result, where only ``BENCHMARK.json`` and ``perfbench/``
exist.  Observations about where time goes are printed, not asserted: they
describe the program, which later changes are meant to move.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS  # noqa: E402


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {message}")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess, what: str) -> dict:
    _require(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    _require(set(res) == {"correct", "attempted", "failed", "metrics"},
             f"{what}: keys {set(res)}")
    _require(res["correct"] is True and res["failed"] == 0,
             f"{what}: wrong reports\n{proc.stdout}")
    _require(isinstance(res["attempted"], int) and res["attempted"] >= 1, what)
    return res


def _check_metrics(res: dict, spec: list[dict], what: str) -> dict:
    got = res["metrics"]
    _require(list(got) == [m["name"] for m in spec], f"{what}: metric names differ")
    for m in spec:
        _require(got[m["name"]]["unit"] == m["unit"], f"{what}: unit of {m['name']}")
        _require(isinstance(got[m["name"]]["value"], (int, float)), f"{what}: {m['name']}")
    return {k: v["value"] for k, v in got.items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _require([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
             "end_to_end in BENCHMARK.json differs from run.END_TO_END")
    _require([(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER,
             "per_layer in BENCHMARK.json differs from run.PER_LAYER")
    _require([w["name"] for w in bench["workloads"]] == list(run.ROUND_SECONDS),
             "workloads in BENCHMARK.json differ from run.ROUND_SECONDS")

    for w in bench["workloads"]:
        name = w["name"]
        base = ("--workload", name, "--seed", "7", "--seconds", "1")
        proc = _run(ROOT, *base, "--trace", "0")
        e2e = _check_metrics(_result(proc, f"{name} trace 0"), bench["end_to_end"], name)
        _require(all(v > 0 for v in e2e.values()), f"{name}: a metric reads 0: {e2e}")
        shown = proc.stdout
        for metric in [m["name"] for m in bench["end_to_end"]] + ["error_rate"]:
            _require(f"  {metric} " in shown, f"{name}: {metric} not printed")
        rate = next(line for line in shown.splitlines() if line.startswith("  error_rate "))
        _require(float(rate.split()[1]) == 0, f"{name}: {rate}")

        proc = _run(ROOT, *base, "--trace", "1")
        layer = _check_metrics(_result(proc, f"{name} trace 1"), bench["per_layer"], name)
        selfs = {lay: layer[f"{lay}.self_s"] for lay in LAYERS}
        total = sum(selfs.values())
        _require(total <= layer["trace.wall_s"],
                 f"{name}: self {total} > wall {layer['trace.wall_s']}")
        top = max(selfs, key=selfs.get)
        print(f"ok {name}: {len(e2e)} end-to-end and {len(layer)} per-layer metrics; "
              f"layer self {total:.2f} s of {layer['trace.wall_s']:.2f} s traced, "
              f"largest {top}, overhead {layer['trace.overhead_ratio']:.1%}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "cli_fixtures", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _require(proc.returncode != 0 and '"metrics"' not in proc.stdout,
             "ran without the program")
    print(f"ok bare directory refused with exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
