"""stackyfans benchmark: one workload per fresh interpreter, one closed-loop client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fan_verdicts --seed 1 --seconds 20 --trace 0

Every request goes through the public entry point
``stackyfans.cli.run_command`` in this process, with ``--json``, and every
report is checked against an answer fixed by construction (see
``workloads.py``).  The loop runs whole rounds until ``--seconds`` have
been spent inside ``run_command``, so each run sees the same mix of size
classes.  Times are wall-clock time inside ``run_command``; checking a
report happens between requests and is not timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
untraced for half the time, then replays exactly those requests with every
public layer function wrapped (``tracer.py``), prints the per-layer metrics
and the tracing overhead, and writes the spans to ``.perfbench_out/``.
Both runs start with cold caches.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# one round's wall time today, used only to decide how many distinct
# rounds to generate: five times the rounds a run needs at this speed
ROUND_SECONDS = {"fan_verdicts": 12.0, "group_algebra": 5.0, "cli_fixtures": 2.0}
SETUP_REPEATS = 9

END_TO_END = [
    ("throughput_rps", "requests/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("largest_size_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# functions whose calls and self time are reported, by layer: every public
# function a command can reach.  The ones no command calls (saturation_index,
# direct_sum, ext1, induced_g0_hom, induced_g1_hom, verify_exact,
# irrelevant_monomials, main) are traced too and count in their layer's
# self_s, but get no metrics of their own, which keeps the list within 128.
TRACED_FUNCTIONS = {
    "zlinalg": ["snf", "hermite_row_form", "cokernel_presentation", "saturate",
                "solve_integer", "kernel_basis", "unimodular_inverse", "rank",
                "determinant", "column_space_basis", "reduce_mod_row_lattice",
                "normalized_group"],
    "fgab": ["mapping_cone_dual", "analyze_hom", "free_group", "identity_hom"],
    "polyhedral": ["faces", "all_cones", "preimage_fan", "halfspace_intersection",
                   "validate_fan", "cone_contains", "canonicalize_cone",
                   "intersect_cones", "minimal_face_containing", "cone_contains_all",
                   "image_cone", "monoid_iso_on_cone", "is_unstable", "is_smooth_cone",
                   "fan_rays", "primitive"],
    "stacky": ["present_quotient", "split_torus_factor", "validate_morphism",
               "validate_stacky_fan", "gbeta", "reduce_nonstrict", "is_strict"],
    "constructions": ["gms_construct", "is_isomorphism", "gms_check",
                      "canonical_stack", "cox_presentation", "fantastack",
                      "moduli_description", "gerbe_decomposition"],
    "cli": ["run_command", "render_fan_svg"],
}

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in tracing.LAYERS]
    + [(f"{layer}.{fn}.{kind}", unit)
       for layer, fns in TRACED_FUNCTIONS.items() for fn in fns
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("polyhedral.faces.useful_ratio", "ratio"),
       ("polyhedral.all_cones.repeat_ratio", "ratio"),
       ("polyhedral.dual_data.hit_ratio", "ratio"),
       ("polyhedral.dual_data.entries", "count"),
       ("fgab.g1_data.hit_ratio", "ratio"),
       ("zlinalg.max_coeff_digits", "digits"),
       ("cli.self_share", "ratio"),
       ("trace.overhead_ratio", "ratio"),
       ("trace.wall_s", "s"),
       ("trace.spans", "count")]
)

# caches read through cache_info(): metric prefix -> (module, function)
CACHES = {"polyhedral.dual_data": ("polyhedral", "_dual_data"),
          "fgab.g1_data": ("fgab", "_g1_data")}


def _generate(name: str, seed: int, seconds: float, work: Path) -> workloads.Workload:
    rounds = max(2, math.ceil(5 * seconds / ROUND_SECONDS[name]))
    if name == "cli_fixtures":
        return workloads.cli_fixtures(seed, ROOT / "fixtures", rounds)
    return getattr(workloads, name)(seed, work, rounds)


_SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import stackyfans.cli
with open(sys.argv[2]) as fh:
    paths = fh.read().split("\\n")
for p in paths:
    with open(p) as fh:
        json.load(fh)
"""


def measure_setup(work: Path, inputs: list[Path]) -> float:
    """Median wall time of fresh interpreters importing the CLI and loading inputs."""
    manifest = work / "inputs.txt"
    manifest.write_text("\n".join(str(p) for p in inputs))
    argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(manifest)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120)
        if i:  # the first run may compile bytecode
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class LoopResult:
    latencies_ms: list[float] = field(default_factory=list)
    largest_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    busy_s: float = 0.0
    rounds: int = 0


def run_loop(rounds: list, seconds: float, run_command, max_rounds: int | None = None,
             tracer: tracing.Tracer | None = None) -> LoopResult:
    """Closed loop, one client: whole rounds until `seconds` of requests (or `max_rounds`).

    Each report is checked right after its request, outside the timed call,
    and then dropped, so neither check time nor kept reports show in the
    timings or in peak memory.
    """
    res = LoopResult()
    clock = time.perf_counter_ns
    busy_ns = 0
    while True:
        for req in rounds[res.rounds % len(rounds)]:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.request = len(res.latencies_ms) + 1
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                code = run_command(req.argv)
                t1 = clock()
            busy_ns += t1 - t0
            res.latencies_ms.append((t1 - t0) / 1e6)
            if req.largest:
                res.largest_ms.append((t1 - t0) / 1e6)
            try:
                why = req.check(code, out.getvalue())
            except (ValueError, KeyError, TypeError, IndexError) as e:
                why = f"unreadable report: {type(e).__name__}: {e}"
            if why is not None:
                res.problems.append(f"{' '.join(req.argv)}: {why}")
        res.rounds += 1
        if (res.rounds >= max_rounds) if max_rounds is not None else busy_ns >= seconds * 1e9:
            break
    res.busy_s = busy_ns / 1e9
    return res


def _nearest_rank(sorted_values: list, pct: float):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int, wanted: float) -> float:
    """`wanted`, lowered until at least ten of n samples lie beyond it."""
    for pct in (wanted, 99.0, 95.0, 90.0, 85.0, 75.0, 50.0):
        if pct <= wanted and n - math.ceil(pct / 100 * n) >= 10:
            return pct
    return 50.0


def end_to_end(loop: LoopResult, tail_pct: float, classes: str) -> tuple[dict, list[str]]:
    lat = sorted(loop.latencies_ms)
    pct = tail_percentile(len(lat), tail_pct)
    beyond = len(lat) - math.ceil(pct / 100 * len(lat))
    values = {
        "throughput_rps": len(lat) / loop.busy_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": _nearest_rank(lat, pct),
        "largest_size_p50_ms": statistics.median(loop.largest_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"latency samples {len(lat)}; tail is p{pct:g} with {beyond} beyond it; "
             f"largest size class ({classes}) {len(loop.largest_ms)} samples"]
    return values, notes


def _cache(modules, key: str):
    """The lru_cache behind a cache metric, or None once the program drops it."""
    mod, fn = CACHES[key]
    cached = getattr(modules[mod], fn, None)
    return cached if hasattr(cached, "cache_info") else None


def _cache_snapshot(modules) -> dict:
    out = {}
    for key in CACHES:
        cached = _cache(modules, key)
        info = cached.cache_info() if cached else None
        out[key] = (info.hits, info.misses, info.currsize) if info else (0, 0, 0)
    return out


def per_layer(tr: tracing.Tracer, wall: float, untraced: float, before: dict,
              after: dict) -> dict:
    calls, self_s = tr.totals()
    values = {}
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = sum(v for n, v in self_s.items()
                                        if n.split(".")[0] == layer)
    for layer, fns in TRACED_FUNCTIONS.items():
        for fn in fns:
            values[f"{layer}.{fn}.calls"] = calls.get(f"{layer}.{fn}", 0)
            values[f"{layer}.{fn}.self_s"] = self_s.get(f"{layer}.{fn}", 0.0)
    tried = sum(n * 2 ** tr.faces_facets[k] for k, n in tr.faces_calls.items())
    values["polyhedral.faces.useful_ratio"] = tr.faces_found / tried if tried else 0.0
    values["polyhedral.all_cones.repeat_ratio"] = (
        tr.all_cones_repeats / tr.all_cones_calls if tr.all_cones_calls else 0.0)
    for key in CACHES:
        hits = after[key][0] - before[key][0]
        looked = hits + after[key][1] - before[key][1]
        values[f"{key}.hit_ratio"] = hits / looked if looked else 0.0
    values["polyhedral.dual_data.entries"] = after["polyhedral.dual_data"][2]
    values["zlinalg.max_coeff_digits"] = tracing.decimal_digits(tr.max_coeff)
    total_self = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    values["cli.self_share"] = values["cli.self_s"] / total_self if total_self else 0.0
    values["trace.overhead_ratio"] = wall / untraced - 1
    values["trace.wall_s"] = wall
    values["trace.spans"] = tr.span_count()
    return values


def _print_table(values: dict, units: list[tuple[str, str]]) -> None:
    for name, unit in units:
        print(f"  {name:<44} {values[name]:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stackyfans" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"no stackyfans checkout at {ROOT} (need src/stackyfans and fixtures/)",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    wl = _generate(args.workload, args.seed, args.seconds, work)
    setup = measure_setup(work, wl.inputs) if args.trace == 0 else None
    sys.path.insert(0, str(SRC))
    import stackyfans.cli  # noqa: E402
    modules = {name: sys.modules[f"stackyfans.{name}"] for name in tracing.LAYERS}

    loop = run_loop(wl.rounds, args.seconds * (0.5 if args.trace else 1),
                    stackyfans.cli.run_command)
    print(f"workload {args.workload} seed {args.seed}: {len(loop.latencies_ms)} requests, "
          f"{loop.rounds} rounds, {loop.busy_s:.3f} s in run_command untraced")
    problems, attempted = loop.problems, len(loop.latencies_ms)
    if args.trace == 0:
        classes = ", ".join(sorted({r.size_class for rnd in wl.rounds for r in rnd if r.largest}))
        values, notes = end_to_end(loop, wl.tail_pct, classes)
        values["setup_s"] = setup
        units = END_TO_END
    else:
        for key in CACHES:
            cached = _cache(modules, key)
            if cached:
                cached.cache_clear()
            else:
                print(f"  {key}: no such cache in this program, its metrics read 0")
        tr = tracing.Tracer()
        tr.install()
        before = _cache_snapshot(modules)
        try:
            traced = run_loop(wl.rounds, 0, stackyfans.cli.run_command,
                              max_rounds=loop.rounds, tracer=tr)
        finally:
            tr.uninstall()
        after = _cache_snapshot(modules)
        values = per_layer(tr, traced.busy_s, loop.busy_s, before, after)
        out = ROOT / ".perfbench_out" / f"spans-{args.workload}.bin"
        tr.write(out)
        notes = [f"traced replay {traced.busy_s:.3f} s, overhead "
                 f"{values['trace.overhead_ratio']:.1%}, {tr.span_count()} spans written "
                 f"to {out.relative_to(ROOT)}"]
        problems = problems + traced.problems
        attempted += len(traced.latencies_ms)
        units = PER_LAYER

    for p in problems[:20]:
        print("WRONG " + p)
    print(f"  {'error_rate':<44} {len(problems) / attempted:>14.6g} ratio "
          f"({len(problems)} of {attempted})")
    _print_table(values, units)
    for n in notes:
        print("  " + n)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
