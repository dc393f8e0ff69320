"""Scaling sweep: fan validation and the verdicts on families of growing fans.

Run from the repository root (the test suite does not collect this file):

    PYTHONPATH=src python scripts/scaling.py [--out BENCH_scaling.json]

Families and sizes:

* ``orthant``: two 3-ray orthant cones cone(e1, e2, e3) and cone(e3, e4, e5)
  in Z^l, l = 8, 12, 18, 24, with beta the identity of Z^l;
* ``p1_cox``: Cox data of (P^1)^m, m = 3..6: 2^m orthant cones of m rays in
  Z^2m, beta sending e_2j and e_2j+1 to +e_j and -e_j of Z^m;
* ``p1_variety``: the variety fan of (P^1)^m, m = 3..6: the 2^m orthants of
  Z^m, rays +-e_j, with beta the identity of Z^m (validation only; its
  rays are dependent, so ``validate_fan`` decides pairs by separating
  functionals, and the ``intersect_cones`` calls count the pairs left over);
* ``kgon``: the fantastack of the cone over the lattice k-gon, k = 7, 10,
  16: one k-ray cone in Z^k, beta sending e_i to (1, i, i^2);
* ``p1_morphism``: the morphism from the ``p1_cox`` data to the toric
  variety (P^1)^m, m = 3..6: Phi is the Cox beta, phi the identity of Z^m,
  and the target fan has 2^m maximal cones out of 3^m;
* ``g1_tail``: seeded beta of rank l = 10, 14, 18, 20, 24 into Z^(l/3) + Z/d
  (entries in [-99, 99], d from 45, 60, 210) over two orthant cones, the
  shape of the larger ``group_algebra`` requests.  The size is (l, seed)
  with seeds 0..7, each a row of its own, so a seed whose cost depends on
  its entries more than on l shows as a tail (every ``gbeta`` row took 3
  to 15 ms in one sweep, CPython 3.11 on x86-64);
* ``cox_zero``: the zero cone of Z^l, l = 64, 128, 256 (up to the largest
  rank the CLI accepts): the canonical stack complements an empty ray span
  by all of Z^l.

Two measurements per size, for the stacky fans:

* ``validate``: load the maximal cones from their rays (as the CLI loader
  does) and run ``validate_fan``;
* ``gms``: the in-process CLI call ``gms --input <file> --json``;

for the morphisms, the in-process CLI calls ``iso`` and ``gms-check``
(each loads and validates both fans), where every verdict must be "yes";
for ``g1_tail`` the in-process CLI calls ``gbeta``, ``split`` and
``canonical`` (each with ``--json``), and for ``cox_zero`` the call
``cox``, each of which must exit 0.

Each measurement runs five times, or fewer once the runs of one size have
taken 20 s; every function cache of the package is cleared before each
run.  The output records, per size, the median wall
time, the number of runs and, for one run, the number of calls of the
family's counted functions: ``halfspace_intersection`` (and for
``p1_variety`` also ``intersect_cones``), or for ``g1_tail``
and ``cox_zero`` ``hermite_row_form`` and ``snf`` (every binding in the
package is counted).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from stackyfans import cli, polyhedral, zlinalg


def _unit(n: int, i: int) -> list[int]:
    return [int(k == i) for k in range(n)]


def _orthant(ell: int) -> dict:
    return {"lattice_rank": ell,
            "fan": {"maximal_cones": [[_unit(ell, i) for i in (0, 1, 2)],
                                      [_unit(ell, i) for i in (2, 3, 4)]]},
            "target": {"rank": ell, "torsion": []},
            "beta_images": [_unit(ell, i) for i in range(ell)]}


def _p1_cox(m: int) -> dict:
    cones = [[_unit(2 * m, 2 * j + bit) for j, bit in enumerate(bits)]
             for bits in itertools.product((0, 1), repeat=m)]
    images = [[s * x for x in _unit(m, j)] for j in range(m) for s in (1, -1)]
    return {"lattice_rank": 2 * m, "fan": {"maximal_cones": cones},
            "target": {"rank": m, "torsion": []}, "beta_images": images}


def _p1_variety(m: int) -> dict:
    cones = [[[s * x for x in _unit(m, j)] for j, s in enumerate(signs)]
             for signs in itertools.product((1, -1), repeat=m)]
    return {"lattice_rank": m, "fan": {"maximal_cones": cones},
            "target": {"rank": m, "torsion": []},
            "beta_images": [_unit(m, j) for j in range(m)]}


def _p1_morphism(m: int) -> dict:
    source = _p1_cox(m)
    return {"source": source, "target": _p1_variety(m), "Phi_images": source["beta_images"],
            "phi_images": [_unit(m, j) for j in range(m)]}


def _kgon(k: int) -> dict:
    return {"lattice_rank": k, "fan": {"maximal_cones": [[_unit(k, i) for i in range(k)]]},
            "target": {"rank": 3, "torsion": []},
            "beta_images": [[1, i, i * i] for i in range(k)]}


def _g1_tail(size: tuple[int, int]) -> dict:
    ell, seed = size
    rng = random.Random(seed)
    f = ell // 3
    rows = [[rng.randint(-99, 99) for _ in range(ell)] for _ in range(f + 1)]
    doc = _orthant(ell)
    doc["target"] = {"rank": f, "torsion": [rng.choice((45, 60, 210))]}
    doc["beta_images"] = [list(col) for col in zip(*rows)]
    return doc


def _cox_zero(ell: int) -> dict:
    return {"lattice_rank": ell, "fan": {"maximal_cones": [[]]}}


REPEATS = 5
BUDGET_S = 20.0

STACKY_FAN = ("validate", "gms")
MORPHISM = ("iso", "gms-check")
DD = (polyhedral.halfspace_intersection,)
FORMS = (zlinalg.hermite_row_form, zlinalg.snf)
FAMILIES = {
    "orthant": (_orthant, (8, 12, 18, 24), STACKY_FAN, DD),
    "p1_cox": (_p1_cox, (3, 4, 5, 6), STACKY_FAN, DD),
    "p1_variety": (_p1_variety, (3, 4, 5, 6), ("validate",),
                   DD + (polyhedral.intersect_cones,)),
    "kgon": (_kgon, (7, 10, 16), STACKY_FAN, DD),
    "p1_morphism": (_p1_morphism, (3, 4, 5, 6), MORPHISM, DD),
    "g1_tail": (_g1_tail, [(ell, seed) for ell in (10, 14, 18, 20, 24) for seed in range(8)],
                ("gbeta", "split", "canonical"), FORMS),
    "cox_zero": (_cox_zero, (64, 128, 256), ("cox",), FORMS),
}


def _clear_caches() -> None:
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("stackyfans."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _validate(doc: dict, path: Path) -> None:
    rank = doc["lattice_rank"]
    fan = polyhedral.Fan(rank, tuple(
        polyhedral.canonicalize_cone([tuple(r) for r in rays], ambient_rank=rank)
        for rays in doc["fan"]["maximal_cones"]))
    if not polyhedral.validate_fan(fan).valid:
        raise SystemExit(f"{path}: the fan does not validate")


def _command(command: str, verdict: bool = True):
    def task(doc: dict, path: Path) -> None:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.run_command([command, "--input", str(path), "--json"])
        if code != 0 or (verdict and not json.loads(out.getvalue())["verdict"]):
            raise SystemExit(f"{path}: {command} failed (exit {code})")
    return task


TASKS = {"validate": _validate, "gms": _command("gms"), "iso": _command("iso"),
         "gms-check": _command("gms-check"),
         **{name: _command(name, verdict=False) for name in ("gbeta", "split", "canonical", "cox")}}


@contextlib.contextmanager
def _counting(functions):
    """Count calls of each function through every package binding of it."""
    calls = dict.fromkeys((fn.__name__ for fn in functions), 0)
    patched = []

    def wrap(fn):
        def counting(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counting

    for fn in functions:
        counting = wrap(fn)
        for name, module in list(sys.modules.items()):
            if name.startswith("stackyfans"):
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        patched.append((module, attr, obj))
                        setattr(module, attr, counting)
    try:
        yield calls
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def _measure(task, doc: dict, path: Path, counted) -> dict:
    times, counts = [], {}
    while len(times) < REPEATS and sum(times) < BUDGET_S:
        _clear_caches()
        with _counting(() if times else counted) as calls:
            t0 = time.perf_counter()
            task(doc, path)
            times.append(time.perf_counter() - t0)
        counts = counts or calls
    return {"median_s": statistics.median(times), "runs": len(times),
            **{f"{name}_calls": n for name, n in counts.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_scaling.json")
    args = ap.parse_args(argv)
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "repeats": REPEATS, "budget_s": BUDGET_S, "families": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for family, (build, sizes, tasks, counted) in FAMILIES.items():
            rows = report["families"][family] = []
            for k, size in enumerate(sizes):
                doc = build(size)
                path = Path(tmp) / f"{family}_{k}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                row = {"size": size}
                for name in tasks:
                    row[name] = _measure(TASKS[name], doc, path, counted)
                rows.append(row)
                print(f"{family} {size}: " + ", ".join(
                    f"{name} {row[name]['median_s']:.4f} s" for name in tasks), file=sys.stderr)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
