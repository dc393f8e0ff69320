"""Seeded input generators and expected answers for the three workloads.

Nothing here imports ``stackyfans``: inputs are written as plain JSON files
and every expected answer is fixed by construction or computed with
:mod:`intmath`, so caches start cold and a wrong report cannot agree with
itself.

A workload is a list of rounds.  A round is a fixed composition of size
classes and commands, in a seeded order, so that whole rounds give the same
mix on every seed and every machine.  The runner always finishes the round
it is in.

Size cuts (the largest sizes kept, and why):

* ``fan_verdicts``: ``gms`` on the k-gon fantastack stops at k = 7
  (1.8 s); k = 8 takes 8.5 s and k = 10 takes 183 s, because ``faces``
  enumerates 2^#facets subsets.  Cox data stop at (P^1)^4 and P^5.
* ``group_algebra``: lattice rank stops at 18; ``gbeta`` at rank 20 takes
  11 s and at rank 24 runs over 10 min (Hermite-form coefficient growth).
  At ranks 16 and 18 the target has one torsion number: with two or three,
  about one beta in eight takes 1-8 s there, which no run of a few tens of
  seconds can sample steadily.  Ranks 8-14 use one to three torsion numbers.

The blowups still show inside the kept ranges through ``largest_size_p50_ms``
and ``zlinalg.max_coeff_digits``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable, Optional

import intmath

Check = Callable[[int, str], Optional[str]]


@dataclass
class Request:
    argv: list[str]
    size_class: str
    largest: bool
    check: Check


@dataclass
class Workload:
    rounds: list[list[Request]]
    inputs: list[Path]
    # percentile reported as the tail; a run too short to have ten samples
    # beyond it reports a lower one
    tail_pct: float


def _unit(n: int, i: int) -> list[int]:
    return [1 if k == i else 0 for k in range(n)]


def _random_unimodular(rng: random.Random, n: int,
                       ops: int) -> tuple[list[list[int]], list[list[int]]]:
    """A unimodular matrix from elementary operations, with its inverse."""
    a = intmath.identity(n)
    ainv = intmath.identity(n)
    for _ in range(ops if n else 0):
        i = rng.randrange(n)
        if n == 1 or rng.random() < 0.2:
            a[i] = [-x for x in a[i]]
            for r in ainv:
                r[i] = -r[i]
            continue
        j = rng.choice([k for k in range(n) if k != i])
        c = rng.choice((-1, 1))
        # a <- E a with E = I + c e_ij; ainv <- ainv E^-1, E^-1 = I - c e_ij
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for r in ainv:
            r[j] -= c * r[i]
    if intmath.matmul(a, ainv, n) != intmath.identity(n):
        raise RuntimeError("unimodular generator produced a wrong inverse")
    return a, ainv


def _apply(m: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _fan_key(cones) -> list:
    return sorted(sorted(tuple(r) for r in c) for c in cones)


def _expect_json(want: dict) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)
        if got != want:
            return f"report {got} != expected {want}"
        return None
    return check


# ---------------------------------------------------------------------------
# fan_verdicts


def _p1_power(m: int):
    rays = [[s if k == j else 0 for k in range(m)] for j in range(m) for s in (1, -1)]
    cones = [[2 * j + bit for j, bit in enumerate(bits)]
             for bits in itertools.product((0, 1), repeat=m)]
    return m, rays, cones


def _projective(n: int):
    rays = [_unit(n, j) for j in range(n)] + [[-1] * n]
    return n, rays, [list(c) for c in itertools.combinations(range(n + 1), n)]


def _cox_case(rng: random.Random, data, tag: str, largest: bool, d: Path) -> list[Request]:
    """iso, gms-check and gms on Cox data of a smooth complete fan.

    The fan is moved by a random element of GL_n(Z) and its rays relabelled,
    so every request sees new inputs.  Expected: the Cox stack is isomorphic
    to the variety, the variety is its good moduli space, and the
    constructed moduli fan is the fan itself.
    """
    n, rays, cones = data
    a, _ = _random_unimodular(rng, n, 3)
    order = list(range(len(rays)))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    rays_t = [_apply(a, rays[old]) for old in order]
    cones_t = [sorted(pos[i] for i in c) for c in cones]
    r = len(rays_t)
    ident = [_unit(n, j) for j in range(n)]
    cox = {"lattice_rank": r,
           "fan": {"maximal_cones": [[_unit(r, i) for i in c] for c in cones_t]},
           "target": {"rank": n, "torsion": []}, "beta_images": rays_t}
    variety = {"lattice_rank": n,
               "fan": {"maximal_cones": [[rays_t[i] for i in c] for c in cones_t]},
               "target": {"rank": n, "torsion": []}, "beta_images": ident}
    mor = {"source": cox, "target": variety, "Phi_images": rays_t, "phi_images": ident}
    mor_path = _write(d / f"{tag}_mor.json", mor)
    cox_path = _write(d / f"{tag}_cox.json", cox)
    want_fan = _fan_key(variety["fan"]["maximal_cones"])

    def gms_ok(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)
        if not got["verdict"] or got["tau"] != [] or got["gms"]["lattice_rank"] != n:
            return f"gms verdict {got['verdict']} tau {got['tau']}"
        if _fan_key(got["gms"]["maximal_cones"]) != want_fan:
            return "gms fan differs from the input fan"
        if got["Phi_images"] != rays_t or got["phi_images"] != ident:
            return "gms morphism differs from the Cox map"
        return None

    size = tag.split("_")[0]
    return [
        Request(["iso", "--input", mor_path, "--json"], size, largest, _expect_json(
            {"verdict": True, "failing_condition": None, "witness_cone": None})),
        Request(["gms-check", "--input", mor_path, "--json"], size, largest, _expect_json(
            {"verdict": True, "failing_condition": None, "tau": []})),
        Request(["gms", "--input", cox_path, "--json"], size, largest, gms_ok),
    ]


def _kgon_case(rng: random.Random, k: int, tag: str, largest: bool, d: Path) -> Request:
    """gms on the fantastack of the cone over the lattice k-gon (1, i, i^2).

    Expected: the moduli fan is the k-gon cone itself, whose k rays are the
    (moved) marked points, all primitive and extreme.
    """
    a, _ = _random_unimodular(rng, 3, 3)
    pts = [_apply(a, [1, i, i * i]) for i in range(k)]
    rng.shuffle(pts)
    doc = {"lattice_rank": k, "fan": {"maximal_cones": [[_unit(k, i) for i in range(k)]]},
           "target": {"rank": 3, "torsion": []}, "beta_images": pts}
    path = _write(d / f"{tag}.json", doc)
    ident = [_unit(3, j) for j in range(3)]

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)
        if not got["verdict"] or got["tau"] != []:
            return f"gms verdict {got['verdict']}"
        if _fan_key(got["gms"]["maximal_cones"]) != _fan_key([pts]):
            return "gms fan is not the k-gon cone"
        if got["Phi_images"] != pts or got["phi_images"] != ident:
            return "gms morphism differs from the marking"
        return None

    return Request(["gms", "--input", path, "--json"], f"k{k}", largest, check)


def _sf(rank: int, cones, target_rank: int, images) -> dict:
    return {"lattice_rank": rank, "fan": {"maximal_cones": cones},
            "target": {"rank": target_rank, "torsion": []}, "beta_images": images}


# The morphism pool of the product-verdict property suite, with verdicts
# fixed by hand: (name, morphism, iso verdict, gms-check verdict).
_POOL = [
    ("p1_cox",  # Cox stack of P^1 onto P^1
     {"source": _sf(2, [[[1, 0]], [[0, 1]]], 1, [[1], [-1]]),
      "target": _sf(1, [[[1]], [[-1]]], 1, [[1]]),
      "Phi_images": [[1], [-1]], "phi_images": [[1]]}, True, True),
    ("mu2_to_a1",  # [A^1/mu_2] onto its coarse space A^1
     {"source": _sf(1, [[[1]]], 1, [[2]]), "target": _sf(1, [[[1]]], 1, [[1]]),
      "Phi_images": [[2]], "phi_images": [[1]]}, False, True),
    ("a1_canonical",  # canonical stack [A^2/mu_2] onto the A_1 singularity
     {"source": _sf(2, [[[0, 1], [1, 0]]], 2, [[1, 0], [1, 2]]),
      "target": _sf(2, [[[1, 0], [1, 2]]], 2, [[1, 0], [0, 1]]),
      "Phi_images": [[1, 0], [1, 2]], "phi_images": [[1, 0], [0, 1]]}, False, True),
    ("a2_to_point",  # [A^2/G_m], weights (1, 1), onto a point
     {"source": _sf(2, [[[1, 0], [0, 1]]], 1, [[1], [-1]]),
      "target": _sf(0, [[]], 0, []),
      "Phi_images": [[], []], "phi_images": [[]]}, False, True),
    ("p1_to_point",  # P^1 is proper, so a point is not its moduli space
     {"source": _sf(1, [[[1]], [[-1]]], 1, [[1]]), "target": _sf(0, [[]], 0, []),
      "Phi_images": [[]], "phi_images": [[]]}, False, False),
    ("id_a1",  # identity of [A^2/mu_2]
     {"source": _sf(2, [[[1, 0], [0, 1]]], 2, [[1, 0], [1, 2]]),
      "target": _sf(2, [[[1, 0], [0, 1]]], 2, [[1, 0], [1, 2]]),
      "Phi_images": [[1, 0], [0, 1]], "phi_images": [[1, 0], [0, 1]]}, True, True),
    ("doubled",  # x -> x^2 on A^1: phi is not surjective
     {"source": _sf(1, [[[1]]], 1, [[1]]), "target": _sf(1, [[[1]]], 1, [[1]]),
      "Phi_images": [[2]], "phi_images": [[2]]}, False, False),
]


def _product_sf(a: dict, b: dict) -> dict:
    na, nb = a["lattice_rank"], b["lattice_rank"]
    ra, rb = a["target"]["rank"], b["target"]["rank"]
    cones = [[r + [0] * nb for r in ca] + [[0] * na + r for r in cb]
             for ca in a["fan"]["maximal_cones"] for cb in b["fan"]["maximal_cones"]]
    images = [v + [0] * rb for v in a["beta_images"]] + \
             [[0] * ra + v for v in b["beta_images"]]
    return _sf(na + nb, cones, ra + rb, images)


def _block_columns(ca: list, cb: list, rows_a: int, rows_b: int) -> list:
    return [c + [0] * rows_b for c in ca] + [[0] * rows_a + c for c in cb]


def _product_morphism(m1: dict, m2: dict) -> dict:
    s1, s2, t1, t2 = m1["source"], m2["source"], m1["target"], m2["target"]
    return {
        "source": _product_sf(s1, s2), "target": _product_sf(t1, t2),
        "Phi_images": _block_columns(m1["Phi_images"], m2["Phi_images"],
                                     t1["lattice_rank"], t2["lattice_rank"]),
        "phi_images": _block_columns(m1["phi_images"], m2["phi_images"],
                                     t1["target"]["rank"], t2["target"]["rank"]),
    }


def _map_columns(m: list[list[int]], cols: list) -> list:
    return [_apply(m, c) for c in cols]


def _recombine(cols: list, inv: list[list[int]]) -> list:
    """Columns of C @ inv, with C given by its columns."""
    rows = len(cols[0]) if cols else 0
    n = len(inv)
    return [[sum(cols[i][r] * inv[i][j] for i in range(n)) for r in range(rows)]
            for j in range(n)]


def _twist(rng: random.Random, mor: dict) -> dict:
    """An isomorphic morphism: change bases of both lattices and the target group.

    U acts on the source lattice, V on the target lattice and W on the
    target group N'.  Cones move by U and V, beta by U^-1, V^-1 and W, and
    (Phi, phi) become (V Phi U^-1, W phi); every verdict is unchanged.
    """
    src, tgt = mor["source"], mor["target"]
    u, uinv = _random_unimodular(rng, src["lattice_rank"], 3)
    v, vinv = _random_unimodular(rng, tgt["lattice_rank"], 3)
    w, _ = _random_unimodular(rng, tgt["target"]["rank"], 3)
    new_src = _sf(src["lattice_rank"],
                  [_map_columns(u, c) for c in src["fan"]["maximal_cones"]],
                  src["target"]["rank"], _recombine(src["beta_images"], uinv))
    new_tgt = _sf(tgt["lattice_rank"],
                  [_map_columns(v, c) for c in tgt["fan"]["maximal_cones"]],
                  tgt["target"]["rank"],
                  _map_columns(w, _recombine(tgt["beta_images"], vinv)))
    phi_big = _map_columns(v, _recombine(mor["Phi_images"], uinv))
    return {"source": new_src, "target": new_tgt, "Phi_images": phi_big,
            "phi_images": _map_columns(w, mor["phi_images"])}


def _product_cases(rng: random.Random, tag: str, d: Path) -> list[Request]:
    """iso and gms-check on every unordered pair from the pool, twisted.

    A product's verdict is the conjunction of its factors' verdicts.
    """
    out = []
    for i, j in itertools.combinations_with_replacement(range(len(_POOL)), 2):
        pair = [_POOL[i], _POOL[j]]
        rng.shuffle(pair)
        (_, m1, iso1, gms1), (_, m2, iso2, gms2) = pair
        mor = _twist(rng, _product_morphism(m1, m2))
        path = _write(d / f"{tag}_{i}_{j}.json", mor)
        out.append(Request(["iso", "--input", path, "--json"], "product", False,
                           _verdict_check(iso1 and iso2)))
        out.append(Request(["gms-check", "--input", path, "--json"], "product", False,
                           _verdict_check(gms1 and gms2)))
    return out


def _verdict_check(want: bool) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)
        if got["verdict"] is not want or (got["failing_condition"] is None) is not want:
            return f"verdict {got['verdict']} ({got['failing_condition']}), expected {want}"
        return None
    return check


def fan_verdicts(seed: int, d: Path, rounds: int) -> Workload:
    rng = random.Random(seed)
    out = []
    for k in range(rounds):
        reqs = []
        for m in (2, 3, 4):
            reqs += _cox_case(rng, _p1_power(m), f"p1pow{m}_r{k}", m == 4, d)
        for n in (2, 3, 4, 5):
            reqs += _cox_case(rng, _projective(n), f"P{n}_r{k}", n == 5, d)
        for g in (4, 5, 6, 7):
            reqs.append(_kgon_case(rng, g, f"k{g}_r{k}", g == 7, d))
        reqs += _product_cases(rng, f"prod_r{k}", d)
        rng.shuffle(reqs)
        out.append(reqs)
    return Workload(out, sorted(d.iterdir()), tail_pct=85.0)


# ---------------------------------------------------------------------------
# group_algebra

_TORSION = (6, 10, 12, 15, 30, 45, 60)
_CHAINS = {n: [c for c in itertools.combinations(_TORSION, n)
               if all(b % a == 0 for a, b in zip(c, c[1:]))] for n in (1, 2, 3)}
_RANKS = (8, 10, 12, 14, 16, 18)


def _shapes(ell: int) -> list[tuple[int, int, bool]]:
    """(free rank, torsion count, rank-deficient) shapes cycled per round."""
    frees = sorted({max(1, ell // 4), ell // 3, ell // 2})
    counts = (1,) if ell >= 16 else (1, 2, 3)
    out = []
    for i, (f, t) in enumerate(itertools.product(frees, counts)):
        out.append((f, t, f >= 3 and i % 2 == 1))
    return out


def _group_expectation(ell: int, f: int, tors: list[int], images: list[list[int]]):
    """Reference G_beta data from the matrix [beta | relations]."""
    s = len(tors)
    r = f + s
    b = intmath.from_columns(images, r)
    for j, dj in enumerate(tors):
        for i in range(r):
            b[i].append(dj if i == f + j else 0)
    inv = intmath.invariant_factors(b)
    rho = len(inv)
    return {"free_rank": ell + s - rho, "torsion": [x for x in inv if x > 1],
            "g0_rank": r - rho}


def _check_group_report(got: dict, ell: int, f: int, tors: list[int],
                        images: list[list[int]], want: dict) -> Optional[str]:
    grp = got["group"]
    if got["g0_rank"] != want["g0_rank"]:
        return f"g0_rank {got['g0_rank']} != {want['g0_rank']}"
    if grp["free_rank"] != want["free_rank"] or grp["torsion"] != want["torsion"]:
        return f"group {grp} != reference {want}"
    ts = grp["torsion"]
    if any(t < 2 for t in ts) or any(b % a for a, b in zip(ts, ts[1:])):
        return f"torsion {ts} is not a divisibility chain"
    fr = grp["free_rank"]
    weights = got["weights"]
    if len(weights) != ell or any(len(w) != fr + len(ts) for w in weights):
        return "weight matrix has the wrong shape"
    # the weights must kill beta's image: free rows to 0, the row of a
    # torsion number d into d times the character group
    for i in range(f + len(tors)):
        d = 0 if i < f else tors[i - f]
        x = [sum(weights[k][a] * images[k][i] for k in range(ell)) for a in range(fr + len(ts))]
        for a, val in enumerate(x):
            mod = d if a < fr else gcd(d, ts[a - fr])
            if (val != 0 if mod == 0 else val % mod):
                return f"weights do not kill beta's row {i}"
    return None


def _beta_case(rng: random.Random, ell: int, shape, tag: str, d: Path) -> list[Request]:
    f, nt, deficient = shape
    tors = list(rng.choice(_CHAINS[nt]))
    rows = [[rng.randint(-99, 99) for _ in range(ell)] for _ in range(f + nt)]
    if deficient:
        rows[f - 1] = [x + y for x, y in zip(rows[0], rows[1])]
    images = intmath.columns(rows, ell)
    picked = rng.sample(range(ell), 5)
    cones_idx = [sorted(picked[:3]), sorted(picked[2:])]
    cones = [[_unit(ell, i) for i in c] for c in cones_idx]
    doc = {"lattice_rank": ell, "fan": {"maximal_cones": cones},
           "target": {"rank": f, "torsion": tors}, "beta_images": images}
    path = _write(d / f"{tag}.json", doc)
    want = _group_expectation(ell, f, tors, images)
    rank_free = intmath.rank(rows[:f])
    reduced = [v[:f] + [x % t for x, t in zip(v[f:], tors)] for v in images]
    largest = ell == _RANKS[-1]

    def gbeta_ok(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        return _check_group_report(json.loads(out), ell, f, tors, images, want)

    comp = [sorted(set(range(1, ell + 1)) - {i + 1 for i in c}) for c in cones_idx]
    c1, c2 = set(comp[0]), set(comp[1])
    removed = sorted([[i] for i in c1 & c2] + [sorted((i, j)) for i in c1 - c2 for j in c2 - c1])

    def present_ok(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)
        if got["ambient_dim"] != ell or got["fixed_coordinates"] != []:
            return "ambient dimension or fixed coordinates wrong"
        if sorted(sorted(s) for s in got["removed_locus"]) != removed:
            return "removed locus is not the minimal hitting sets"
        return _check_group_report(got, ell, f, tors, images, want)

    def split_ok(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)
        sf = got["stacky_fan"]
        ts = sf["target"]["torsion"]
        if got["bg_m_rank"] != f - rank_free or sf["target"]["rank"] != rank_free:
            return f"split off {got['bg_m_rank']}, expected {f - rank_free}"
        if any(b % a for a, b in zip(ts, ts[1:])) or len(sf["beta_images"]) != ell:
            return "split target malformed"
        if _fan_key(sf["fan"]["maximal_cones"]) != _fan_key(cones):
            return "split changed the fan"
        return None

    extra = [_unit(ell + nt, ell + j) for j in range(nt)]
    want_reduce = {
        "stacky_fan": {
            "lattice_rank": ell + nt,
            "fan": {"maximal_cones": [[r + [0] * nt for r in c] + extra for c in cones]},
            "target": {"rank": f + nt, "torsion": []},
            "beta_images": reduced + [[dj if k == f + j else 0 for k in range(f + nt)]
                                      for j, dj in enumerate(tors)],
        },
        "substack_coordinates": list(range(ell + 1, ell + nt + 1)),
    }

    def reduce_ok(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)
        gf, wf = got["stacky_fan"], want_reduce["stacky_fan"]
        if _fan_key(gf["fan"]["maximal_cones"]) != _fan_key(wf["fan"]["maximal_cones"]):
            return "reduced fan wrong"
        if {**gf, "fan": None} != {**wf, "fan": None} or \
                got["substack_coordinates"] != want_reduce["substack_coordinates"]:
            return "reduced stacky fan wrong"
        return None

    rays = sorted({tuple(_unit(ell, i)) for c in cones_idx for i in c})
    pos = {r: i for i, r in enumerate(rays)}
    ident = [_unit(f + nt, j) for j in range(f + nt)]

    def canonical_ok(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)
        big = got["Phi_images"]
        sf = got["stacky_fan"]
        if len(big) != ell or [tuple(c) for c in big[:len(rays)]] != rays:
            return "canonical map does not start with the rays"
        if abs(intmath.determinant(intmath.from_columns(big, ell))) != 1:
            return "canonical lattice map is not unimodular"
        if got["phi_images"] != ident or sf["target"] != doc["target"]:
            return "canonical target changed"
        for col, img in zip(big, sf["beta_images"]):
            v = [sum(images[k][i] * col[k] for k in range(ell)) for i in range(f + nt)]
            v = v[:f] + [x % t for x, t in zip(v[f:], tors)]
            if v != img:
                return "canonical beta is not beta after the lattice map"
        want = _fan_key([[_unit(ell, pos[tuple(_unit(ell, i))]) for i in c] for c in cones_idx])
        if _fan_key(sf["fan"]["maximal_cones"]) != want:
            return "canonical fan wrong"
        return None

    size = f"rank{ell}"
    return [Request([cmd, "--input", path, "--json"], size, largest, chk)
            for cmd, chk in (("gbeta", gbeta_ok), ("present", present_ok),
                             ("split", split_ok), ("reduce", reduce_ok),
                             ("canonical", canonical_ok))]


def group_algebra(seed: int, d: Path, rounds: int) -> Workload:
    rng = random.Random(seed)
    out = []
    for k in range(rounds):
        reqs = []
        for ell in _RANKS:
            shapes = _shapes(ell)
            for b in range(2):
                shape = shapes[(2 * k + b) % len(shapes)]
                reqs += _beta_case(rng, ell, shape, f"beta{ell}_r{k}_{b}", d)
        rng.shuffle(reqs)
        out.append(reqs)
    return Workload(out, sorted(d.iterdir()), tail_pct=90.0)


# ---------------------------------------------------------------------------
# cli_fixtures

COMMANDS = ("validate", "gbeta", "present", "fantastack", "canonical", "cox",
            "unstable", "iso", "gms-check", "gms", "moduli", "reduce", "split",
            "gerbe", "render")

# Commands that exit 0 on each fixture with --json; every other pair exits
# 2.  render (no JSON report) and gerbe (needs --zeros) always refuse.
# Morphism files are read only by validate, iso and gms-check, and fan data
# (no target) only by fantastack and cox.  cox reads nothing but the fan, so
# it accepts every stacky fan file whose fan is valid, malformed.json (bad
# target) included.  Of the stacky fans, present needs orthant support, gms
# a finite cokernel, moduli orthant support, smooth cones and a free
# target, and fantastack images of length lattice_rank.
_SF = {"validate", "gbeta", "canonical", "unstable", "reduce", "split", "cox"}
_MORPHISM = {"validate", "iso", "gms-check"}
_DATUM = {"fantastack", "cox"}
EXIT_ZERO = {
    "a1.json": _SF | {"present", "gms", "moduli"},
    "a1_canonical_morphism.json": _MORPHISM,
    "a1_fantastack.json": _DATUM,
    "a1_rooted_fantastack.json": _DATUM,
    "a1_variety.json": _SF | {"gms"},
    "a2_to_point.json": _MORPHISM,
    "a2_unstable.json": _SF | {"present", "gms", "moduli"},
    "bg.json": _SF | {"present", "fantastack"},
    "blowup_fantastack.json": _DATUM,
    "double_ray_fantastack.json": _DATUM,
    "malformed.json": {"cox"},
    "mu2_line.json": _SF | {"present", "gms", "moduli", "fantastack"},
    "mu2_to_a1.json": _MORPHISM,
    "nonseparated.json": _SF | {"present", "gms", "moduli"},
    "overlap_invalid.json": {"validate"},
    "p1_cox.json": _SF | {"present", "gms", "moduli"},
    "p1_cox_morphism.json": _MORPHISM,
    "p1_to_point.json": _MORPHISM,
    "p1_variety.json": _SF | {"gms"},
    "p2_cox.json": _SF | {"present", "gms", "moduli"},
    "p2_cox_morphism.json": _MORPHISM,
    "p2_fan.json": {"cox"},
    "point.json": _SF | {"present", "gms", "moduli", "fantastack"},
    "punctured_plane_mod_torus.json": _SF | {"present", "gms", "moduli"},
    "reduced_torsion_target.json": _SF | {"present", "gms", "moduli"},
    "square_cone_fantastack.json": _DATUM,
    "torsion_fantastack.json": _DATUM,
    "torsion_target.json": _SF | {"present", "gms"},
}

# (command, fixture, flags after the input path, golden file)
GOLDENS = [
    ("gbeta", "a1.json", ("--json",), "a1_gbeta.json"),
    ("present", "reduced_torsion_target.json", ("--json", "--zeros", "3"), "present_reduced.json"),
    ("fantastack", "square_cone_fantastack.json", ("--json",), "square_fantastack.json"),
    ("iso", "p1_cox_morphism.json", ("--json",), "p1_cox_iso.json"),
    ("gms", "a1.json", ("--json",), "gms_a1.json"),
    ("moduli", "p2_cox.json", ("--json",), "moduli_p2_cox.json"),
    ("gerbe", "reduced_torsion_target.json", ("--zeros", "3", "--json"), "gerbe_reduced.json"),
    ("render", "a1.json", (), "a1_render.svg"),
]

# fixtures on the largest lattice (rank 3)
_LARGEST = {"p2_cox.json", "p2_cox_morphism.json", "reduced_torsion_target.json",
            "square_cone_fantastack.json"}


def _fixture_check(want_zero: bool, golden: Optional[str]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != (0 if want_zero else 2):
            return f"exit {code}, expected {0 if want_zero else 2}"
        if golden is not None and out != golden:
            return "output differs from the golden file"
        if not want_zero and out:
            return "refused request wrote a report"
        return None
    return check


def cli_fixtures(seed: int, fixtures: Path, rounds: int) -> Workload:
    names = sorted(p.name for p in fixtures.glob("*.json"))
    if set(names) != set(EXIT_ZERO):
        raise RuntimeError(f"fixture set changed: {sorted(set(names) ^ set(EXIT_ZERO))}")
    goldens = {(cmd, fx, flags): (fixtures / "golden" / g).read_text()
               for cmd, fx, flags, g in GOLDENS}
    one = [(cmd, fx, ("--json",)) for fx in names for cmd in COMMANDS]
    one += [(cmd, fx, flags) for cmd, fx, flags, _ in GOLDENS if flags != ("--json",)]
    base = [Request([cmd, "--input", str(fixtures / fx), *flags], fx, fx in _LARGEST,
                    _fixture_check(cmd in EXIT_ZERO[fx] or flags != ("--json",),
                                   goldens.get((cmd, fx, flags))))
            for cmd, fx, flags in one]
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        order = list(base)
        rng.shuffle(order)
        out.append(order)
    return Workload(out, [fixtures / n for n in names], tail_pct=99.0)
