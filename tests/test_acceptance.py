"""Acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line so the
run log doubles as the checklist.  Time budgets: the diagonalization golden
set must finish within 1 second and the randomized block within 60.
"""

import time

import property_suites as ps
from stackyfans.constructions import (
    canonical_stack,
    fantastack,
    gms_check,
    gms_construct,
    is_isomorphism,
    moduli_description,
)
from stackyfans.fgab import (
    FgAbHom,
    free_group,
    identity_hom,
    mapping_cone_dual,
)
from stackyfans.polyhedral import Cone, Fan, canonicalize_cone
from stackyfans.stacky import StackyFan, StackyMorphism
from stackyfans.zlinalg import FgAbGroup, IntMatrix


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, detail


def _cone(*gens, rank=None):
    return canonicalize_cone(list(gens), ambient_rank=rank)


QUAD_FAN = Fan(2, (_cone((1, 0), (0, 1)),))
A1_CONE_FAN = Fan(2, (_cone((1, 0), (1, 2)),))
PUNCTURED = Fan(2, (_cone((1, 0), rank=2), _cone((0, 1), rank=2)))
P1_FAN = Fan(1, (_cone((1,), rank=1), _cone((-1,), rank=1)))
P2_FAN = Fan(2, (_cone((1, 0), (0, 1)), _cone((1, 0), (-1, -1)),
                 _cone((0, 1), (-1, -1))))
RAY_FAN = Fan(1, (_cone((1,), rank=1),))
POINT_SF = StackyFan(Fan(0, (Cone(0, ()),)), free_group(0), ())
Z1, Z2 = free_group(1), free_group(2)


def _hom(source, target, rows):
    return FgAbHom(source, target, IntMatrix.from_rows(rows, cols=source.ngens))


def test_acceptance_1_diagonalized_groups():
    cases = [
        (_hom(Z2, Z2, [[1, 1], [0, 2]]), 0, FgAbGroup(0, (2,)), ((1, 1),)),
        (_hom(Z2, Z1, [[1, 0]]), 0, FgAbGroup(1, ()), ((0, 1),)),
        (_hom(Z1, Z1, [[2]]), 0, FgAbGroup(0, (2,)), ((1,),)),
        (_hom(Z2, FgAbGroup(1, (2,)), [[2, -3], [1, 0]]),
         0, FgAbGroup(1, ()), ((6, 4),)),
    ]
    start = time.perf_counter()
    problems = []
    for beta, g0, group, weights in cases:
        mc = mapping_cone_dual(beta)
        got = (mc.g0_rank, mc.g1.group, mc.g1.weights.entries)
        if got != (g0, group, weights):
            problems.append(f"{beta.matrix.entries}: got {got}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(1, "diagonalized group golden set", not problems, "; ".join(problems))


def test_acceptance_2_fantastacks():
    cases = [
        (RAY_FAN, [(1,), (1,)], "[(A^2) / G_m] with weights 1, -1"),
        (A1_CONE_FAN, [(1, 0), (1, 2)], "[(A^2) / mu_2] with weights 1, 1"),
        (A1_CONE_FAN, [(2, 0), (1, 2)], "[(A^2) / mu_4] with weights 1, 2"),
        (Fan(2, (_cone((1, 0), (1, 1)), _cone((1, 1), (0, 1)))),
         [(1, 0), (1, 1), (0, 1)],
         "[(A^3 - V(x1,x3)) / G_m] with weights 1, -1, 1"),
        (Fan(3, (_cone((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)),)),
         [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)],
         "[(A^4) / G_m] with weights 1, -1, 1, -1"),
    ]
    problems = []
    for fan, images, expected in cases:
        got = fantastack(fan, images)[1].describe()
        if got != expected:
            problems.append(f"{images}: got '{got}'")
    _verdict(2, "fantastack golden set", not problems, "; ".join(problems))


def test_acceptance_3_good_moduli_spaces():
    problems = []

    res = gms_construct(StackyFan(PUNCTURED, free_group(0), ((), ())))
    if res.verdict or res.failing_condition != "(i)":
        problems.append("projective-line-mod-torus datum not stopped at (i)")
    res = gms_construct(StackyFan(PUNCTURED, Z1, ((1,), (1,))))
    if res.verdict or res.failing_condition != "(ii)":
        problems.append("doubled-origin datum not stopped at (ii)")

    mu2 = StackyMorphism(StackyFan(RAY_FAN, Z1, ((2,),)),
                         StackyFan(RAY_FAN, Z1, ((1,),)),
                         IntMatrix.from_rows([[2]]), identity_hom(Z1))
    if not gms_check(mu2).verdict:
        problems.append("mu_2 line rejected")
    to_point = StackyMorphism(StackyFan(QUAD_FAN, Z1, ((1,), (-1,))),
                              POINT_SF, IntMatrix(0, 2, ()),
                              _hom(Z1, free_group(0), []))
    if not gms_check(to_point).verdict:
        problems.append("plane-mod-torus to point rejected")

    res = gms_construct(StackyFan(QUAD_FAN, Z2, ((1, 0), (1, 2))))
    if not res.verdict or res.gms_fan != A1_CONE_FAN:
        problems.append(f"fantastack moduli fan came out as {res.gms_fan}")

    for variety in (StackyFan(A1_CONE_FAN, Z2, ((1, 0), (0, 1))),
                    StackyFan(P2_FAN, Z2, ((1, 0), (0, 1)))):
        check = gms_check(canonical_stack(variety))
        if not check.verdict:
            problems.append(
                f"canonical stack morphism failed at {check.failing_condition}")
    _verdict(3, "good moduli space decisions", not problems, "; ".join(problems))


def test_acceptance_4_isomorphism_decisions():
    problems = []

    p1_cox = StackyMorphism(StackyFan(PUNCTURED, Z1, ((1,), (-1,))),
                            StackyFan(P1_FAN, Z1, ((1,),)),
                            IntMatrix.from_rows([[1, -1]]), identity_hom(Z1))
    res = is_isomorphism(p1_cox)
    if not res.verdict:
        problems.append(f"P^1 Cox morphism rejected at {res.failing_condition}")

    p2_source = StackyFan(
        Fan(3, (_cone((1, 0, 0), (0, 1, 0)), _cone((1, 0, 0), (0, 0, 1)),
                _cone((0, 1, 0), (0, 0, 1)))),
        Z2, ((1, 0), (0, 1), (-1, -1)))
    p2_cox = StackyMorphism(p2_source, StackyFan(P2_FAN, Z2, ((1, 0), (0, 1))),
                            p2_source.beta.matrix, identity_hom(Z2))
    if not is_isomorphism(p2_cox).verdict:
        problems.append("P^2 Cox morphism rejected")

    # the same pair is the standard trap: no lattice-level inverse of Phi
    # exists, yet the quotient stacks agree, and the verdict must say so
    if p1_cox.Phi.rows == p1_cox.Phi.cols:
        problems.append("trap pair should have non-square Phi")
    if not res.verdict:
        problems.append("trap pair not confirmed isomorphic")

    bad = canonical_stack(StackyFan(A1_CONE_FAN, Z2, ((1, 0), (0, 1))))
    res = is_isomorphism(bad)
    if res.verdict or res.failing_condition != 3:
        problems.append(
            f"monoid failure reported as condition {res.failing_condition}")
    _verdict(4, "isomorphism decisions", not problems, "; ".join(problems))


def test_acceptance_5_moduli_descriptions():
    problems = []
    p2 = StackyFan(
        Fan(3, (_cone((1, 0, 0), (0, 1, 0)), _cone((1, 0, 0), (0, 0, 1)),
                _cone((0, 1, 0), (0, 0, 1)))),
        Z2, ((1, 0), (0, 1), (-1, -1)))
    md = moduli_description(p2)
    if md.linear_relations != ((1, 0, -1), (0, 1, -1)):
        problems.append(f"P^2 relations {md.linear_relations}")
    if md.intersection_relations != ((1, 2, 3),):
        problems.append(f"P^2 intersections {md.intersection_relations}")
    md = moduli_description(StackyFan(QUAD_FAN, Z2, ((1, 0), (1, 2))))
    if md.linear_relations != ((1, 1), (0, 2)):
        problems.append(f"A_1 relations {md.linear_relations}")
    if md.intersection_relations != ():
        problems.append(f"A_1 intersections {md.intersection_relations}")
    _verdict(5, "moduli descriptions", not problems, "; ".join(problems))


def test_acceptance_6_randomized_suites():
    start = time.perf_counter()
    problems = []
    for name, suite in ps.ALL_SUITES:
        failures = suite()
        if failures:
            problems.append(f"{name}: {len(failures)} failures, "
                            f"first: {failures[0]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _verdict(6, "randomized contract suites", not problems, "; ".join(problems))
