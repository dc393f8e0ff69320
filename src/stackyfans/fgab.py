"""Finitely generated abelian groups, homomorphisms, and mapping cones.

A group is always held in invariant-factor form (:class:`FgAbGroup`, defined
next to the Smith normal form in :mod:`stackyfans.zlinalg` and re-exported
here).  A homomorphism is a matrix whose columns are the images of the
canonical generators, torsion rows reduced.  The verdicts ask only two
questions of a homomorphism, each answered by one factorization:
:func:`has_finite_cokernel` (one rank) and :func:`is_surjective` (one Smith
normal form).  Thanks to the invariant-factor form, a homomorphism is an
isomorphism exactly when it is surjective and its source equals its target
(f.g. abelian groups are Hopfian).

The centerpiece is :func:`mapping_cone_dual`: for a homomorphism
``beta : Z^l -> N`` it computes the character data of the group

    G_beta = ker(T_{free replacement} -> T_N)

presented diagonally, i.e. the cokernel of the transposed strictification
together with the weight matrix of the induced action on ``A^l``.  The
functorial maps between such groups (:func:`induced_g1_hom`,
:func:`induced_g0_hom`) make the comparison results testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .zlinalg import (
    FgAbGroup,
    IntMatrix,
    Vec,
    cokernel_presentation,
    hermite_row_form,
    kernel_basis,
    normalized_group,
    rank,
    solve_integer,
    unimodular_inverse,
)

__all__ = [
    "FgAbGroup",
    "FgAbHom",
    "MalformedHom",
    "DiagGroupPresentation",
    "MappingConeDual",
    "has_finite_cokernel",
    "is_surjective",
    "group_name",
    "verify_exact",
    "mapping_cone_dual",
    "induced_g1_hom",
    "induced_g0_hom",
    "identity_hom",
    "free_group",
    "normalized_group",
]


class MalformedHom(Exception):
    """Raised when matrix data does not define a homomorphism."""


def free_group(n: int) -> FgAbGroup:
    return FgAbGroup(n, ())


@dataclass(frozen=True)
class FgAbHom:
    """Homomorphism of finitely generated abelian groups.

    ``matrix`` is target.ngens x source.ngens; column j is the image of the
    j-th canonical generator of the source.  Torsion rows are stored reduced
    into [0, d).  Construction fails with :class:`MalformedHom` when the
    columns do not respect the source relations.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != self.target.ngens or m.cols != self.source.ngens:
            raise MalformedHom(
                f"matrix is {m.rows}x{m.cols}, expected "
                f"{self.target.ngens}x{self.source.ngens}")
        reduced = IntMatrix.from_columns(
            [self.target.reduce(c) for c in m.columns()], rows=m.rows)
        object.__setattr__(self, "matrix", reduced)
        fs = self.source.free_rank
        ft = self.target.free_rank
        for j, d in enumerate(self.source.torsion):
            col = reduced.column(fs + j)
            for i in range(ft):
                if d * col[i] != 0:
                    raise MalformedHom(
                        f"generator of order {d} sent to infinite-order element")
            for i, e in enumerate(self.target.torsion):
                if (d * col[ft + i]) % e != 0:
                    raise MalformedHom(
                        f"generator of order {d} not killed by {d} in target")

    def apply(self, v: Sequence[int]) -> Vec:
        return self.target.reduce(self.matrix.apply(self.source.reduce(v)))


def identity_hom(g: FgAbGroup) -> FgAbHom:
    return FgAbHom(g, g, IntMatrix.identity(g.ngens))


def _kernel_lattice(f: FgAbHom) -> IntMatrix:
    """Generators (columns in Z^source.ngens) of {v : f(v) = 0}."""
    big = f.matrix.hstack(f.target.relations())
    kb = kernel_basis(big)
    n = f.source.ngens
    cols = [c[:n] for c in kb.columns()]
    # source relations always die, and keeping them makes the span honest
    cols.extend(f.source.relations().columns())
    return IntMatrix.from_columns(cols, rows=n)


def has_finite_cokernel(f: FgAbHom) -> bool:
    """Is the cokernel finite, i.e. does the image span the target rationally?"""
    return rank(f.matrix.hstack(f.target.relations())) == f.target.ngens


def is_surjective(f: FgAbHom) -> bool:
    """Is the cokernel trivial?  One Smith normal form."""
    return cokernel_presentation(f.matrix.hstack(f.target.relations()))[0].is_trivial()


def verify_exact(seq: Sequence[FgAbHom]) -> bool:
    """Exactness at every interior junction of a composable sequence.

    Injectivity or surjectivity at the ends is expressed by placing
    explicit zero groups in the sequence.
    """
    homs = list(seq)
    for a, b in zip(homs, homs[1:]):
        if a.target != b.source:
            raise MalformedHom("sequence is not composable")
    for a, b in zip(homs, homs[1:]):
        g = a.target
        zero = (0,) * b.target.ngens
        for c in a.matrix.columns():
            if b.apply(c) != zero:
                return False
        rep = a.matrix.hstack(g.relations())
        for k in _kernel_lattice(b).columns():
            if solve_integer(rep, k) is None:
                return False
    return True


@dataclass(frozen=True)
class DiagGroupPresentation:
    """Diagonalized presentation of a group acting on affine space.

    ``group`` is the character group; ``weights`` has one row per generator
    of the character group and one column per affine coordinate, so column j
    is the character by which the group scales the j-th coordinate.
    """

    group: FgAbGroup
    weights: IntMatrix


def group_name(g0_rank: int, group: FgAbGroup) -> str:
    """Readable name of G_m^g0_rank times the dual of a character group.

    For example 'G_m^2 x mu_2', or '1' for the trivial group.
    """
    tori = [k for k in (g0_rank, group.free_rank) if k]
    parts = ["G_m" if k == 1 else f"G_m^{k}" for k in tori]
    parts += [f"mu_{d}" for d in group.torsion]
    return " x ".join(parts) or "1"


@dataclass(frozen=True)
class MappingConeDual:
    g0_rank: int
    g1: DiagGroupPresentation


def _unit_for_row(row: Vec, d: int) -> int:
    """Smallest unit u of Z/d whose multiple u*row is lexicographically least.

    Exact for every modulus, one coordinate at a time: u*x mod d depends
    only on u mod d' = d/gcd(x, d), and the units still allowed are those
    of a coset u0 + mZ.  Each step takes the least value u*x mod d reachable
    from that coset and narrows the coset by CRT.
    """
    u0, m = 1, 1
    for x in row:
        g = math.gcd(x, d)
        dp = d // g
        if dp == 1:
            continue
        xp = x // g % dp
        # u mod dp ranges over the units r = u0 mod h, so u*x/g mod dp over
        # the units v = u0*xp mod h: take the least v, then pin r by CRT
        h = math.gcd(m, dp)
        v = u0 * xp % h
        while math.gcd(v, dp) != 1:
            v += h
        r = v * pow(xp, -1, dp) % dp
        step = dp // h
        u0 += m * ((r - u0) // h * pow(m // h, -1, step) % step)
        m *= step
    while math.gcd(u0, d) != 1:
        u0 += m
    return u0


def _normalizing_aut(group: FgAbGroup, block: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Automorphism A of the group with A @ block canonical, plus inverse.

    Free rows go to the unique row Hermite form; each torsion row is scaled
    by the unit from :func:`_unit_for_row`.  A and its inverse are returned
    as ngens x ngens integer matrices in block-diagonal shape.
    """
    f = group.free_rank
    ts = group.torsion
    n = group.ngens
    free_block = IntMatrix.from_rows([block.row(i) for i in range(f)], cols=block.cols)
    _, t_free = hermite_row_form(free_block)
    t_inv = unimodular_inverse(t_free)
    a = [[0] * n for _ in range(n)]
    ai = [[0] * n for _ in range(n)]
    for i in range(f):
        for j in range(f):
            a[i][j] = t_free.entries[i][j]
            ai[i][j] = t_inv.entries[i][j]
    for j, d in enumerate(ts):
        u = _unit_for_row(block.row(f + j), d)
        a[f + j][f + j] = u
        ai[f + j][f + j] = pow(u, -1, d)
    return IntMatrix.from_rows(a, n), IntMatrix.from_rows(ai, n)


def _reduce_rows(group: FgAbGroup, m: IntMatrix) -> IntMatrix:
    """Reduce the torsion rows of a generator-coordinate matrix."""
    f = group.free_rank
    rows = list(m.entries)
    for j, d in enumerate(group.torsion):
        rows[f + j] = tuple(x % d for x in rows[f + j])
    return IntMatrix.from_rows(rows, m.cols)


def _strictification(beta: FgAbHom) -> IntMatrix:
    """The free replacement [B | Q] : Z^(l+s) -> Z^r of beta."""
    if beta.source.torsion:
        raise MalformedHom("mapping cone needs a free source")
    return beta.matrix.hstack(beta.target.relations())


# bounded, so a process serving many requests keeps only the recent beta
@lru_cache(maxsize=32)
def _g1_data(beta: FgAbHom):
    bt = _strictification(beta)
    raw_group, raw_proj = cokernel_presentation(bt.transpose())
    ell = beta.source.free_rank
    weights_raw = raw_proj.submatrix(range(raw_group.ngens), range(ell))
    aut, aut_inv = _normalizing_aut(raw_group, weights_raw)
    return raw_group, raw_proj, aut, aut_inv, bt


def mapping_cone_dual(beta: FgAbHom) -> MappingConeDual:
    """Character data of the group G_beta attached to beta : Z^l -> N.

    Returns the rank of the connected torus factor G^0 and the diagonal
    presentation of G^1: its character group is the cokernel of the
    transposed free replacement of beta, and the weight matrix restricts the
    cokernel projection to the first l coordinates.  Weights are normalized
    (free rows in Hermite form, torsion rows scaled to their lexicographic
    minimum among unit multiples).
    """
    group, proj, aut, _, bt = _g1_data(beta)
    ell = beta.source.free_rank
    g0 = beta.target.ngens - rank(bt)
    weights_raw = proj.submatrix(range(group.ngens), range(ell))
    weights = _reduce_rows(group, aut @ weights_raw)
    return MappingConeDual(g0_rank=g0, g1=DiagGroupPresentation(group, weights))


def _section(proj: IntMatrix, group: FgAbGroup) -> IntMatrix:
    """Right inverse of a surjection proj : Z^amb -> group, as columns."""
    amb = proj.cols
    aug = proj.hstack(group.relations())
    cols = []
    for k in range(group.ngens):
        e = [1 if i == k else 0 for i in range(group.ngens)]
        x = solve_integer(aug, e)
        if x is None:
            raise ValueError("projection is not surjective")
        cols.append(x[:amb])
    return IntMatrix.from_columns(cols, rows=amb)


def _lifted_square(f: FgAbHom, g: FgAbHom, alpha: IntMatrix, b: FgAbHom):
    """Strictify a commuting square (alpha, b) : f -> g.

    Returns (bmat, alpha_tilde) with
    strictification(g) @ alpha_tilde == bmat @ strictification(f) exactly.
    """
    if f.source.torsion or g.source.torsion:
        raise MalformedHom("mapping cone functoriality needs free sources")
    if b.source != f.target or b.target != g.target:
        raise MalformedHom("vertical map has wrong endpoints")
    lf, lg = f.source.free_rank, g.source.free_rank
    if alpha.rows != lg or alpha.cols != lf:
        raise MalformedHom("horizontal map has wrong shape")
    for i in range(lf):
        if g.apply(alpha.column(i)) != b.apply(f.matrix.column(i)):
            raise MalformedHom("square does not commute")
    sf, sg = len(f.target.torsion), len(g.target.torsion)
    ftf, ftg = f.target.free_rank, g.target.free_rank
    bmat = b.matrix
    diff_cols = (bmat @ f.matrix).columns()
    galpha_cols = (g.matrix @ alpha).columns()
    at = [[0] * (lf + sf) for _ in range(lg + sg)]
    for i in range(lg):
        for j in range(lf):
            at[i][j] = alpha.entries[i][j]
    for i in range(lf):
        diff = tuple(x - y for x, y in zip(diff_cols[i], galpha_cols[i]))
        for k in range(ftg):
            if diff[k] != 0:
                raise MalformedHom("square does not commute on free part")
        for k, d in enumerate(g.target.torsion):
            q, r = divmod(diff[ftg + k], d)
            if r != 0:
                raise MalformedHom("square does not commute modulo torsion")
            at[lg + k][i] = q
    for j, dj in enumerate(f.target.torsion):
        col = bmat.column(ftf + j)
        for k, dk in enumerate(g.target.torsion):
            q, r = divmod(dj * col[ftg + k], dk)
            if r != 0:
                raise MalformedHom("torsion image order mismatch")
            at[lg + k][lf + j] = q
    alpha_tilde = IntMatrix.from_rows(at, lf + sf)
    if (_strictification(g) @ alpha_tilde).entries != (bmat @ _strictification(f)).entries:
        raise MalformedHom("strictified square does not commute")
    return bmat, alpha_tilde


def induced_g1_hom(f: FgAbHom, g: FgAbHom, alpha: IntMatrix, b: FgAbHom) -> FgAbHom:
    """The map G^1-characters(g) -> G^1-characters(f) a square induces.

    (alpha, b) is a morphism of two-term complexes from f to g; dualizing
    gives a map on degree-one cohomology in the opposite direction.  The
    result is expressed in the same normalized generators that
    :func:`mapping_cone_dual` publishes for each side.
    """
    bmat, alpha_tilde = _lifted_square(f, g, alpha, b)
    gg, pg, aut_g, aut_g_inv, _ = _g1_data(g)
    gf, pf, aut_f, aut_f_inv, _ = _g1_data(f)
    sec = _section(pg, gg)
    raw = pf @ (alpha_tilde.transpose() @ sec)
    mat = _reduce_rows(gf, aut_f @ (_reduce_rows(gf, raw) @ aut_g_inv))
    return FgAbHom(gg, gf, mat)


def induced_g0_hom(f: FgAbHom, g: FgAbHom, alpha: IntMatrix, b: FgAbHom) -> FgAbHom:
    """The map on degree-zero cohomology of the dual complexes (free groups)."""
    bmat, _ = _lifted_square(f, g, alpha, b)
    kg = kernel_basis(_strictification(g).transpose())
    kf = kernel_basis(_strictification(f).transpose())
    moved = bmat.transpose() @ kg
    cols = []
    for c in moved.columns():
        x = solve_integer(kf, c)
        if x is None:
            raise ValueError("dual image left the kernel lattice")
        cols.append(x)
    mat = IntMatrix.from_columns(cols, rows=kf.cols)
    return FgAbHom(free_group(kg.cols), free_group(kf.cols), mat)
