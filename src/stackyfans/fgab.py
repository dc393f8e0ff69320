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
group and the torsion weights come from one Smith form of that cokernel.
The free weights span the kernel lattice

    W = {w in Z^l : B_free w = 0, B_tors w = 0 mod d},

the projection to Z^l of ker [B | Q], and are its row Hermite form, read
off one Hermite form of the small matrix [[B^T | I], [Q^T | 0]] (Cohen 1993,
section 2.4) rather than from the Smith transform, whose rows can carry
over a thousand digits.
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
    rank,
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
    "mapping_cone_dual",
    "identity_hom",
    "free_group",
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


def has_finite_cokernel(f: FgAbHom) -> bool:
    """Is the cokernel finite, i.e. does the image span the target rationally?"""
    return rank(f.matrix.hstack(f.target.relations())) == f.target.ngens


def is_surjective(f: FgAbHom) -> bool:
    """Is the cokernel trivial?  One Smith normal form."""
    return cokernel_presentation(f.matrix.hstack(f.target.relations()))[0].is_trivial()


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


def _strictification(beta: FgAbHom) -> IntMatrix:
    """The free replacement [B | Q] : Z^(l+s) -> Z^r of beta."""
    if beta.source.torsion:
        raise MalformedHom("mapping cone needs a free source")
    return beta.matrix.hstack(beta.target.relations())


# bounded, so a process serving many requests keeps only the recent beta
@lru_cache(maxsize=32)
def _g1_data(beta: FgAbHom) -> MappingConeDual:
    bt = _strictification(beta)
    group, proj = cokernel_presentation(bt.transpose())
    f = group.free_rank
    ell = beta.source.free_rank
    r = bt.rows
    # free rows: they span W, the projection to Z^l of ker [B | Q] (injective:
    # the columns of Q are independent).  The row lattice of the full-rank
    # [[B^T | I], [Q^T | 0]] is {(B x + Q y, x)}, and its Hermite form ends in
    # the rows (0 | w) that span its part with B x + Q y = 0: those w are the
    # Hermite form of W.
    tagged = bt.transpose().hstack(IntMatrix.from_rows(
        [[int(i == j) for j in range(ell)] for i in range(bt.cols)], cols=ell))
    free_rows = [row[r:] for row in hermite_row_form(tagged)[0].entries if not any(row[:r])]
    # torsion rows (already reduced mod d): the least unit multiple
    raw = proj.submatrix(range(f, group.ngens), range(ell)).entries
    torsion_rows = []
    for row, d in zip(raw, group.torsion):
        u = _unit_for_row(row, d)
        torsion_rows.append(tuple(u * x % d for x in row))
    weights = IntMatrix.from_rows(free_rows + torsion_rows, cols=ell)
    # the cokernel of bt^T has free rank bt.cols - rank(bt)
    return MappingConeDual(g0_rank=beta.target.ngens - bt.cols + group.free_rank,
                           g1=DiagGroupPresentation(group, weights))


def mapping_cone_dual(beta: FgAbHom) -> MappingConeDual:
    """Character data of the group G_beta attached to beta : Z^l -> N.

    Returns the rank of the connected torus factor G^0 and the diagonal
    presentation of G^1: its character group is the cokernel of the
    transposed free replacement of beta, and the weight matrix restricts the
    cokernel projection to the first l coordinates.  Weights are normalized
    by an automorphism of the character group: the free rows are the row
    Hermite form of the lattice W they span, the w in Z^l with
    B_free w = 0 and B_tors w = 0 mod d, and each torsion row is scaled to
    its lexicographic minimum among unit multiples.
    """
    return _g1_data(beta)
