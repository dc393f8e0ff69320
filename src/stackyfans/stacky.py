"""Stacky fans and their morphisms.

A stacky fan is a fan Sigma on Z^l together with a homomorphism
beta : Z^l -> N into a finitely generated abelian group.  It is *strict*
when N is free and beta has finite cokernel.  The group G_beta acting in
the associated quotient presentation comes from
:func:`stackyfans.fgab.mapping_cone_dual`.

The removed locus of that presentation is cut out by the fan's primitive
collections (:func:`primitive_collections`), the one routine for them:
:func:`stackyfans.constructions.moduli_description` reads the same sets as
its intersection relations.

A morphism of stacky fans computes two things once: the images of its
source fan rays (:attr:`StackyMorphism.ray_images`), which its validation
and every verdict on it read, and its problems
(:attr:`StackyMorphism.problems`), a tuple of messages that is empty
exactly for a morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .fgab import (
    FgAbGroup,
    FgAbHom,
    MappingConeDual,
    free_group,
    group_name,
    has_finite_cokernel,
    mapping_cone_dual,
)
from .polyhedral import Cone, Fan, cone_contains, ray_images
from .zlinalg import IntMatrix, Vec, cokernel_presentation, snf


class NotSubfanOfAffineSpace(Exception):
    """Raised when a fan is not supported on faces of the standard orthant."""


@dataclass(frozen=True)
class StackyFan:
    """Fan on Z^lattice_rank plus the images of the basis vectors in N.

    ``beta_images[i]`` is beta(e_i) in generator coordinates of ``target``;
    torsion coordinates are stored reduced.
    """

    fan: Fan
    target: FgAbGroup
    beta_images: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if len(self.beta_images) != self.fan.ambient_rank:
            raise ValueError(
                f"{len(self.beta_images)} images for lattice rank {self.fan.ambient_rank}")
        object.__setattr__(
            self, "beta_images",
            tuple(self.target.reduce(v) for v in self.beta_images))

    @property
    def lattice_rank(self) -> int:
        return self.fan.ambient_rank

    @cached_property
    def beta(self) -> FgAbHom:
        return FgAbHom(
            free_group(self.lattice_rank), self.target,
            IntMatrix.from_columns(list(self.beta_images), rows=self.target.ngens))


def is_strict(sf: StackyFan) -> bool:
    return (not sf.target.torsion) and has_finite_cokernel(sf.beta)


def gbeta(sf: StackyFan) -> MappingConeDual:
    """The group G_beta of the quotient presentation, diagonalized."""
    return mapping_cone_dual(sf.beta)


def _orthant_ray_indices(fan: Fan) -> list[set[int]]:
    """1-based coordinate index sets of the maximal cones, or raise."""
    out = []
    for c in fan.maximal_cones:
        idx = set()
        for r in c.rays:
            ones = [j for j, x in enumerate(r) if x != 0]
            if len(ones) != 1 or r[ones[0]] != 1:
                raise NotSubfanOfAffineSpace(
                    f"ray {r} is not a standard basis vector")
            idx.add(ones[0] + 1)
        out.append(idx)
    return out


def primitive_collections(n: int, facesets: Sequence[set[int]]) -> list[tuple[int, ...]]:
    """Minimal subsets of {1..n} lying in no faceset, sorted lexicographically.

    For the index sets of a fan's maximal cones these are Batyrev's
    primitive collections: the minimal nonfaces, which are also the
    components V(x_i : i in S) of the removed locus (Cox-Little-Schenck,
    Toric Varieties, 5.1).  A set lies in no faceset exactly when it meets
    every faceset's complement, so they are the minimal transversals of the
    complements.  Berge's sequential method adds one complement at a time
    and keeps only the minimal sets after each step (Eiter & Gottlob 1995).
    With no facesets the empty set is the only one; a faceset of all of
    {1..n} leaves none.
    """
    full = (1 << n) - 1  # bit i - 1 stands for index i
    minimal = [0]
    for s in facesets:
        edge = full & ~sum(1 << (i - 1) for i in s)
        bits = [1 << i for i in range(n) if edge >> i & 1]
        hit = [t for t in minimal if t & edge]
        # t | b is minimal unless a set already meeting the edge lies inside it
        grown = {t | b for t in minimal if not t & edge for b in bits
                 if not any(k & ~(t | b) == 0 for k in hit)}
        minimal = hit + list(grown)
    return sorted(tuple(i + 1 for i in range(n) if t >> i & 1) for t in minimal)


@dataclass(frozen=True)
class QuotientPresentation:
    """Global quotient [U / G] with U an open torus-invariant piece of A^n.

    ``removed_locus`` lists index sets S; the removed closed set is the
    union over S of the coordinate subspaces V(x_i : i in S).  ``weights``
    columns give the character acting on each coordinate; generators of the
    character group of G^1 index the rows.  ``g0_rank`` is the rank of the
    torus factor G^0 acting through the same weights' ambient torus (zero in
    the strict case).  ``fixed_coordinates`` are 1-based coordinates pinned
    to zero, describing a closed substack.
    """

    ambient_dim: int
    removed_locus: tuple[tuple[int, ...], ...]
    group: FgAbGroup
    weights: IntMatrix
    fixed_coordinates: tuple[int, ...]
    g0_rank: int = 0

    def describe(self) -> str:
        name = group_name(self.g0_rank, self.group)
        space = f"A^{self.ambient_dim}"
        if self.removed_locus:
            # V() is the whole space: a fan with no cones removes everything
            cut = " u ".join("V(" + ",".join(f"x{i}" for i in s) + ")" if s else space
                             for s in self.removed_locus)
            space = f"{space} - ({cut})" if len(self.removed_locus) > 1 else f"{space} - {cut}"
        cols = [tuple(self.weights.column(j)) for j in range(self.weights.cols)]
        wtxt = ", ".join(str(c if len(c) != 1 else c[0]) for c in cols)
        out = f"[({space}) / {name}]"
        if cols and name != "1":
            out += f" with weights {wtxt}"
        if self.fixed_coordinates:
            out += " on " + ", ".join(f"x{i} = 0" for i in self.fixed_coordinates)
        return out


def present_quotient(sf: StackyFan, fixed_coordinates: Sequence[int] = ()) -> QuotientPresentation:
    """Quotient presentation of the stack of a fan supported on the orthant.

    The open set is A^n minus the union of the coordinate subspaces
    V(x_i : i in S) over the primitive collections S of the fan (the
    irreducible components of the vanishing locus of the irrelevant ideal).
    """
    n = sf.lattice_rank
    removed = primitive_collections(n, _orthant_ray_indices(sf.fan))
    fixed = tuple(sorted(set(int(i) for i in fixed_coordinates)))
    for i in fixed:
        if not 1 <= i <= n:
            raise ValueError(f"fixed coordinate {i} outside 1..{n}")
    mc = gbeta(sf)
    return QuotientPresentation(
        ambient_dim=n,
        removed_locus=tuple(removed),
        group=mc.g1.group,
        weights=mc.g1.weights,
        fixed_coordinates=fixed,
        g0_rank=mc.g0_rank,
    )


@dataclass(frozen=True)
class StackyMorphism:
    """Pair of maps (Phi on lattices of fans, phi on targets)."""

    source: StackyFan
    target: StackyFan
    Phi: IntMatrix
    phi: FgAbHom

    @cached_property
    def ray_images(self) -> dict[Vec, Vec]:
        """Phi on each source fan ray, computed once per morphism.

        Needs Phi of the right shape (see :attr:`problems`).
        """
        return ray_images(self.Phi, self.source.fan)

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """Shapes, the commuting square and the cone condition, checked once
        per morphism; empty exactly for a morphism of stacky fans.

        The square is one product on each side, phi·B against B'·Phi, with
        the columns reduced in the target.  A source cone maps into the
        target fan when the images of its rays lie in one maximal target
        cone; every cone of a fan is a face of a maximal one.
        """
        ls, lt = self.source.lattice_rank, self.target.lattice_rank
        if self.Phi.rows != lt or self.Phi.cols != ls:
            return (f"Phi is {self.Phi.rows}x{self.Phi.cols}, expected {lt}x{ls}",)
        if self.phi.source != self.source.target or self.phi.target != self.target.target:
            return ("phi endpoints do not match the stacky fan targets",)
        problems = []
        reduce = self.target.target.reduce
        left = (self.phi.matrix @ self.source.beta.matrix).columns()
        right = (self.target.beta.matrix @ self.Phi).columns()
        for i, (a, b) in enumerate(zip(left, right)):
            a, b = reduce(a), reduce(b)
            if a != b:
                problems.append(
                    f"square does not commute on basis vector {i + 1}: "
                    f"phi(beta(e)) = {a}, beta'(Phi(e)) = {b}")
        images = self.ray_images
        for c in self.source.fan.maximal_cones:
            if not any(all(cone_contains(tc, images[r]) for r in c.rays)
                       for tc in self.target.fan.maximal_cones):
                problems.append(
                    f"image of cone with rays {c.rays} lies in no target cone")
        return tuple(problems)


def reduce_nonstrict(sf: StackyFan) -> tuple[StackyFan, tuple[int, ...]]:
    """Replace a target with torsion by its free cover.

    Adds one lattice coordinate per torsion invariant d_j of N, one new
    orthogonal ray direction per maximal cone, and sends the new basis
    vectors to d_j times the new free generators.  The result presents the
    same stack; the returned 1-based coordinates cut out the original stack
    as a closed substack (their vanishing).  The output is strict exactly
    when beta has finite cokernel; otherwise split off the torus factor
    first (:func:`split_torus_factor`).
    """
    ell = sf.lattice_rank
    f = sf.target.free_rank
    tors = sf.target.torsion
    s = len(tors)
    new_rank = f + s
    images = [tuple(v) for v in sf.beta_images]
    for j, d in enumerate(tors):
        images.append(tuple(d if k == f + j else 0 for k in range(new_rank)))
    new_cones = []
    extra = [tuple(1 if k == ell + j else 0 for k in range(ell + s))
             for j in range(s)]
    for c in sf.fan.maximal_cones:
        rays = [r + (0,) * s for r in c.rays] + extra
        new_cones.append(Cone(ell + s, tuple(sorted(rays))))
    out = StackyFan(
        Fan(ell + s, tuple(new_cones)), free_group(new_rank), tuple(images))
    return out, tuple(range(ell + 1, ell + s + 1))


def split_torus_factor(sf: StackyFan) -> tuple[StackyFan, int]:
    """Split N into (saturation of the image of beta) + a free complement.

    Returns the stacky fan with target shrunk to the saturation, plus the
    rank of the split-off torus factor B G_m^k it accounts for.
    """
    n = sf.target.ngens
    rel = sf.target.relations()
    d = snf(sf.beta.matrix.hstack(rel))
    # U maps the saturation basis U^-1[:, :r] onto the first r unit vectors,
    # so the first r rows of U give the coordinates in it of any column of
    # [B | Q], uniquely since that basis is saturated
    coords = IntMatrix.from_rows(d.U.entries[:len(d.invariant_factors)], cols=n)
    grp, proj = cokernel_presentation(coords @ rel)
    images = tuple(proj.apply(coords.apply(v)) for v in sf.beta_images)
    return StackyFan(sf.fan, grp, images), sf.target.free_rank - grp.free_rank
