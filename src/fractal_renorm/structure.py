"""Cell structure on the post-critical set and its glued refinements.

The level-0 vertex set is the post-critical set (optionally closed under
rotations). Level k arises from m+n copies of level k-1 glued along the
images of the critical angles; vertices at every level are plain integer
ids, with copy maps and inclusion maps recorded explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Mapping, Optional, Sequence

import numpy as np

from .angles import (Angle, AngleContext, cell_index, critical_angles,
                     make_context, phi_n, post_critical_set, rotate,
                     symmetrized_set, validate_ms)
from .errors import DepthCapError, InvalidMsError
from .networks import DisjointSet, _harmonic_split, _split_ids

DEFAULT_DEPTH_CAP = 12
MAX_LEVEL_VERTICES = 1_000_000  # largest level level_vertices builds


@dataclass(frozen=True)
class GluingScheme:
    """Copies of a marked vertex set glued into ids 0..num_ids-1.

    rows[c][v] is the glued id of marked vertex v in copy c; marked[v] is
    the id that v itself is included as. An MS level-1 set and a GD cell
    are both of this shape.
    """

    rows: tuple[tuple[int, ...], ...]
    marked: tuple[int, ...]
    num_ids: int

    @classmethod
    def of_level(cls, lv: "GluedVertexSet") -> "GluingScheme":
        """Level k as copies of level k-1, included along lv.inclusion."""
        return cls(lv.copy_map, lv.inclusion, lv.num_vertices)

    @cached_property
    def _index_grids(self) -> tuple:
        return tuple(np.ix_(row, row) for row in map(np.asarray, self.rows))

    def assemble(self, w: np.ndarray) -> np.ndarray:
        """One copy of the marked weight matrix per row; glued pairs add up."""
        out = np.zeros((self.num_ids, self.num_ids))
        for grid in self._index_grids:
            out[grid] += w
        return out

    @cached_property
    def split(self):
        """The marked ids, the rest, and the Laplacian block grids."""
        return _split_ids(self.num_ids, self.marked)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices (a, b), a < b, of the marked pairs in row-major order."""
        return np.triu_indices(len(self.marked), 1)

    def harmonic(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """T(w) and the extension X of the marked basis to all ids."""
        return _harmonic_split(self.assemble(w), self.split)

    def T(self, w: np.ndarray) -> np.ndarray:
        """Trace of the assembled copies back onto the marked ids."""
        return self.harmonic(w)[0]

    def residual(self, w: np.ndarray, eta: float,
                 traced: Optional[np.ndarray] = None) -> float:
        """Relative eigen defect |eta*T(w) - w|max / |w|max."""
        if traced is None:
            traced = self.T(w)
        return float(np.abs(eta * traced - w).max() / np.abs(w).max())

    def closure(self, blocks: Sequence[Sequence[int]]) -> list[int]:
        """Class of each glued id under the per-copy images of the blocks.

        Classes are numbered in order of their least id.
        """
        dsu = DisjointSet(self.num_ids)
        for row in self.rows:
            for block in blocks:
                first = row[block[0]]
                for other in block[1:]:
                    dsu.union(first, row[other])
        return dsu.canonical_ids()[0]


@dataclass(frozen=True, eq=False)
class MsStructure:
    """Level-0 data: boundary angles, gluing angles, and cell membership.

    boundary is sorted by circle position. glue_points[i] is the image of
    the i-th critical angle (1-based i, stored 0-based); these are the
    angles along which adjacent copies are glued at the next level.
    """

    ctx: AngleContext
    boundary: tuple[Angle, ...]
    glue_points: tuple[Angle, ...]
    cells: Mapping[Angle, int]
    symmetrized: bool

    @property
    def index(self) -> Mapping[Angle, int]:
        return self._index

    def __post_init__(self):
        object.__setattr__(self, "_index",
                           {a: i for i, a in enumerate(self.boundary)})

    @property
    def rotation_closed(self) -> bool:
        bset = set(self.boundary)
        return all(rotate(self.ctx, a, 1) in bset for a in self.boundary)

    @cached_property
    def scheme(self) -> GluingScheme:
        """The level-1 gluing, built on first use and kept."""
        return GluingScheme.of_level(level_vertices(self, 1))


def build_structure(ctx: AngleContext,
                    symmetrize: Optional[bool] = None) -> MsStructure:
    """Assemble the level-0 structure for a valid context.

    symmetrize=None chooses automatically: the boundary is closed under
    rotations exactly when it has to be, i.e. when gcd(n, m+n) > 1. An
    invalid context (orbit meeting the critical angles) raises InvalidMs.
    """
    report = validate_ms(ctx)
    if not report.valid:
        raise InvalidMsError(
            f"orbit returns to the critical angles: {report.violations}",
            report=report)
    base = post_critical_set(ctx)
    if symmetrize is None:
        symmetrize = gcd(ctx.n, ctx.ring_size) > 1
    boundary = symmetrized_set(ctx, base) if symmetrize else base
    glue = tuple(phi_n(c, ctx.n) for c in critical_angles(ctx))
    cells = {a: cell_index(ctx, a) for a in boundary}
    return MsStructure(ctx=ctx, boundary=boundary, glue_points=glue,
                       cells=cells, symmetrized=symmetrize)


@dataclass(frozen=True)
class GluedVertexSet:
    """Vertex ids of one refinement level with its maps.

    copy_map[i][v] is the level-k id of vertex v of level k-1 placed in copy
    i (0-based copy index). inclusion[x] is the level-k id of level k-1
    vertex x under the canonical inclusion. boundary_ids[b] tracks the
    level-0 boundary all the way up. merges records, for each gluing angle
    index i (0-based), the pair of (copy, parent vertex) slots identified
    and the resulting id.
    """

    level: int
    num_vertices: int
    copy_map: tuple[tuple[int, ...], ...]
    inclusion: tuple[int, ...]
    boundary_ids: tuple[int, ...]
    merges: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]
    representatives: tuple[tuple[int, int], ...] = field(repr=False, default=())


def _level_zero(structure: MsStructure) -> GluedVertexSet:
    nb = len(structure.boundary)
    ident = tuple(range(nb))
    return GluedVertexSet(level=0, num_vertices=nb, copy_map=(),
                          inclusion=ident, boundary_ids=ident, merges=())


def _glue_ids(structure: MsStructure, prev: GluedVertexSet) -> list[int]:
    # level-(k-1) ids of the gluing angles, via the tracked boundary
    return [prev.boundary_ids[structure.index[r]] for r in structure.glue_points]


def _next_level(structure: MsStructure, prev: GluedVertexSet) -> GluedVertexSet:
    ring = structure.ctx.ring_size
    prev_n = prev.num_vertices
    dsu = DisjointSet(ring * prev_n)
    glue = _glue_ids(structure, prev)
    for i in range(ring):
        dsu.union(i * prev_n + glue[i], ((i + 1) % ring) * prev_n + glue[i])
    ids, count = dsu.canonical_ids()
    if count != ring * (prev_n - 1):
        raise AssertionError(
            f"glued vertex count {count} != {ring}*({prev_n}-1)")
    copy_map = tuple(tuple(ids[i * prev_n + v] for v in range(prev_n))
                     for i in range(ring))
    merges = tuple(((i, glue[i]), ((i + 1) % ring, glue[i]),
                    copy_map[i][glue[i]])
                   for i in range(ring))

    if prev.level == 0:
        ctx = structure.ctx
        inclusion = tuple(
            copy_map[structure.cells[a] - 1][structure.index[phi_n(a, ctx.n)]]
            for a in structure.boundary)
    else:
        inclusion = tuple(
            copy_map[j][prev.inclusion[v]]
            for (j, v) in prev.representatives)
    if len(set(inclusion)) != len(inclusion):
        raise AssertionError("inclusion map is not injective")

    reps = [None] * count
    for i in range(ring):
        for v in range(prev_n):
            if reps[copy_map[i][v]] is None:
                reps[copy_map[i][v]] = (i, v)
    boundary_ids = tuple(inclusion[b] for b in prev.boundary_ids)
    return GluedVertexSet(level=prev.level + 1, num_vertices=count,
                          copy_map=copy_map, inclusion=inclusion,
                          boundary_ids=boundary_ids, merges=merges,
                          representatives=tuple(reps))


def _check_level(k: int, depth_cap: int) -> None:
    if k < 0:
        raise ValueError(f"level must be nonnegative, got {k}")
    if k > depth_cap:
        raise DepthCapError(f"level {k} exceeds the depth cap {depth_cap}")


def level_size(structure: MsStructure, k: int,
               depth_cap: int = DEFAULT_DEPTH_CAP) -> int:
    """Vertex count of level k without building it.

    m+n copies of level k-1 glued at m+n points: N_k = (m+n)(N_{k-1} - 1).
    """
    _check_level(k, depth_cap)
    size = len(structure.boundary)
    for _ in range(k):
        size = structure.ctx.ring_size * (size - 1)
    return size


def level_vertices(structure: MsStructure, k: int,
                   depth_cap: int = DEFAULT_DEPTH_CAP) -> GluedVertexSet:
    """Build the level-k glued vertex set, refusing, before building
    anything, a level beyond the depth cap or above MAX_LEVEL_VERTICES."""
    size = level_size(structure, k, depth_cap)
    if size > MAX_LEVEL_VERTICES:
        raise DepthCapError(f"level {k} has {size} vertices, above the cap "
                            f"of {MAX_LEVEL_VERTICES}")
    lv = _level_zero(structure)
    for _ in range(k):
        lv = _next_level(structure, lv)
    return lv


def structure_to_json(structure: MsStructure) -> dict:
    ctx = structure.ctx
    return {
        "ctx": {"n": ctx.n, "m": ctx.m, "theta": str(ctx.theta)},
        "symmetrized": structure.symmetrized,
        "boundary": [str(a) for a in structure.boundary],
        "glue_points": [str(a) for a in structure.glue_points],
        "cells": {str(a): structure.cells[a] for a in structure.boundary},
    }


def structure_from_json(data: dict) -> MsStructure:
    """Rebuild a structure from its JSON form and cross-check the payload."""
    ctx = make_context(int(data["ctx"]["n"]), int(data["ctx"]["m"]),
                       Fraction(data["ctx"]["theta"]))
    structure = build_structure(ctx, symmetrize=bool(data["symmetrized"]))
    stated = [Fraction(a) for a in data["boundary"]]
    actual = [a.as_fraction() for a in structure.boundary]
    if stated != actual:
        raise ValueError("boundary angles in payload do not match the "
                         "structure rebuilt from its context")
    return structure


def levels_to_json(lv: GluedVertexSet) -> dict:
    merges = []
    for (ca, pa), (cb, pb), vid in lv.merges:
        merges.append([ca, pa, vid])
        merges.append([cb, pb, vid])
    return {
        "level": lv.level,
        "num_vertices": lv.num_vertices,
        "merges": merges,
        "inclusion": [[old, new] for old, new in enumerate(lv.inclusion)],
    }
