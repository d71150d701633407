"""Cell structure on the post-critical set and its glued refinements.

The level-0 vertex set is the post-critical set (optionally closed under
rotations). Level k arises from m+n copies of level k-1 glued along the
images of the critical angles; each level is a GluingScheme of those
copies, over plain integer ids, and glue_copies is the one gluing step
that MS levels and graph-directed cells share.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .angles import (Angle, AngleContext, cell_index, critical_angles,
                     make_context, phi_n, post_critical_set, rotate,
                     symmetrized_set, validate_ms)
from .errors import DepthCapError, InvalidMsError
from .networks import DisjointSet, _harmonic_split, _split_ids

DEPTH_CAP = 12  # highest level level_size and level_vertices accept
MAX_LEVEL_VERTICES = 1_000_000  # largest level level_vertices builds


@dataclass(frozen=True)
class GluingScheme:
    """Copies of a marked vertex set glued into ids 0..num_ids-1.

    rows[c][v] is the glued id of marked vertex v in copy c; marked[v] is
    the id that v itself is included as. An MS level (copies of the level
    below) and a GD cell (copies of the four-corner cell) are both of this
    shape.
    """

    rows: tuple[tuple[int, ...], ...]
    marked: tuple[int, ...]
    num_ids: int

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

    @cached_property
    def rotation(self) -> Optional[tuple[int, ...]]:
        """rotation[i] is the boundary index of boundary[i] rotated by
        1/(m+n), or None when the boundary is not rotation-closed."""
        rotated = [self.index.get(rotate(self.ctx, a, 1))
                   for a in self.boundary]
        return None if None in rotated else tuple(rotated)

    @cached_property
    def scheme(self) -> GluingScheme:
        """The level-1 gluing, built on first use and kept."""
        return level_vertices(self, 1)


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


def glue_copies(copies: int, size: int, pairs: Iterable
                ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Glue copies of the ids 0..size-1 and number the glued ids.

    Each pair ((c, v), (d, u)) identifies vertex v of copy c with vertex u
    of copy d. Returns rows, with rows[c][v] the glued id of vertex v of
    copy c, and the number of glued ids; ids are numbered in order of their
    least slot c*size + v.
    """
    dsu = DisjointSet(copies * size)
    for (c, v), (d, u) in pairs:
        dsu.union(c * size + v, d * size + u)
    ids, count = dsu.canonical_ids()
    return tuple(tuple(ids[c * size:(c + 1) * size])
                 for c in range(copies)), count


def _next_level(structure: MsStructure, prev: GluingScheme,
                boundary: Sequence[int]) -> GluingScheme:
    """Level k from level k-1 (prev) and the level-(k-1) ids of the
    level-0 boundary."""
    ring = structure.ctx.ring_size
    glue = [boundary[structure.index[r]] for r in structure.glue_points]
    rows, count = glue_copies(ring, prev.num_ids,
                              (((i, g), ((i + 1) % ring, g))
                               for i, g in enumerate(glue)))
    if count != ring * (prev.num_ids - 1):
        raise AssertionError(
            f"glued vertex count {count} != {ring}*({prev.num_ids}-1)")
    if not prev.rows:
        ctx = structure.ctx
        marked = tuple(
            rows[structure.cells[a] - 1][structure.index[phi_n(a, ctx.n)]]
            for a in structure.boundary)
    else:
        # an id x = prev.rows[j][v] goes where copy j puts prev.marked[v]
        included = [0] * prev.num_ids
        for row, new_row in zip(prev.rows, rows):
            for v, x in enumerate(row):
                included[x] = new_row[prev.marked[v]]
        marked = tuple(included)
    if len(set(marked)) != len(marked):
        raise AssertionError("inclusion map is not injective")
    return GluingScheme(rows, marked, count)


def level_size(structure: MsStructure, k: int) -> int:
    """Vertex count of level k without building it.

    m+n copies of level k-1 glued at m+n points: N_k = (m+n)(N_{k-1} - 1).
    """
    if k < 0:
        raise ValueError(f"level must be nonnegative, got {k}")
    if k > DEPTH_CAP:
        raise DepthCapError(f"level {k} exceeds the depth cap {DEPTH_CAP}")
    size = len(structure.boundary)
    for _ in range(k):
        size = structure.ctx.ring_size * (size - 1)
    return size


def level_vertices(structure: MsStructure, k: int) -> GluingScheme:
    """Level k as the gluing of m+n copies of level k-1, refusing, before
    building anything, a level beyond DEPTH_CAP or above
    MAX_LEVEL_VERTICES. Level 0 is the boundary with no copies."""
    size = level_size(structure, k)
    if size > MAX_LEVEL_VERTICES:
        raise DepthCapError(f"level {k} has {size} vertices, above the cap "
                            f"of {MAX_LEVEL_VERTICES}")
    boundary = tuple(range(len(structure.boundary)))
    scheme = GluingScheme((), boundary, len(boundary))
    for _ in range(k):
        scheme = _next_level(structure, scheme, boundary)
        boundary = tuple(scheme.marked[b] for b in boundary)
    return scheme


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


def levels_to_json(scheme: GluingScheme, level: int) -> dict:
    """The level's id count, its inclusion and, for consecutive copies i
    and i+1 (cyclically), the copy slots of the one id they share."""
    ring = len(scheme.rows)
    merges = []
    for i, row in enumerate(scheme.rows):
        nxt = scheme.rows[(i + 1) % ring]
        (vid,) = set(row).intersection(nxt)
        merges.append([i, row.index(vid), vid])
        merges.append([(i + 1) % ring, nxt.index(vid), vid])
    return {
        "level": level,
        "num_vertices": scheme.num_ids,
        "merges": merges,
        "inclusion": [[old, new] for old, new in enumerate(scheme.marked)],
    }
