"""Cell structure on the post-critical set and its glued refinements.

The level-0 vertex set is the post-critical set (optionally closed under
rotations), built on residues mod the context's modulus: Angle objects
are made once, for the boundary, glue points and cell keys, and the
rotation and level-1 inclusion look residues up in slot. Level k arises
from m+n copies of level k-1 glued along the images of the critical
angles; each level is a GluingScheme of those copies, over plain integer
ids, and glue_copies is the one gluing step that MS levels and
graph-directed cells share.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import networks
from .angles import (Angle, AngleContext, cell_of, critical_orbits,
                     critical_residues, make_context, rotation_closure)
from .errors import DepthCapError, InvalidMsError
from .networks import DisjointSet

DEPTH_CAP = 12  # highest level level_size and level_vertices accept
MAX_LEVEL_VERTICES = 1_000_000  # largest level level_vertices builds
# a negative traced weight within this of the scale (at least 1) is rounding
TRACE_NEGATIVE_ROUNDING = 1e-12


@dataclass(frozen=True)
class GluingScheme:
    """Copies of a marked vertex set glued into ids 0..num_ids-1.

    rows[c][v] is the glued id of marked vertex v in copy c; marked[v] is
    the id that v itself is included as. An MS level (copies of the level
    below) and a GD cell (copies of the four-corner cell) are both of this
    shape, and so is one copy of all ids, which traces onto a subset.
    """

    rows: tuple[tuple[int, ...], ...]
    marked: tuple[int, ...]
    num_ids: int

    def _plan(self, w: np.ndarray) -> tuple[np.ndarray, ...]:
        """The plan of w's support pattern, built on the first call with
        that pattern and kept on the scheme in _plans, by its bytes."""
        support = w > 0
        key = support.tobytes()
        plans = vars(self).setdefault("_plans", {})
        if key not in plans:
            plans[key] = self._build_plan(support)
        return plans[key]

    def _build_plan(self, support: np.ndarray) -> tuple[np.ndarray, ...]:
        """Plan order puts the marked ids first, then the live ids (those
        the support links to a marked id) and the floating rest, each in
        id order: w.ravel()[source[k]] adds to entry flat[k] of the
        flattened glued matrix on the first size ids, the marked and live
        ones, and pos[x] is the position of id x. A floating id carries no
        current, so it is left out and extends by 0."""
        nv, marked = self.num_ids, list(self.marked)
        rows = np.reshape(np.array(self.rows, dtype=np.intp),
                          (len(self.rows), len(support)))
        a, b = np.nonzero(support)
        link = np.zeros((nv, nv), dtype=bool)
        link[rows[:, a], rows[:, b]] = True
        labels = networks._support_labels(link)
        reached = np.zeros(nv, dtype=bool)
        reached[labels[marked]] = True
        rank = np.where(reached[labels], 1, 2)  # 1 live, 2 floating
        rank[marked] = 0
        order = np.argsort(rank, kind="stable")
        order[:len(marked)] = marked
        pos = np.argsort(order)
        size = int((rank < 2).sum())
        ends = pos[rows[:, a]], pos[rows[:, b]]
        keep = (ends[0] < size).ravel()
        flat = (ends[0] * size + ends[1]).ravel()[keep]
        source = np.tile(a * len(support) + b, len(rows))[keep]
        return flat, source, pos, size

    def assemble(self, w: np.ndarray) -> np.ndarray:
        """One copy of the marked weight matrix per row; glued pairs add up."""
        nv, rows = self.num_ids, np.reshape(np.array(self.rows, dtype=np.intp),
                                            (len(self.rows), len(w)))
        flat = (rows[:, :, None] * nv + rows[:, None, :]).ravel()
        return np.bincount(flat, np.tile(w.ravel(), len(rows)),
                           nv * nv).reshape(nv, nv)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices (a, b), a < b, of the marked pairs in row-major order."""
        return np.triu_indices(len(self.marked), 1)

    def harmonic(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """T(w) and the extension X of the marked basis to all ids (X @ fb
        extends marked values fb). With A the glued copies in plan order, B
        the marked ids and I the live ones, X_I solves L_II X_I = A_IB for
        the Laplacian L, and T(w) = A_BB + A_BI X_I off the diagonal.
        Every live component holds a marked id, so L_II is nonsingular;
        the plan is kept per support of w, whose positive entries are the
        pairs. LinAlgError when rounding makes L_II singular or leaves a
        traced weight negative beyond TRACE_NEGATIVE_ROUNDING."""
        nb = len(self.marked)
        flat, source, pos, size = self._plan(w)
        glued = np.bincount(flat, w.take(source), size * size
                            ).reshape(size, size)
        interior = glued[nb:, nb:]  # made L_II in place
        interior[...] = np.diag(glued[nb:].sum(axis=1)) - interior
        try:
            ext_i = np.linalg.solve(interior, glued[nb:, :nb])
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                "the interior block of the trace became singular as the "
                "weights collapsed") from None
        traced = glued[:nb, :nb] + glued[:nb, nb:] @ ext_i
        traced = 0.5 * (traced + traced.T)
        np.fill_diagonal(traced, 0.0)
        worst = float(traced.min(initial=0.0))
        if worst < 0.0:
            scale = float(np.abs(traced).max())
            if worst < -TRACE_NEGATIVE_ROUNDING * max(scale, 1.0):
                raise np.linalg.LinAlgError(
                    f"traced weight {worst:.3e} at scale {scale:.3e} is "
                    "negative beyond rounding")
            np.clip(traced, 0.0, None, out=traced)
        floating = np.zeros((len(pos) - size, nb))
        return traced, np.concatenate((np.eye(nb), ext_i, floating))[pos]

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

    boundary is sorted by circle position, and cells is keyed in its
    order. glue_points[i] is the image of the i-th critical angle (1-based
    i, stored 0-based); these are the angles along which adjacent copies
    are glued at the next level.
    """

    ctx: AngleContext
    boundary: tuple[Angle, ...]
    glue_points: tuple[Angle, ...]
    cells: Mapping[Angle, int]
    symmetrized: bool

    @cached_property
    def index(self) -> Mapping[Angle, int]:
        return {a: i for i, a in enumerate(self.boundary)}

    @cached_property
    def slot(self) -> Mapping[int, int]:
        """The boundary index of each boundary residue."""
        return {a[0]: i for i, a in enumerate(self.boundary)}

    @cached_property
    def rotation(self) -> Optional[tuple[int, ...]]:
        """rotation[i] is the boundary index of boundary[i] rotated by
        1/(m+n), or None when the boundary is not rotation-closed."""
        slot, step, modulus = self.slot, self.ctx.step, self.ctx.modulus
        rotated = [slot.get((r + step) % modulus) for r, _ in self.boundary]
        return None if None in rotated else tuple(rotated)

    @cached_property
    def scheme(self) -> GluingScheme:
        """The level-1 gluing, built on first use and kept."""
        return level_vertices(self, 1)


def symmetrize_rule(ctx: AngleContext, symmetrize: Optional[bool]) -> bool:
    """Whether build_structure(ctx, symmetrize) closes the boundary under
    rotations: for None exactly when it must, when gcd(n, m+n) > 1."""
    return gcd(ctx.n, ctx.ring_size) > 1 if symmetrize is None else symmetrize


def build_structure(ctx: AngleContext,
                    symmetrize: Optional[bool] = None) -> MsStructure:
    """Assemble the level-0 structure for a valid context, its boundary
    closed under rotations as symmetrize_rule(ctx, symmetrize) says. An
    invalid context (orbit meeting the critical angles) raises InvalidMs.
    """
    report, base = critical_orbits(ctx)
    if not report.valid:
        raise InvalidMsError(
            f"orbit returns to the critical angles: {report.violations}",
            report=report)
    symmetrize = symmetrize_rule(ctx, symmetrize)
    if symmetrize:
        base = rotation_closure(ctx, base)
    boundary = tuple(Angle(r, ctx.modulus) for r in base)
    glue = tuple(Angle(r * ctx.n % ctx.modulus, ctx.modulus)
                 for r in critical_residues(ctx))
    # a valid orbit misses the critical angles, so each point has a cell
    cells = {a: cell_of(ctx, a[0]) for a in boundary}
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
    ctx, slot, ring = structure.ctx, structure.slot, structure.ctx.ring_size
    glue = [boundary[slot[r]] for r, _ in structure.glue_points]
    rows, count = glue_copies(ring, prev.num_ids,
                              (((i, g), ((i + 1) % ring, g))
                               for i, g in enumerate(glue)))
    if count != ring * (prev.num_ids - 1):
        raise AssertionError(
            f"glued vertex count {count} != {ring}*({prev.num_ids}-1)")
    if not prev.rows:  # boundary point a goes to phi_n(a) in its cell
        marked = tuple(rows[cell - 1][slot[a[0] * ctx.n % ctx.modulus]]
                       for a, cell in structure.cells.items())
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
    MAX_LEVEL_VERTICES. Level 0 is the boundary with no copies; above
    level 1 the glue starts from the structure's own level 1."""
    size = level_size(structure, k)
    if size > MAX_LEVEL_VERTICES:
        raise DepthCapError(f"level {k} has {size} vertices, above the cap "
                            f"of {MAX_LEVEL_VERTICES}")
    boundary = tuple(range(len(structure.boundary)))
    scheme = GluingScheme((), boundary, len(boundary))
    for level in range(1, k + 1):
        scheme = (structure.scheme if level == 1 and k > 1
                  else _next_level(structure, scheme, boundary))
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
    """Rebuild a structure from its JSON form and cross-check the payload;
    KeyError for a missing key, TypeError for a ctx or boundary misshapen,
    ValueError for an angle with a zero denominator or a boundary that
    is not the context's."""
    ctx = data["ctx"]
    if not isinstance(ctx, dict):
        raise TypeError(f"ctx must be an object, not {ctx!r}")
    ctx = make_context(int(ctx["n"]), int(ctx["m"]), ctx["theta"])
    structure = build_structure(ctx, symmetrize=bool(data["symmetrized"]))
    boundary = data["boundary"]
    if not isinstance(boundary, list):
        raise TypeError(f"boundary must be a list of angles, not {boundary!r}")
    try:
        stated = [Fraction(a) for a in boundary]
    except ZeroDivisionError:
        raise ValueError("a boundary angle has a zero denominator") from None
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
