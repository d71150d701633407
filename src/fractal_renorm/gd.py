"""Graph-directed cell structure for the two-sided (pole) boundary model.

Each of the m+n level-1 cells carries two marked boundary vertices p_l
(outer) and q_l (trap-door side). A cell subdivides into m+n subcells
arranged in a ring; consecutive subcells always share their q-corner
image, share their p-corner image except at two broken junctions, and the
four cell corners are the four unglued p-corner images at those junctions.
Cells are glued to their neighbors at shared corners only.

By rotation symmetry a single form on (p0, q0, p1, q1) describes the whole
system. The cell from cell_graph carries a boundary, an index and a gluing
scheme, so solve_eigenform, is_preserved, enumerate_preserved and
rho_search take it as they take an MsStructure. This module
keeps the construction, the existence dichotomy, the exploratory solve and
the two corner relations.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DepthCapError
from .networks import ConductanceForm
from .relations import Partition
from .renorm import (DEFAULT_MAX_ITER, DEFAULT_TOL, HarmonicStructure,
                     _eta_bounds, _no_convergence, _normalized_iteration)
from .structure import MAX_LEVEL_VERTICES, GluingScheme, glue_copies

CORNER_ORDER = ("pl", "ql", "pr", "qr")  # images of (p_k, q_k, p_k+1, q_k+1)
FORM_VERTICES = ("p0", "q0", "p1", "q1")


def _check_orders(n: int, m: int) -> None:
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")


@dataclass(frozen=True)
class GdCellGraph:
    """One cell's subdivision as a gluing scheme, with its junctions.

    scheme.rows[k] lists the ids of subcell k's four corner images in
    CORNER_ORDER, and scheme.marked holds the ids of (p_cell, q_cell,
    p_cell+1, q_cell+1). broken lists the junction indices k where the
    p-merge between subcells k and k+1 is absent. boundary, index and
    scheme make the cell a structure for the shared operators; it has no
    rotation, so it is not rotation-closed.
    """

    n: int
    m: int
    cell: int
    broken: tuple[int, ...]
    scheme: GluingScheme

    boundary = FORM_VERTICES
    index = {name: i for i, name in enumerate(FORM_VERTICES)}
    rotation = None


def cell_graph(n: int, m: int, cell: int = 0) -> GdCellGraph:
    """Build the within-cell gluing for one cell (0-based index)."""
    _check_orders(n, m)
    ring = m + n
    pairs, broken = [], []
    for sub in range(ring):
        nxt = (sub + 1) % ring
        pairs.append(((sub, 3), (nxt, 1)))  # q-images always glued
        if nxt in ((n * (cell + 1)) % ring, (n * cell) % ring):
            broken.append(sub)
        else:
            pairs.append(((sub, 2), (nxt, 0)))
    rows, count = glue_copies(ring, 4, pairs)
    if count != 2 * ring + 2:
        raise AssertionError(f"cell vertex count {count} != 2*{ring}+2")
    corners = (
        rows[(n * cell) % ring][0],
        rows[(n * cell - 1) % ring][2],
        rows[(n * (cell + 1) - 1) % ring][2],
        rows[(n * (cell + 1)) % ring][0],
    )
    if len(set(corners)) != 4:
        raise AssertionError("cell corners are not distinct")
    return GdCellGraph(n=n, m=m, cell=cell, broken=tuple(broken),
                       scheme=GluingScheme(rows, corners, count))


def build_gd_structure(n: int, m: int) -> dict:
    """Glue all cells into the gd build payload: ctx, num_vertices, the
    ids of each subcell's corner images as [subcell, cell, corner, id]
    rows (1-based, sorted by subcell then cell, corners in CORNER_ORDER)
    and the ids of the glued level-1 vertices p0..q(ring-1), by name. The
    vertex count comes out to 2(m+n)^2, and one above MAX_LEVEL_VERTICES
    is refused before any cell is built."""
    _check_orders(n, m)
    ring = m + n
    if 2 * ring * ring > MAX_LEVEL_VERTICES:
        raise DepthCapError(f"the gd structure has {2 * ring * ring} "
                            f"vertices, above the cap of {MAX_LEVEL_VERTICES}")
    cells = [cell_graph(n, m, cell).scheme for cell in range(ring)]
    # the right corners (p, q) of cell c are the left ones of cell c+1
    pairs = [((cell, cells[cell].marked[2 + k]),
              ((cell + 1) % ring, cells[(cell + 1) % ring].marked[k]))
             for cell in range(ring) for k in (0, 1)]
    rows, count = glue_copies(ring, cells[0].num_ids, pairs)
    if count != 2 * ring * ring:
        raise AssertionError(f"vertex count {count} != 2*{ring}^2")
    corner_maps = [[sub + 1, cell + 1, corner, rows[cell][v]]
                   for sub in range(ring) for cell in range(ring)
                   for corner, v in zip(CORNER_ORDER, cells[cell].rows[sub])]
    level1 = {}
    for j in range(ring):
        cell = (j - 1) % ring
        level1[f"p{j}"] = rows[cell][cells[cell].marked[2]]
        level1[f"q{j}"] = rows[cell][cells[cell].marked[3]]
    return {"ctx": {"n": n, "m": m}, "num_vertices": count,
            "corner_maps": corner_maps, "level1": dict(sorted(level1.items()))}


def existence_verdict(n: int, m: int) -> str:
    """Sign test of 1/m + 1/n - 1/2; the boundary cases carry no verdict."""
    _check_orders(n, m)
    crit = Fraction(1, m) + Fraction(1, n) - Fraction(1, 2)
    if crit > 0:
        return "exists_unique"
    if crit == 0:
        return "critical_undetermined"
    return "none"


@dataclass(frozen=True)
class GdHarmonicStructure(HarmonicStructure):
    """Solve outcome for the graph-directed model.

    When existence is "exists_unique" the iteration must converge and form
    holds the normalized eigenform, with eta_bounds its enclosure of eta.
    Otherwise the iteration is exploratory: converged reports what
    happened, diagnostics carries the collapse data (pairs whose weight
    fell below the support threshold, final step size, mass-ratio
    trajectory tail), and eta_bounds is None, since the enclosure needs a
    positive eigenform that nothing shows to exist there.
    """

    existence: str
    converged: bool
    diagnostics: Mapping[str, object]


EXPLORE_ITER_CAP = 500  # iteration budget when no fixed point is expected


def gd_solve(cell: GdCellGraph, *, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER,
             init: Optional[ConductanceForm] = None) -> GdHarmonicStructure:
    """Eigenform of the four-corner form of a cell from cell_graph.

    In the existence regime this is the Newton solve of solve_eigenform,
    stopping on the same residual. Outside it the iteration is exploratory:
    plain cone iteration, whose iterates the diagnostics describe, with
    its budget capped at EXPLORE_ITER_CAP steps.
    """
    verdict = existence_verdict(cell.n, cell.m)
    exists = verdict == "exists_unique"
    budget = max_iter if exists else min(max_iter, EXPLORE_ITER_CAP)
    run = _normalized_iteration(cell, tol, budget, init, newton=exists)
    if exists and not run.converged:
        raise _no_convergence(cell, run, budget, tol)
    w = run.form
    scale = float(np.abs(w).max())
    collapsed = [[FORM_VERTICES[i], FORM_VERTICES[j]]
                 for i in range(4) for j in range(i + 1, 4)
                 if w[i, j] < 1e-10 * scale]
    diagnostics = {
        "last_step": run.step,
        "collapsed_pairs": collapsed,
        "mass_ratio_tail": [float(eta) for _, eta in run.history[-5:]],
    }
    return GdHarmonicStructure(
        form=ConductanceForm.from_matrix(FORM_VERTICES, w), eta=run.eta,
        eta_bounds=(_eta_bounds(cell.scheme, w, run.traced) if exists
                    else None),
        residual=run.residual, iterations=run.iterations, existence=verdict,
        converged=run.converged, diagnostics=diagnostics)


def _corner_partition(blocks: Sequence[Sequence[str]]) -> Partition:
    return Partition.from_blocks(blocks, ground=FORM_VERTICES)


RELATION_PQ = _corner_partition((("p0", "q0"), ("p1", "q1")))
RELATION_SIDES = _corner_partition((("p0", "p1"), ("q0", "q1")))
