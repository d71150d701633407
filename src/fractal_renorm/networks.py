"""Conductance networks: weight matrices, traces, extensions, resistances.

A ConductanceForm is a finite weighted graph without self-loops, viewed as
the Dirichlet form  E(f) = sum over unordered pairs {x,y} of w_xy
(f(x)-f(y))^2.  The sum runs over unordered pairs, so weights here are
conductances of physical resistors; a convention summing ordered pairs
would double every value.

Traces are Schur complements of the graph Laplacian onto a boundary, and
harmonic extensions solve with the same interior block; both work on
weight matrices and index splits, as the gluing schemes call them. That block is
inverted directly when the inverse is finite and the product of the two
Frobenius norms, an upper bound on the condition number, is at most
INVERSE_COND_BOUND: then no eigenvalue lies anywhere near the RANK_RTOL
cutoff and the pseudo-inverse would truncate nothing. Otherwise (a
singular block, as on a disconnected or floating interior or the
degenerate cones of the relation side, or an ill-conditioned one) the
inverse is the spectral pseudo-inverse with that relative rank cutoff.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import (Hashable, Iterable, Mapping, NamedTuple, Sequence,
                    Tuple)

import numpy as np

from .errors import DisconnectedError

RANK_RTOL = 1e-12          # relative eigenvalue cutoff for pseudo-inverses
INVERSE_COND_BOUND = 1e6   # largest |A|_F |A^-1|_F of a direct inverse used
NEGATIVE_WEIGHT_WARN = 1e-12  # relative size of traced weights clamped silently


class DisjointSet:
    """Union-find with path compression; roots chosen as smallest members."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if rx > ry:
            rx, ry = ry, rx
        self.parent[ry] = rx

    def canonical_ids(self) -> tuple[list[int], int]:
        """Map each element to a dense id, numbered in root order."""
        roots = sorted({self.find(x) for x in range(len(self.parent))})
        index = {r: i for i, r in enumerate(roots)}
        return [index[self.find(x)] for x in range(len(self.parent))], len(roots)


@dataclass(frozen=True, eq=False)
class ConductanceForm:
    """Immutable weighted graph on an ordered vertex tuple.

    Weights are strictly positive; pairs with zero weight are simply absent.
    Vertex ids can be any hashable values (angles, ints, strings), and the
    tuple order fixes the canonical matrix indexing.
    """

    vertices: Tuple[Hashable, ...]
    weights: Mapping[Tuple[int, int], float]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        object.__setattr__(self, "_index",
                           {v: i for i, v in enumerate(self.vertices)})

    @classmethod
    def from_edges(cls, vertices: Sequence[Hashable],
                   edges: Iterable[Tuple[Hashable, Hashable, float]]
                   ) -> "ConductanceForm":
        index = {v: i for i, v in enumerate(vertices)}
        weights: dict[Tuple[int, int], float] = {}
        for x, y, w in edges:
            if x == y:
                raise ValueError(f"self-pair at vertex {x!r}")
            try:
                i, j = index[x], index[y]
            except KeyError as exc:
                raise ValueError(f"edge endpoint {exc.args[0]!r} is not a "
                                 "listed vertex") from None
            if w < 0:
                raise ValueError(f"negative weight {w} on pair ({x!r},{y!r})")
            if i > j:
                i, j = j, i
            weights[(i, j)] = weights.get((i, j), 0.0) + float(w)
        weights = {k: w for k, w in weights.items() if w > 0.0}
        return cls(tuple(vertices), weights)

    @classmethod
    def from_matrix(cls, vertices: Sequence[Hashable],
                    matrix: np.ndarray) -> "ConductanceForm":
        # one conversion to nested lists, then the positive pairs i < j in
        # row-major order; much cheaper than indexing numpy scalars
        mat = np.asarray(matrix, dtype=float)
        sym = (0.5 * (mat + mat.T)).tolist()
        return cls(tuple(vertices),
                   {(i, j): w for i, row in enumerate(sym)
                    for j, w in enumerate(row[i + 1:], i + 1) if w > 0.0})

    @property
    def index(self) -> Mapping[Hashable, int]:
        return self._index

    def weight(self, x: Hashable, y: Hashable) -> float:
        i, j = self._index[x], self._index[y]
        if i > j:
            i, j = j, i
        return self.weights.get((i, j), 0.0)

    def pairs(self) -> Iterable[Tuple[Hashable, Hashable, float]]:
        """Yield (x, y, w) over positive-weight pairs in index order."""
        for (i, j) in sorted(self.weights):
            yield self.vertices[i], self.vertices[j], self.weights[(i, j)]

    def matrix(self) -> np.ndarray:
        nv = len(self.vertices)
        mat = np.zeros((nv, nv))
        for (i, j), w in self.weights.items():
            mat[i, j] = mat[j, i] = w
        return mat

    def mass(self) -> float:
        """Total conductance, one term per unordered pair."""
        return float(sum(self.weights.values()))

    def support_components(self) -> list[frozenset]:
        """Connected components of the positive-weight graph."""
        dsu = DisjointSet(len(self.vertices))
        for (i, j) in self.weights:
            dsu.union(i, j)
        comps: dict[int, set] = {}
        for i, v in enumerate(self.vertices):
            comps.setdefault(dsu.find(i), set()).add(v)
        return [frozenset(c) for c in comps.values()]

    def __repr__(self) -> str:
        return (f"ConductanceForm({len(self.vertices)} vertices, "
                f"{len(self.weights)} pairs, mass {self.mass():.6g})")


def _laplacian(matrix: np.ndarray) -> np.ndarray:
    return np.diag(matrix.sum(axis=1)) - matrix


def _psd_pinv(mat: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a symmetric PSD matrix via its eigendecomposition.

    Eigenvalues below RANK_RTOL times the largest are treated as exact
    zeros, which is what makes traces over disconnected interiors correct.
    """
    if mat.size == 0:
        return mat
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    top = float(vals[-1]) if len(vals) else 0.0
    cut = RANK_RTOL * max(top, 0.0)
    inv = np.where(vals > cut, 1.0 / np.where(vals > cut, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def _interior_inverse(lii: np.ndarray) -> np.ndarray:
    """Inverse of an interior Laplacian block, direct where that is safe.

    |A|_F |A^-1|_F bounds cond_2(A) from above, so an accepted inverse has
    every eigenvalue above 1/INVERSE_COND_BOUND of the largest and equals
    the pseudo-inverse up to rounding. A singular, nonfinite or
    ill-conditioned result falls back to _psd_pinv.
    """
    try:
        inv = np.linalg.inv(lii)
    except np.linalg.LinAlgError:
        return _psd_pinv(lii)
    # a nonfinite inverse gives a nan or inf product and fails the bound
    if np.linalg.norm(lii) * np.linalg.norm(inv) <= INVERSE_COND_BOUND:
        return inv
    return _psd_pinv(lii)


class _Split(NamedTuple):
    """Ids 0..nv-1 split into a boundary, in its given order, and the rest,
    with the index grids of the Laplacian blocks a trace reads."""

    boundary: np.ndarray
    interior: np.ndarray
    bb: tuple
    bi: tuple
    ii: tuple


def _split_ids(nv: int, boundary_idx: Sequence[int]) -> _Split:
    b = np.asarray(boundary_idx, dtype=np.intp)
    keep = np.ones(nv, dtype=bool)
    keep[b] = False
    interior = np.flatnonzero(keep)
    return _Split(b, interior, np.ix_(b, b), np.ix_(b, interior),
                 np.ix_(interior, interior))


def _trace_matrix(matrix: np.ndarray, split: _Split) -> np.ndarray:
    """Schur complement of the Laplacian onto the boundary, as a weight matrix."""
    lap = _laplacian(matrix)
    schur = lap[split.bb]
    if split.interior.size:
        lbi = lap[split.bi]
        schur = schur - lbi @ _interior_inverse(lap[split.ii]) @ lbi.T
    out = -0.5 * (schur + schur.T)
    np.fill_diagonal(out, 0.0)
    scale = float(np.abs(out).max()) if out.size else 0.0
    worst = float(out.min()) if out.size else 0.0
    if worst < -NEGATIVE_WEIGHT_WARN * max(scale, 1.0):
        warnings.warn(f"traced weight {worst:.3e} clamped to zero "
                      f"(scale {scale:.3e}); result may be inaccurate")
    return np.clip(out, 0.0, None)


def _extension_matrix(matrix: np.ndarray, split: _Split,
                      fb: np.ndarray) -> np.ndarray:
    """Energy-minimizing values on all ids from boundary values fb (one
    column per data set when fb is two-dimensional)."""
    out = np.zeros((matrix.shape[0],) + fb.shape[1:])
    out[split.boundary] = fb
    if split.interior.size:
        lap = _laplacian(matrix)
        out[split.interior] = -_interior_inverse(lap[split.ii]) @ (
            lap[split.bi].T @ fb)
    return out


def flows(form: ConductanceForm,
          h: Mapping[Hashable, float]) -> dict[Hashable, float]:
    """Net current out of each vertex: (L h)(x). Zero at harmonic vertices."""
    verts = form.vertices
    hv = np.array([h[v] for v in verts], dtype=float)
    lap = _laplacian(form.matrix())
    out = lap @ hv
    return {v: float(out[i]) for i, v in enumerate(verts)}


def resistance_matrix(form: ConductanceForm,
                      vertices: Sequence[Hashable]) -> np.ndarray:
    """All pairwise effective resistances among the given vertices.

    Uses the Laplacian pseudo-inverse identity R(p,q) = M(p,p) + M(q,q) -
    2 M(p,q); requires the listed vertices to share one support component.
    """
    comps = form.support_components()
    for comp in comps:
        if vertices[0] in comp:
            outside = [v for v in vertices if v not in comp]
            if outside:
                raise DisconnectedError(
                    f"vertices {outside!r} are separated from "
                    f"{vertices[0]!r}")
            break
    idx = [form.index[v] for v in vertices]
    pinv = _psd_pinv(_laplacian(form.matrix()))[np.ix_(idx, idx)]
    diag = np.diag(pinv)
    return diag[:, None] + diag[None, :] - 2.0 * pinv
