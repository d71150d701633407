"""Conductance networks: weight matrices, traces, extensions, resistances.

A ConductanceForm is a finite weighted graph without self-loops, viewed as
the Dirichlet form  E(f) = sum over unordered pairs {x,y} of w_xy
(f(x)-f(y))^2.  The sum runs over unordered pairs, so weights here are
conductances of physical resistors; a convention summing ordered pairs
would double every value.

Traces are Schur complements of the graph Laplacian onto a boundary, and
harmonic extensions solve with the same interior block: _harmonic_split
gives both from one inverse of it, as the gluing schemes call it. That
block is inverted directly when the inverse is finite and the product of
the two Frobenius norms, an upper bound on the condition number, is at most
INVERSE_COND_BOUND: then no eigenvalue lies anywhere near the RANK_RTOL
cutoff and the pseudo-inverse would truncate nothing. Otherwise (a
singular block, as on a disconnected or floating interior or the
degenerate cones of the relation side, or an ill-conditioned one) the
inverse is the spectral pseudo-inverse with that relative rank cutoff.
"""
from __future__ import annotations

import warnings
from typing import Hashable, Iterable, NamedTuple, Sequence, Tuple

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


class ConductanceForm:
    """Immutable weighted graph on an ordered tuple of hashable vertex ids:
    one weight matrix in vertex order, symmetric, nonnegative and zero on
    the diagonal, where a zero entry is an absent pair. Build forms with
    from_edges or from_matrix; the constructor takes the matrix as it is
    and makes it read-only.
    """

    __slots__ = ("vertices", "index", "_matrix")

    def __init__(self, vertices: Sequence[Hashable], matrix: np.ndarray):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if matrix.shape != (len(self.vertices),) * 2:
            raise ValueError("the matrix does not match the vertex count")
        matrix.flags.writeable = False
        self._matrix = matrix

    @classmethod
    def from_edges(cls, vertices: Sequence[Hashable],
                   edges: Iterable[Tuple[Hashable, Hashable, float]]
                   ) -> "ConductanceForm":
        index = {v: i for i, v in enumerate(vertices)}
        mat = np.zeros((len(vertices),) * 2)
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
            mat[i, j] += float(w)
            mat[j, i] = mat[i, j]
        mat[~(mat > 0.0)] = 0.0  # a nan weight is an absent pair
        return cls(vertices, mat)

    @classmethod
    def from_matrix(cls, vertices: Sequence[Hashable],
                    matrix: np.ndarray) -> "ConductanceForm":
        """The symmetric part of matrix, off the diagonal, where positive."""
        mat = np.asarray(matrix, dtype=float)
        sym = 0.5 * (mat + mat.T)
        sym[~(sym > 0.0) | np.eye(len(sym), dtype=bool)] = 0.0
        return cls(vertices, sym)

    def weight(self, x: Hashable, y: Hashable) -> float:
        return float(self._matrix[self.index[x], self.index[y]])

    def pairs(self) -> Iterable[Tuple[Hashable, Hashable, float]]:
        """Yield (x, y, w) over positive-weight pairs in row-major order."""
        rows = self._matrix.tolist()
        for i, j in zip(*np.nonzero(np.triu(self._matrix))):
            yield self.vertices[i], self.vertices[j], rows[i][j]

    def matrix(self) -> np.ndarray:
        return self._matrix

    def mass(self) -> float:
        """Total conductance, one term per unordered pair."""
        return float(self._matrix.sum()) / 2.0

    def __repr__(self) -> str:
        return (f"ConductanceForm({len(self.vertices)} vertices, "
                f"{np.count_nonzero(self._matrix) // 2} pairs, "
                f"mass {self.mass():.6g})")


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
    with the index grids of the Laplacian blocks the interior solve reads."""

    boundary: np.ndarray
    interior: np.ndarray
    bi: tuple
    ii: tuple


def _split_ids(nv: int, boundary_idx: Sequence[int]) -> _Split:
    b = np.asarray(boundary_idx, dtype=np.intp)
    keep = np.ones(nv, dtype=bool)
    keep[b] = False
    interior = np.flatnonzero(keep)
    return _Split(b, interior, np.ix_(b, interior), np.ix_(interior, interior))


def _harmonic_split(matrix: np.ndarray, split: _Split
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The trace onto the boundary, as a weight matrix, and the harmonic
    extension X of the boundary basis, so that X @ fb extends boundary
    values fb; the trace is the Schur complement L_B X = L_BB + L_BI X_I."""
    lap = _laplacian(matrix)
    ext = np.zeros((len(matrix), len(split.boundary)))
    ext[split.boundary] = np.eye(len(split.boundary))
    if split.interior.size:
        ext[split.interior] = -_interior_inverse(lap[split.ii]) @ \
            lap[split.bi].T
    schur = lap[split.boundary] @ ext
    out = -0.5 * (schur + schur.T)
    np.fill_diagonal(out, 0.0)
    scale = float(np.abs(out).max()) if out.size else 0.0
    worst = float(out.min()) if out.size else 0.0
    if worst < -NEGATIVE_WEIGHT_WARN * max(scale, 1.0):
        warnings.warn(f"traced weight {worst:.3e} clamped to zero "
                      f"(scale {scale:.3e}); result may be inaccurate")
    return np.clip(out, 0.0, None), ext


def _support_labels(matrix: np.ndarray) -> np.ndarray:
    """Component of each vertex in the graph of a symmetric weight
    matrix's positive entries, named by the component's least index."""
    nv = len(matrix)
    link = (matrix > 0) | np.eye(nv, dtype=bool)
    labels, least = None, np.arange(nv)
    while not np.array_equal(labels, least):
        labels = least
        least = np.where(link, labels, nv).min(axis=1, initial=nv)
    return labels


def resistance_matrix(form: ConductanceForm,
                      vertices: Sequence[Hashable]) -> np.ndarray:
    """All pairwise effective resistances among the given vertices.

    Uses the Laplacian pseudo-inverse identity R(p,q) = M(p,p) + M(q,q) -
    2 M(p,q); requires the listed vertices to share one support component.
    """
    idx = [form.index[v] for v in vertices]
    labels = _support_labels(form.matrix())[idx]
    outside = [v for v, label in zip(vertices, labels) if label != labels[0]]
    if outside:
        raise DisconnectedError(f"vertices {outside!r} are separated from "
                                f"{vertices[0]!r}")
    pinv = _psd_pinv(_laplacian(form.matrix()))[np.ix_(idx, idx)]
    diag = np.diag(pinv)
    return diag[:, None] + diag[None, :] - 2.0 * pinv
