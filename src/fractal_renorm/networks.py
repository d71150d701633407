"""Conductance networks: weight matrices, traces, extensions, resistances.

A ConductanceForm is a finite weighted graph without self-loops, viewed as
the Dirichlet form  E(f) = sum over unordered pairs {x,y} of w_xy
(f(x)-f(y))^2.  The sum runs over unordered pairs, so weights here are
conductances of physical resistors; a convention summing ordered pairs
would double every value.

Traces are Schur complements of the graph Laplacian onto a boundary;
harmonic extensions solve with the same interior block. One kernel,
GluingScheme.harmonic, gives both by one rule: an interior id that no
positive weight links to a boundary id carries no current and extends by
0, and the rest is one solve with the interior block, which is then
nonsingular (the trace of a disconnected network is the direct sum over
its components). Which ids are left out depends only on the support, so
the plan that says so is built once per support pattern. A resistance
matrix is a solve with one vertex grounded. Nothing is pseudo-inverted;
tests/_oracles.pinv_schur_trace stays the reference.
"""
from __future__ import annotations

from itertools import count
from typing import Hashable, Iterable, Sequence, Tuple

import numpy as np

from .errors import DisconnectedError

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
        ids: list[int] = []
        fresh = count()  # a root is least in its class, parents come first
        for x, p in enumerate(self.parent):
            ids.append(ids[p] if p < x else next(fresh))
        return ids, next(fresh)


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

    G solves the Laplacian on the support component of the first listed
    vertex, grounded there, for unit currents at the listed vertices, and
    R(p,q) = G(p,p) + G(q,q) - G(p,q) - G(q,p); requires the listed
    vertices to share that component.
    """
    idx = [form.index[v] for v in vertices]
    labels = _support_labels(form.matrix())
    outside = [v for v, i in zip(vertices, idx) if labels[i] != labels[idx[0]]]
    if outside:
        raise DisconnectedError(f"vertices {outside!r} are separated from "
                                f"{vertices[0]!r}")
    rest = np.flatnonzero(labels == labels[idx[0]])
    rest = rest[rest != idx[0]]
    green = np.zeros((len(labels), len(idx)))
    green[rest] = np.linalg.solve(_laplacian(form.matrix())[np.ix_(rest, rest)],
                                  (rest[:, None] == idx) * 1.0)
    green = green[idx]
    diag = np.diag(green)
    return diag[:, None] + diag[None, :] - (green + green.T)
