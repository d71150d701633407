"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports the program. The level-0 boundary, the level-1 gluing,
the closures, the partition stream, the Schur complements and the
resistance matrices are rebuilt from the parameters (n, m, theta) with
Fractions, a plain union-find and numpy's SVD-based pseudo-inverse, which
is a different route from the program's eigh-based one.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, sqrt
from typing import Iterator, Sequence

import numpy as np

EXISTS_UNIQUE = ("criteria_hold_exists_unique",
                 "no_nontrivial_relations_exists_unique")


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], x: int, y: int) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


def canonical(labels: Sequence[int]) -> tuple[int, ...]:
    """Relabel a partition given as block labels per element, by first use."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def partitions(size: int) -> Iterator[tuple[int, ...]]:
    """Every partition of range(size) as a restricted-growth string."""
    if size == 0:
        yield ()
        return
    code = [0] * size

    def rec(i: int, top: int) -> Iterator[tuple[int, ...]]:
        if i == size:
            yield tuple(code)
            return
        for c in range(top + 2):
            code[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0)


class Level1:
    """Boundary and level-1 gluing of the circle-cell structure (n, m, theta).

    The boundary is the forward orbit of the critical values under x -> n x,
    closed under rotation by 1/(m+n) exactly when gcd(n, m+n) > 1. Level 1
    is m+n copies of the boundary; copy i is glued to copy i+1 at the image
    of the critical angle theta + (i+1)/(m+n), and a boundary angle a sits
    in level 1 as n a in the copy of the cell that contains a.
    """

    def __init__(self, n: int, m: int, theta):
        ring = n + m
        theta = Fraction(theta)
        crit = [(theta + Fraction(i, ring)) % 1 for i in range(1, ring + 1)]
        orbit: set[Fraction] = set()
        frontier = {(n * c) % 1 for c in crit}
        while frontier:
            orbit |= frontier
            frontier = {(n * a) % 1 for a in frontier} - orbit
        if gcd(n, ring) > 1:
            orbit = {(a + Fraction(l, ring)) % 1
                     for a in orbit for l in range(ring)}
        self.boundary = sorted(orbit)
        self.index = {a: i for i, a in enumerate(self.boundary)}
        nb = len(self.boundary)
        parent = list(range(ring * nb))
        for i in range(ring):
            g = self.index[(n * crit[i]) % 1]
            _union(parent, i * nb + g, ((i + 1) % ring) * nb + g)
        roots = sorted({_find(parent, x) for x in range(ring * nb)})
        ids = {r: k for k, r in enumerate(roots)}
        self.num_vertices = len(roots)
        self.copies = [[ids[_find(parent, i * nb + b)] for b in range(nb)]
                       for i in range(ring)]
        self.inclusion = [
            self.copies[int(((a - theta) % 1) * ring)][self.index[(n * a) % 1]]
            for a in self.boundary]
        rotated = [(a + Fraction(1, ring)) % 1 for a in self.boundary]
        self.rotation = ([self.index[r] for r in rotated]
                         if all(r in self.index for r in rotated) else None)

    # --- relations -----------------------------------------------------
    def labels(self, blocks) -> tuple[int, ...]:
        """Canonical block labels of a partition given as blocks of angles."""
        out = [-1] * len(self.boundary)
        for k, block in enumerate(blocks):
            for a in block:
                out[self.index[Fraction(a)]] = k
        if -1 in out:
            raise ValueError("partition does not cover the boundary")
        return canonical(out)

    def closure_restriction(self, labels: Sequence[int]) -> tuple[int, ...]:
        """Level-1 closure of per-copy images, restricted to the boundary."""
        parent = list(range(self.num_vertices))
        first: dict[int, int] = {}
        for b, lab in enumerate(labels):
            first.setdefault(lab, b)
        for row in self.copies:
            for b, lab in enumerate(labels):
                _union(parent, row[first[lab]], row[b])
        return canonical([_find(parent, v) for v in self.inclusion])

    def is_preserved(self, labels: Sequence[int]) -> bool:
        return self.closure_restriction(labels) == tuple(labels)

    def rotation_invariant(self, labels: Sequence[int]) -> bool:
        if self.rotation is None:
            return False
        moved = [0] * len(labels)
        for b, lab in enumerate(labels):
            moved[self.rotation[b]] = lab
        return canonical(moved) == tuple(labels)

    def brute_force_preserved(self) -> list[tuple[int, ...]]:
        """Every preserved partition, by testing all Bell(nb) of them."""
        return [p for p in partitions(len(self.boundary))
                if self.is_preserved(p)]

    # --- forms ---------------------------------------------------------
    def form_matrix(self, form_json: dict) -> np.ndarray:
        """Weight matrix, in boundary order, of a report's embedded form."""
        nb = len(self.boundary)
        pos = [self.index[Fraction(v)] for v in form_json["vertices"]]
        if sorted(pos) != list(range(nb)):
            raise ValueError("form vertices do not match the boundary")
        w = np.zeros((nb, nb))
        for x, y, weight in form_json["edges"]:
            i, j = self.index[Fraction(x)], self.index[Fraction(y)]
            w[i, j] += weight
            w[j, i] += weight
        return w

    def renormalized(self, w0: np.ndarray) -> np.ndarray:
        """Trace onto the included boundary of the level-1 replicated form."""
        nv = self.num_vertices
        w1 = np.zeros((nv, nv))
        for row in self.copies:
            idx = np.asarray(row)
            w1[np.ix_(idx, idx)] += w0
        lap = np.diag(w1.sum(axis=1)) - w1
        b = list(self.inclusion)
        inner = sorted(set(range(nv)) - set(b))
        schur = lap[np.ix_(b, b)] - lap[np.ix_(b, inner)] @ np.linalg.pinv(
            lap[np.ix_(inner, inner)], rcond=1e-13) @ lap[np.ix_(inner, b)]
        out = -0.5 * (schur + schur.T)
        np.fill_diagonal(out, 0.0)
        return out

    def eigen_residual(self, w0: np.ndarray, eta: float) -> float:
        """Relative sup-norm defect of eta * T(w0) against w0."""
        return float(np.abs(eta * self.renormalized(w0) - w0).max()
                     / np.abs(w0).max())


def resistance_from_form(w0: np.ndarray) -> np.ndarray:
    """Pairwise effective resistances of a weight matrix (Laplacian pinv)."""
    g = np.linalg.pinv(np.diag(w0.sum(axis=1)) - w0, rcond=1e-13)
    d = np.diag(g)
    return d[:, None] + d[None, :] - 2.0 * g


def resistance_defects(matrix: np.ndarray) -> list[str]:
    """Metric properties every resistance matrix must have."""
    errors = []
    scale = float(np.abs(matrix).max())
    nv = matrix.shape[0]
    if np.abs(matrix - matrix.T).max() > 1e-12 * scale:
        errors.append("resistance matrix is not symmetric")
    if np.abs(np.diag(matrix)).max() > 1e-12 * scale:
        errors.append("resistance matrix has a nonzero diagonal")
    off = matrix[~np.eye(nv, dtype=bool)]
    if off.size and off.min() <= 0.0:
        errors.append("resistance matrix has a non-positive off-diagonal "
                      "entry")
    # R[i,k] <= R[i,j] + R[j,k] for every j
    via = matrix[:, :, None] + matrix[None, :, :]
    if (matrix[:, None, :] - via > 1e-12 * scale).any():
        errors.append("resistance matrix violates the triangle inequality")
    return errors


def family_eta(n: int, m: int, l: int) -> float:
    """Closed-form eta for theta = l/(n(m+n))."""
    a = m * n / (m + n)
    return 0.5 + a / 2 + 0.5 * sqrt((a - 1) ** 2 + 8 * l * (n - l) / (m + n))


def gd_eta_m1(n: int) -> float:
    """Eta of the graph-directed model at m = 1."""
    return (2 * n + 1) / (n + 1)


def gd_rho_table(n: int, m: int) -> dict[str, float]:
    """The graph-directed ratio table, keyed by report entry and field."""
    return {"pq_pairs.rho_over_relation": 0.5,
            "pq_pairs.rho_quotient": 1 / m + 1 / n,
            "side_pairs.rho_over_relation": 1 / n,
            "side_pairs.rho_quotient": m * n / (m + n)}
