"""Independent reference computations used by the tests.

Everything here is deliberately implemented by a different method than the
package (relaxation instead of Schur complements, closed forms instead of
iteration), so agreement is evidence rather than tautology.
"""

from fractions import Fraction
import math

import numpy as np

from fractal_renorm.errors import NonConvergenceError
from fractal_renorm.gd import cell_graph
from fractal_renorm.relations import Partition, rotation_invariant
from fractal_renorm.structure import level_vertices


def relaxed_minimum_energy(vertices, weights, boundary_values,
                           sweeps=20000, tol=1e-14):
    """Minimize the quadratic energy by Gauss-Seidel relaxation.

    weights: dict mapping frozenset({x, y}) -> conductance.
    boundary_values: dict of fixed values; all other vertices relax freely.
    Returns the minimized energy. Pure Python on purpose.
    """
    values = {v: boundary_values.get(v, 0.0) for v in vertices}
    free = [v for v in vertices if v not in boundary_values]
    neighbors = {v: [] for v in vertices}
    for pair, w in weights.items():
        if w == 0:
            continue
        x, y = tuple(pair)
        neighbors[x].append((y, w))
        neighbors[y].append((x, w))
    for _ in range(sweeps):
        change = 0.0
        for v in free:
            total = sum(w for _, w in neighbors[v])
            if total == 0:
                continue
            new = sum(w * values[u] for u, w in neighbors[v]) / total
            change = max(change, abs(new - values[v]))
            values[v] = new
        if change < tol:
            break
    return sum(w * (values[x] - values[y]) ** 2
               for (x, y), w in ((tuple(p), w) for p, w in weights.items()))


def relaxed_trace_weights(vertices, weights, boundary):
    """Traced pair conductances recovered by polarization.

    With Q the minimized quadratic over extensions, the unordered-pair
    convention gives j_xy = (Q(1_x) + Q(1_y) - Q(1_{x,y})) / 2.
    """
    def q(ones):
        bv = {b: (1.0 if b in ones else 0.0) for b in boundary}
        return relaxed_minimum_energy(vertices, weights, bv)

    single = {b: q({b}) for b in boundary}
    out = {}
    blist = list(boundary)
    for i, x in enumerate(blist):
        for y in blist[i + 1:]:
            out[frozenset({x, y})] = (single[x] + single[y] - q({x, y})) / 2.0
    return out


def pinv_schur_trace(matrix, boundary, rtol=1e-12):
    """Traced weight matrix by the pseudo-inverse Schur complement.

    The interior block of the Laplacian is inverted through its full
    eigendecomposition, with eigenvalues at most rtol times the largest
    treated as zero, so singular interiors (disconnected or floating
    parts) are handled. Reference for the package's trace kernel, which
    inverts the interior block directly where that truncates nothing.
    """
    matrix = np.asarray(matrix, dtype=float)
    boundary = list(boundary)
    interior = [i for i in range(matrix.shape[0]) if i not in boundary]
    lap = np.diag(matrix.sum(axis=1)) - matrix
    schur = lap[np.ix_(boundary, boundary)]
    if interior:
        lbi = lap[np.ix_(boundary, interior)]
        vals, vecs = np.linalg.eigh(lap[np.ix_(interior, interior)])
        cut = rtol * max(vals[-1], 0.0)
        inv = np.array([1.0 / v if v > cut else 0.0 for v in vals])
        schur = schur - lbi @ (vecs * inv) @ vecs.T @ lbi.T
    out = -0.5 * (schur + schur.T)
    np.fill_diagonal(out, 0.0)
    return np.clip(out, 0.0, None)


def family_eta(n, m, l):
    """Closed-form renormalization constant for theta = l/(n(m+n))."""
    ring = m + n
    a = Fraction(m * n, ring)
    disc = (a - 1) ** 2 + Fraction(8 * l * (n - l), ring)
    return 0.5 + float(a) / 2.0 + 0.5 * math.sqrt(float(disc))


def restriction_weights(n, m, l):
    """Restriction weights onto {0, l/(m+n), (m+l)/(m+n)}, up to scale.

    Order: (w(p0,p1), w(p0,p2), w(p1,p2)) where p1 = l/(m+n) and
    p2 = (m+l)/(m+n).
    """
    eta = family_eta(n, m, l)
    return (1.0 + m * (eta - 1.0) / l,
            1.0 + m * (eta - 1.0) / (n - l),
            eta)


def gd_eta_m1(n):
    """Known eta for the fixed-critical-point model at m = 1."""
    return (2 * n + 1) / (n + 1)


def gd_rho_values(n, m):
    """The four-entry rho table for the two corner relations.

    Order matches GdRhoTable.values(): pq max over M_J, pq quotient,
    sides max over M_J, sides quotient.
    """
    return (0.5, 1.0 / m + 1.0 / n, 1.0 / n, (m * n) / (m + n))


def partitions_rgs(items):
    """All partitions of items in restricted-growth-string order."""
    n = len(items)
    if n == 0:
        yield Partition(())
        return
    code = [0] * n

    def rec(i, top):
        if i == n:
            groups = {}
            for k, c in enumerate(code):
                groups.setdefault(c, []).append(items[k])
            yield Partition.from_blocks(groups.values())
            return
        for c in range(top + 2):
            code[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0)


def preserved_by_closure(structure, relation):
    """Whether the level-1 closure of the relation restricts back to it.

    Own union-find over level_vertices(structure, 1).copy_map, so the test
    does not lean on the package's closure or preservation code.
    """
    lv1 = level_vertices(structure, 1)
    parent = list(range(lv1.num_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    index = {a: i for i, a in enumerate(structure.boundary)}
    for row in lv1.copy_map:
        for block in relation.blocks:
            for other in block[1:]:
                parent[find(row[index[other]])] = find(row[index[block[0]]])
    root = [find(lv1.inclusion[index[a]]) for a in structure.boundary]
    block_of = {a: b for b, block in enumerate(relation.blocks) for a in block}
    nb = len(structure.boundary)
    return all((root[i] == root[j])
               == (block_of[structure.boundary[i]]
                   == block_of[structure.boundary[j]])
               for i in range(nb) for j in range(i + 1, nb))


def brute_force_preserved(structure, require_g=False):
    """Preserved relations by testing every partition, Bell(nb) of them.

    The pruned enumerator must return exactly this list, in this order.
    """
    return [cand for cand in partitions_rgs(structure.boundary)
            if not (require_g and not rotation_invariant(structure, cand))
            and preserved_by_closure(structure, cand)]


def dense_level_resistance(structure, weights, k):
    """Boundary resistances of the dense level-k network.

    weights is the level-0 weight matrix in boundary order. Its pairs are
    copied down the copy_map of each level 1..k with plain loops, the
    Laplacian of the result is pseudo-inverted by numpy, and
    R(p,q) = G(p,p) + G(q,q) - 2 G(p,q) is read at boundary_ids. Neither
    the package's assembly nor its resistance code is used. Meant for
    k <= 3, where N_k stays in the hundreds.
    """
    nb = len(structure.boundary)
    edges = {(i, j): float(weights[i][j])
             for i in range(nb) for j in range(i + 1, nb) if weights[i][j]}
    lv = level_vertices(structure, 0)
    for level in range(1, k + 1):
        lv = level_vertices(structure, level)
        glued = {}
        for row in lv.copy_map:
            for (a, b), w in edges.items():
                pair = (min(row[a], row[b]), max(row[a], row[b]))
                glued[pair] = glued.get(pair, 0.0) + w
        edges = glued
    lap = np.zeros((lv.num_vertices, lv.num_vertices))
    for (x, y), w in edges.items():
        lap[x, x] += w
        lap[y, y] += w
        lap[x, y] -= w
        lap[y, x] -= w
    green = np.linalg.pinv(lap, rcond=1e-10, hermitian=True)
    ids = list(lv.boundary_ids)
    diag = np.diag(green)[ids]
    return diag[:, None] + diag[None, :] - 2.0 * green[np.ix_(ids, ids)]


def gd_solve_all_cells(n, m, *, tol=1e-12, max_iter=20_000, seed=1):
    """Unreduced graph-directed iteration carrying one form per cell.

    Starts from an asymmetric random initial condition. Returns the final
    per-cell matrices (each on that cell's corners in local order), the
    joint eta, and the iteration count. The caller checks that all cells
    agree, which validates the package's reduction to a single form.
    """
    ring = m + n
    graphs = [cell_graph(n, m, cell) for cell in range(ring)]
    rng = np.random.default_rng(seed)
    forms = []
    for _ in range(ring):
        mat = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                mat[i, j] = mat[j, i] = 0.5 + rng.random()
        forms.append(mat)
    total = sum(f.sum() / 2.0 for f in forms)
    forms = [f * (ring / total) for f in forms]

    for iteration in range(1, max_iter + 1):
        new_forms = []
        for graph in graphs:
            big = np.zeros((graph.num_ids, graph.num_ids))
            for sub in range(ring):
                idx = np.asarray(graph.subcell_ids[sub])
                big[np.ix_(idx, idx)] += forms[sub]
            new_forms.append(pinv_schur_trace(big, graph.corners))
        total = sum(f.sum() / 2.0 for f in new_forms)
        eta = ring / total
        new_forms = [f * (ring / total) for f in new_forms]
        delta = max(float(np.abs(a - b).max())
                    for a, b in zip(new_forms, forms))
        forms = new_forms
        if delta <= tol:
            return forms, float(eta), iteration
    raise NonConvergenceError(
        f"all-cells iteration did not converge in {max_iter} steps",
        iterations=max_iter)
