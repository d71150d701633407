"""Independent reference computations used by the tests.

Everything here is deliberately implemented by a different method than the
package (relaxation instead of Schur complements, closed forms instead of
iteration, pair-by-pair loops instead of matrix assembly), so agreement is
evidence rather than tautology. The form-level references (energy, the
paper's constructed star and cycle witnesses, rotation averages and block
quotients) are the edges the tests read the package's weight matrices
through.
"""

from fractions import Fraction
import functools
import math
import sys

import numpy as np

from fractal_renorm.angles import Angle, critical_orbits, make_context
from fractal_renorm.errors import KappaUndefinedError, NonConvergenceError
from fractal_renorm.gd import GdCellGraph, cell_graph
from fractal_renorm import relations
from fractal_renorm.networks import ConductanceForm
from fractal_renorm.relations import Partition
from fractal_renorm.structure import build_structure, level_vertices


def energy(form, f, g=None):
    """Evaluate the form: E(f) or, with two arguments, E(f, g) by polarization.

    Pair by pair over the form's weights, one term per unordered pair; the
    reference for the Rayleigh quotients the package takes on matrices.
    Every vertex must have a value; a missing one raises KeyError.
    """
    verts = form.vertices
    fv = np.array([f[v] for v in verts], dtype=float)
    gv = fv if g is None else np.array([g[v] for v in verts], dtype=float)
    total = 0.0
    for x, y, w in form.pairs():
        i, j = form.index[x], form.index[y]
        total += w * (fv[i] - fv[j]) * (gv[i] - gv[j])
    return float(total)


def support_components(vertices, w):
    """Connected components of the positive pairs of a weight matrix w on
    vertices, each vertex's neighbourhood merged with every component it
    meets; the reference for the package's support labels."""
    comps = []
    for i, x in enumerate(vertices):
        comp = {x} | {y for j, y in enumerate(vertices) if w[i][j] > 0}
        for c in [c for c in comps if c & comp]:
            comps.remove(c)
            comp |= c
        comps.append(comp)
    return {frozenset(c) for c in comps}


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

    Order: pq max over M_J, pq quotient, sides max over M_J, sides
    quotient, the rho_over of rho_search on each relation and side.
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

    Own union-find over the rows of level_vertices(structure, 1), or of a
    GD cell's own scheme, so the test does not lean on the package's
    closure or preservation code.
    """
    lv1 = (structure.scheme if isinstance(structure, GdCellGraph)
           else level_vertices(structure, 1))
    parent = list(range(lv1.num_ids))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    index = {a: i for i, a in enumerate(structure.boundary)}
    for row in lv1.rows:
        for block in relation.blocks:
            for other in block[1:]:
                parent[find(row[index[other]])] = find(row[index[block[0]]])
    root = [find(lv1.marked[index[a]]) for a in structure.boundary]
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
            if not (require_g and not rotated_by_angles(structure, cand))
            and preserved_by_closure(structure, cand)]


def boundary_order_preserved(structure, require_g=False):
    """Preserved relations by the pruned search in boundary order.

    The package's search before it visited points image-first, kept as
    the reference up to nb = 15: a depth-first restricted-growth search
    over boundary indices 0, 1, ..., with one undoable union-find on the
    level-1 ids carrying the closure of the partial assignment, root
    labels naming the block whose inclusions a root holds, and each
    implication (p, q, g(p), g(q)) checked at the node that assigns the
    largest of the four indices. Its answers come out in RGS order.
    """
    nb = len(structure.boundary)
    scheme = structure.scheme
    rows = scheme.rows
    incl = scheme.marked
    parent = list(range(scheme.num_ids))
    size = [1] * scheme.num_ids
    label = [-1] * scheme.num_ids
    undo_log = []

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return True
        lx, ly = label[rx], label[ry]
        if lx != ly and lx >= 0 and ly >= 0:
            return False
        if size[rx] < size[ry]:
            rx, ry, lx, ly = ry, rx, ly, lx
        parent[ry] = rx
        size[rx] += size[ry]
        undo_log.append(ry)
        if lx < 0 <= ly:
            label[rx] = ly
            undo_log.append(~rx)
        return True

    def undo(mark):
        while len(undo_log) > mark:
            entry = undo_log.pop()
            if entry < 0:
                label[~entry] = -1
            else:
                size[parent[entry]] -= size[entry]
                parent[entry] = entry

    maps = []
    vertex_of = {}
    if all(vertex_of.setdefault(x, v) == v
           for row in rows for v, x in enumerate(row)):
        maps.append([vertex_of[x] for x in incl])
    if require_g:
        rotation = structure.rotation
        power = rotation
        for _ in range(structure.ctx.ring_size - 1):
            maps.append(power)
            power = [rotation[p] for p in power]
    implied = [[] for _ in range(nb)]
    for g in maps:
        for q in range(nb):
            for p in range(q):
                if g[p] != g[q]:
                    quad = (p, q, g[p], g[q])
                    implied[max(quad)].append(quad)

    code = [0] * nb
    first = []
    out = []

    def emit():
        if any(find(incl[p]) != find(incl[first[code[p]]])
               for p in range(nb)):
            return
        groups = [[] for _ in first]
        for p, c in enumerate(code):
            groups[c].append(structure.boundary[p])
        out.append(Partition.from_blocks(groups))

    def rec(i):
        if i == nb:
            emit()
            return
        root = find(incl[i])
        forced = label[root]
        opened = len(first)
        for c in (forced,) if forced >= 0 else range(opened + 1):
            code[i] = c
            if not all(code[p] != code[q] or code[gp] == code[gq]
                       for p, q, gp, gq in implied[i]):
                continue
            mark = len(undo_log)
            if forced < 0:
                label[root] = c
                undo_log.append(~root)
            if c == opened:
                first.append(i)
                rec(i + 1)
                first.pop()
            elif all(union(row[first[c]], row[i]) for row in rows):
                rec(i + 1)
            undo(mark)

    rec(0)
    return out


@functools.lru_cache(maxsize=1)
def _glue_arcs(structure):
    """For the glue-arc rule: the boundary index of phi_n(a) and the cell
    of each boundary angle a, and arcs[c][d], the boundary indices of the
    glue points on the arc of the ring of cells from cell c to cell d."""
    ctx, index = structure.ctx, structure.index
    ring = ctx.ring_size
    glue = [index[g] for g in structure.glue_points]
    arcs = [[[glue[e % ring] for e in range(c, d + ring * (d < c))]
             for d in range(ring)] for c in range(ring)]
    return ([index[phi_n(a, ctx.n)] for a in structure.boundary],
            [structure.cells[a] - 1 for a in structure.boundary], arcs)


def glue_arc_preserved(structure, relation):
    """Whether F(J) = J, with F(J), the level-1 closure of J restricted to
    the boundary, by the glue-arc rule read off the MS structure's
    angles: a and a' are related exactly when phi_n(a) ~_J phi_n(a') and
    one of the two arcs of the ring of cells from the cell of a to that of
    a' has every glue point (the image of the critical angle between two
    cells) in phi_n(a)'s block."""
    f, cell, arcs = _glue_arcs(structure)
    index = structure.index
    block = [0] * len(index)
    for b, members in enumerate(relation.blocks):
        for a in members:
            block[index[a]] = b

    def related(p, q):
        here = block[f[p]]
        return block[f[q]] == here and any(
            all(block[g] == here for g in arc)
            for arc in (arcs[cell[p]][cell[q]], arcs[cell[q]][cell[p]]))

    return all(related(p, q) == (block[p] == block[q])
               for q in range(len(block)) for p in range(q))


def search_counts(structure, require_g=False, cap=None):
    """enumerate_preserved's answers with the nodes and leaves its search
    visited: a profile hook counts the calls of its recursion (nodes) and
    of its leaf test (leaves)."""
    counts = {"rec": 0, "emit": 0}
    source = relations.__file__

    def hook(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name in counts
                and code.co_filename == source):
            counts[code.co_name] += 1

    kwargs = {} if cap is None else {"cap": cap}
    sys.setprofile(hook)
    try:
        found = relations.enumerate_preserved(structure, require_g, **kwargs)
    finally:
        sys.setprofile(None)
    return found, counts["rec"], counts["emit"]


def rotated_by_angles(structure, relation):
    """Whether rotating every angle by 1/(m+n) gives the same partition,
    through rotate rather than the structure's cached rotation."""
    return Partition.from_blocks(
        [[rotate(structure.ctx, a, 1) for a in b]
         for b in relation.blocks]) == relation


def phi_n(a, n):
    """The degree-n circle map [x] -> [n x] on an Angle."""
    return Angle(a.residue * n % a.modulus, a.modulus)


def rotate(ctx, a, l):
    """An Angle rotated by l/(m+n)."""
    return Angle((a.residue + l * ctx.step) % ctx.modulus, ctx.modulus)


def critical_angles(ctx):
    """The critical Angles c_i = theta + i/(m+n), i = 1..m+n, so that
    c_(m+n) is theta."""
    return tuple(rotate(ctx, ctx.theta, i)
                 for i in range(1, ctx.ring_size + 1))


def circle_distance(a, b):
    """The shorter arc between two Angles of one modulus, as a Fraction;
    ValueError for two moduli."""
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} != {b.modulus}")
    diff = (a.residue - b.residue) % a.modulus
    return Fraction(min(diff, a.modulus - diff), a.modulus)


def block_containing(relation, x):
    """The block of a Partition that holds x."""
    return next(b for b in relation.blocks if x in b)


def partition_from_pairs(ground, pairs):
    """The finest Partition of ground that relates every given pair, by a
    union-find on the elements themselves."""
    parent = {x: x for x in ground}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    groups = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return Partition.from_blocks(groups.values())


def angle_kappa(ctx):
    """kappa along the route of Angle objects: each critical angle mapped
    by phi_n, and the cell of its image read off the offset from theta;
    KappaUndefinedError, with the package's messages, when an image is
    critical or two images share a cell."""
    inverse = {}
    for j, c in enumerate(critical_angles(ctx), start=1):
        offset = (phi_n(c, ctx.n).residue - ctx.theta.residue) % ctx.modulus
        if offset % ctx.step == 0:
            raise KappaUndefinedError(
                f"image of critical angle {j} is itself critical; "
                "no containing cell")
        cell = offset // ctx.step + 1
        if cell in inverse:
            raise KappaUndefinedError(
                f"critical angles {inverse[cell]} and {j} both map into "
                f"cell {cell}")
        inverse[cell] = j
    return tuple(inverse[i] for i in range(1, ctx.ring_size + 1))


def angle_J_plus_minus(structure):
    """build_J_plus_minus along the route of Angle objects: the generating
    pairs as two-element sets, their images under phi_n added while they
    are new and still two-element, the finest partition of the boundary
    and the pairs' points that relates them, and that partition restricted
    to the boundary."""
    ctx = structure.ctx
    ring, crits, perm = ctx.ring_size, critical_angles(ctx), angle_kappa(ctx)
    boundary = set(structure.boundary)
    results = []
    for shift in (0, -1):
        edges = {e for i in range(ring)
                 for e in [frozenset((crits[(i + shift) % ring],
                                      phi_n(crits[perm[i] - 1], ctx.n)))]
                 if len(e) == 2}
        frontier = edges
        while frontier:
            frontier = {image for e in frontier
                        for image in [frozenset(phi_n(a, ctx.n) for a in e)]
                        if len(image) == 2} - edges
            edges = edges | frontier
        joined = partition_from_pairs(
            boundary.union(*edges), [tuple(e) for e in edges])
        results.append(Partition.from_blocks(
            [[a for a in b if a in boundary] for b in joined.blocks]))
    return results[0], results[1]


def fraction_context(n, m, theta):
    """make_context by Fraction arithmetic: (n, m, theta as an Angle,
    modulus) and the text of its reduction warning, or None."""
    frac = (theta.as_fraction() if isinstance(theta, Angle)
            else Fraction(theta)) % 1
    window, message = Fraction(1, m + n), None
    if frac >= window:
        message = (f"theta {frac} reduced to canonical representative "
                   f"{frac % window} in [0, 1/{m + n})")
        frac %= window
    modulus = math.lcm(frac.denominator, m + n)
    return (n, m, Angle(int(frac * modulus), modulus), modulus), message


def angle_structure(ctx, symmetrize=None):
    """build_structure, its level-1 scheme and its rotation along the route
    of Angle objects: each critical orbit walked by phi_n, the orbit's
    frontier closed, the boundary closed by rotate, cells by their offset
    from theta, and the ring of copies glued by a union-find on (copy,
    vertex) slots numbered by their least slot. Returns (violations,
    post-critical set, fields), fields None for an invalid context and
    otherwise a dict of the structure's fields, the scheme's rows, marked
    and num_ids, and the rotation."""
    ring, crits = ctx.ring_size, critical_angles(ctx)
    crit_index = {c: i for i, c in enumerate(crits, start=1)}
    violations = []
    for i, c in enumerate(crits, start=1):
        a, seen = c, set()
        for k in range(1, ctx.modulus + 1):
            a = phi_n(a, ctx.n)
            if a in crit_index:
                violations.append((i, k, crit_index[a]))
                break
            if a in seen:
                break
            seen.add(a)
    frontier, post = {phi_n(c, ctx.n) for c in crits}, set()
    while frontier:
        post |= frontier
        frontier = {phi_n(a, ctx.n) for a in frontier} - post
    post = tuple(sorted(post))
    if violations:
        return tuple(violations), post, None
    if symmetrize is None:
        symmetrize = math.gcd(ctx.n, ring) > 1
    boundary = post
    if symmetrize:
        boundary = tuple(sorted({rotate(ctx, a, l) for a in post
                                 for l in range(ring)}))
    index = {a: i for i, a in enumerate(boundary)}
    cells = {}
    for a in boundary:
        offset = (a.residue - ctx.theta.residue) % ctx.modulus
        assert offset % ctx.step, f"{a} is critical"
        cells[a] = offset // ctx.step + 1
    glue = tuple(phi_n(c, ctx.n) for c in crits)
    nb = len(boundary)
    parent = list(range(ring * nb))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, g in enumerate(glue):
        x, y = find(i * nb + index[g]), find((i + 1) % ring * nb + index[g])
        parent[max(x, y)] = min(x, y)
    roots = sorted({find(x) for x in range(ring * nb)})
    number = {r: j for j, r in enumerate(roots)}
    rows = tuple(tuple(number[find(c * nb + v)] for v in range(nb))
                 for c in range(ring))
    rotated = [index.get(rotate(ctx, a, 1)) for a in boundary]
    return (), post, {
        "boundary": boundary, "glue_points": glue, "cells": cells,
        "symmetrized": symmetrize, "rows": rows,
        "marked": tuple(rows[cells[a] - 1][index[phi_n(a, ctx.n)]]
                        for a in boundary),
        "num_ids": len(roots),
        "rotation": None if None in rotated else tuple(rotated)}


# the (n, m) families that the sweeps over valid contexts run on
SWEEP_FAMILIES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]


def valid_contexts(families, qmax, nbmax):
    """(n, m, theta) for every theta = p/q in [0, 1/(m+n)) with q <= qmax
    that critical_orbits finds valid and gives at most nbmax boundary
    points; by family, then q, then p."""
    out = []
    for n, m in families:
        seen = set()
        for q in range(1, qmax + 1):
            for p in range(q):
                theta = Fraction(p, q)
                if theta >= Fraction(1, m + n) or theta in seen:
                    continue
                seen.add(theta)
                ctx = make_context(n, m, theta)
                if (critical_orbits(ctx)[0].valid
                        and len(build_structure(ctx).boundary) <= nbmax):
                    out.append((n, m, theta))
    return out


def dense_level_resistance(structure, weights, k):
    """Boundary resistances of the dense level-k network.

    weights is the level-0 weight matrix in boundary order. Its pairs are
    copied down the rows of each level 1..k with plain loops, the
    Laplacian of the result is pseudo-inverted by numpy, and
    R(p,q) = G(p,p) + G(q,q) - 2 G(p,q) is read at the boundary's level-k
    ids, the inclusions of levels 1..k composed. Neither
    the package's assembly nor its resistance code is used. Meant for
    k <= 3, where N_k stays in the hundreds.
    """
    nb = len(structure.boundary)
    edges = {(i, j): float(weights[i][j])
             for i in range(nb) for j in range(i + 1, nb) if weights[i][j]}
    lv = level_vertices(structure, 0)
    ids = list(range(nb))
    for level in range(1, k + 1):
        lv = level_vertices(structure, level)
        ids = [lv.marked[i] for i in ids]
        glued = {}
        for row in lv.rows:
            for (a, b), w in edges.items():
                pair = (min(row[a], row[b]), max(row[a], row[b]))
                glued[pair] = glued.get(pair, 0.0) + w
        edges = glued
    lap = np.zeros((lv.num_ids, lv.num_ids))
    for (x, y), w in edges.items():
        lap[x, x] += w
        lap[y, y] += w
        lap[x, y] -= w
        lap[y, x] -= w
    green = np.linalg.pinv(lap, rcond=1e-10, hermitian=True)
    diag = np.diag(green)[ids]
    return diag[:, None] + diag[None, :] - 2.0 * green[np.ix_(ids, ids)]


def _extension(lap, known, values):
    """Harmonic extension of values on the ids known to every id of the
    Laplacian lap, by one dense solve on the rest."""
    known_ids = set(known)
    rest = [i for i in range(len(lap)) if i not in known_ids]
    out = np.zeros(len(lap))
    out[known] = values
    out[rest] = np.linalg.solve(lap[np.ix_(rest, rest)],
                                -lap[np.ix_(rest, known)] @ values)
    return out


def dense_copy_consistency(structure, weights, seed=0):
    """The dense level-2 route to the locality of harmonic extension.

    Random data on the level-1 ids is extended to level 2 through the
    dense level-2 network, and each copy's image of the boundary data is
    extended within level 1; returns the largest deviation between the
    two on the copies. Both networks are glued pair by pair from weights
    (level 0 in boundary order) and solved by numpy, so the package's
    assembly and harmonic kernel are not used. Meant for nb <= 18.
    """
    lv1, lv2 = level_vertices(structure, 1), level_vertices(structure, 2)
    net1 = _glued_copies(lv1.rows, lv1.num_ids, weights)
    net2 = _glued_copies(lv2.rows, lv2.num_ids, net1)
    lap1 = np.diag(net1.sum(axis=1)) - net1
    lap2 = np.diag(net2.sum(axis=1)) - net2
    probe = np.random.default_rng(seed).standard_normal(lv1.num_ids)
    ext2 = _extension(lap2, list(lv2.marked), probe)
    worst = 0.0
    for row1, row2 in zip(lv1.rows, lv2.rows):
        local = _extension(lap1, list(lv1.marked), probe[list(row1)])
        worst = max(worst, float(np.abs(local - ext2[list(row2)]).max()))
    return worst


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
            scheme = graph.scheme
            big = np.zeros((scheme.num_ids, scheme.num_ids))
            for sub in range(ring):
                idx = np.asarray(scheme.rows[sub])
                big[np.ix_(idx, idx)] += forms[sub]
            new_forms.append(pinv_schur_trace(big, scheme.marked))
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


def _level1_maps(structure):
    """(rows, marked, number of ids) of the level-1 gluing scheme: an MS
    structure's level 1, or a graph-directed cell's subcell images and
    corners."""
    scheme = structure.scheme
    return scheme.rows, scheme.marked, scheme.num_ids


def _glued_copies(rows, num_ids, weights):
    """One copy of weights per row, pair by pair; weights
    whose ends land on one id are dropped."""
    big = np.zeros((num_ids, num_ids))
    nv = len(weights)
    for row in rows:
        for i in range(nv):
            for j in range(i + 1, nv):
                if weights[i][j] and row[i] != row[j]:
                    big[row[i], row[j]] += weights[i][j]
                    big[row[j], row[i]] += weights[i][j]
    return big


def power_eigenform(structure, tol=1e-14, max_iter=5000):
    """Eigenform by plain power iteration w <- T(w)/mass(T(w)) from the
    unit form, with T glued pair by pair and traced by pinv_schur_trace;
    the reference for the package's Newton solver.

    Stops at the first iterate whose relative residual
    |eta*T(w) - w|max / |w|max is at most tol, eta = 1/mass(T(w)). Returns
    (w, eta) with w in boundary order and of mass 1.
    """
    rows, marked, num_ids = _level1_maps(structure)
    nb = len(marked)
    w = (np.ones((nb, nb)) - np.eye(nb)) / (nb * (nb - 1) / 2.0)
    for _ in range(max_iter):
        traced = pinv_schur_trace(_glued_copies(rows, num_ids, w),
                                  marked)
        eta = 2.0 / traced.sum()
        if np.abs(eta * traced - w).max() <= tol * np.abs(w).max():
            return w, float(eta)
        w = eta * traced
    raise NonConvergenceError(
        f"power iteration did not converge in {max_iter} steps",
        iterations=max_iter)


def loop_t_relation(structure, relation, w):
    """The relation-side operator with a pair-by-pair dust loop.

    w is a weight matrix in boundary order. Glues its copies pair by pair
    along the level-1 copy map, traces onto the marked ids with
    pinv_schur_trace, then walks every boundary pair, looks up both blocks
    with block_containing and zeroes a weight between different
    blocks when it is at most 1e-11 of the largest weight. No cone check:
    the inputs are taken as valid.
    """
    rows, marked, num_ids = _level1_maps(structure)
    mat = pinv_schur_trace(_glued_copies(rows, num_ids, w), marked)
    scale = float(mat.max())
    vs = structure.boundary
    for i, x in enumerate(vs):
        bx = block_containing(relation, x)
        for j in range(i + 1, len(vs)):
            if block_containing(relation, vs[j]) is not bx \
                    and mat[i, j] <= 1e-11 * scale:
                mat[i, j] = mat[j, i] = 0.0
    return mat


def loop_t_quotient(structure, relation, wq):
    """The quotient-side operator with a weight-by-weight assembly loop.

    wq is a weight matrix in block order. An own union-find over the
    level-1 copy map joins each copy's images of every block into closure
    classes. Every copy adds each weight of wq between the classes of the
    two blocks' first points, skipping a weight whose two ends share a
    class; the sum is traced with pinv_schur_trace onto the classes of the
    included boundary blocks. No preservation check.
    """
    rows, marked, num_ids = _level1_maps(structure)
    parent = list(range(num_ids))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    index = {a: i for i, a in enumerate(structure.boundary)}
    block_idx = [[index[a] for a in b] for b in relation.blocks]
    for row in rows:
        for block in block_idx:
            for other in block[1:]:
                parent[find(row[other])] = find(row[block[0]])
    roots = sorted({find(x) for x in range(num_ids)})
    class_of = {r: c for c, r in enumerate(roots)}
    nclasses = len(roots)
    big = np.zeros((nclasses, nclasses))
    nb = len(block_idx)
    for row in rows:
        for i in range(nb):
            for j in range(i + 1, nb):
                ci = class_of[find(row[block_idx[i][0]])]
                cj = class_of[find(row[block_idx[j][0]])]
                if wq[i][j] and ci != cj:
                    big[ci, cj] += wq[i][j]
                    big[cj, ci] += wq[i][j]
    boundary_classes = [class_of[find(marked[block[0]])]
                        for block in block_idx]
    return pinv_schur_trace(big, boundary_classes)


def _return_centers(structure):
    """The image under phi_n of the critical angle returning to each cell."""
    ctx = structure.ctx
    perm = angle_kappa(ctx)
    crits = critical_angles(ctx)
    return [phi_n(crits[perm[i] - 1], ctx.n) for i in range(ctx.ring_size)]


def block_star_form(structure, relation):
    """Unit stars centered at the cell-return images, one per cell.

    Each center gets a unit weight to every other point of its block. For
    the candidate relations this is the constructed witness on the
    relation side: its max stationary ratio is at most 1.
    """
    edges = [(c, x, 1.0) for c in _return_centers(structure)
             for x in block_containing(relation, c) if x != c]
    return ConductanceForm.from_edges(structure.boundary, edges)


def block_cycle_form(structure, relation):
    """Unit cycle through the blocks of the cell-return images, in cell order.

    Constructed witness on the quotient side: its min stationary ratio is
    at least 1 + 1/n in the single-pole case. Its vertices are the blocks
    in canonical order.
    """
    seq = [block_containing(relation, c) for c in _return_centers(structure)]
    if set(seq) != set(relation.blocks):
        raise ValueError("cycle form undefined: some block contains no "
                         "cell-return image")
    ring = len(seq)
    edges = [(seq[i], seq[(i + 1) % ring], 1.0) for i in range(ring)
             if seq[i] != seq[(i + 1) % ring]]
    out = ConductanceForm.from_edges(relation.blocks, edges)
    if len(support_components(relation.blocks, out.matrix())) != 1:
        raise ValueError("cycle form undefined: blocks not connected by "
                         "the cell cycle")
    return out


def rotation_perm(structure, l):
    """Boundary index of each boundary angle rotated by l/(m+n), from
    rotate and structure.index. A boundary that is not closed under
    the rotation raises KeyError."""
    return [structure.index[rotate(structure.ctx, a, l)]
            for a in structure.boundary]


def rotation_average(structure, w):
    """Average of a boundary weight matrix over all rotation pullbacks."""
    ring = structure.ctx.ring_size
    acc = np.zeros_like(w)
    for l in range(ring):
        perm = rotation_perm(structure, l)
        acc[np.ix_(perm, perm)] += w
    return acc / ring


def quotient_weights(relation, vertices, w):
    """A weight matrix on vertices pushed down to the relation's blocks:
    the weight between two blocks is the sum over the pairs between them."""
    block_of = {v: b for b, block in enumerate(relation.blocks)
                for v in block}
    nb = len(relation.blocks)
    out = np.zeros((nb, nb))
    for i, x in enumerate(vertices):
        for j, y in enumerate(vertices):
            if block_of[x] != block_of[y]:
                out[block_of[x], block_of[y]] += w[i][j]
    return out
