"""Independent reference computations used by the tests.

Everything here is deliberately implemented by a different method than the
package (relaxation instead of Schur complements, closed forms instead of
iteration), so agreement is evidence rather than tautology.
"""

from fractions import Fraction
import math

from fractal_renorm.relations import (Partition, is_preserved,
                                      rotation_invariant)


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


def brute_force_preserved(structure, require_g=False):
    """Preserved relations by testing every partition, Bell(nb) of them.

    The pruned enumerator must return exactly this list, in this order.
    """
    return [cand for cand in partitions_rgs(structure.boundary)
            if not (require_g and not rotation_invariant(structure, cand))
            and is_preserved(structure, cand)]
