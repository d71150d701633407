"""Preserved equivalence relations, degenerate forms, and rho certificates.

A relation J on the boundary is preserved when the smallest equivalence on
the level-1 vertices generated by per-copy images of J restricts back to J
along the inclusion. Preserved relations split the renormalization map into
a relation side (degenerate forms whose kernel is the J-constant functions)
and a quotient side (forms on the block set); the extreme stationary ratios
of the two sides feed the existence and uniqueness criteria.

Rho values here are the ends of cone brackets: power iteration of a
side's operator from the unit form gives at every step a max ratio that
upper-bounds the best possible max-ratio (rho_over) and a min ratio that
lower-bounds the best possible min-ratio (rho_under). The loop is
deterministic, so a report's values can be recomputed. Both bounds remain
valid for the rotation-symmetric variants of the same quantities, because
averaging a form over the rotation group never worsens either ratio
(mediant inequality), so an unrestricted witness certifies the symmetric
criterion.

The closure, preservation test, enumeration, relation and quotient
operators and rho brackets read only a structure's boundary, index and
gluing scheme, so they take an MsStructure or a graph-directed cell from
gd.cell_graph alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .angles import Angle, critical_angles, kappa, phi_n, rotate
from .errors import (CapExceededError, KappaUndefinedError,
                     KernelMismatchError, NotAPermutationError,
                     NotInvariantError)
from .networks import (ConductanceForm, DisjointSet, _laplacian,
                       _split_ids, _trace_matrix, flows, trace)
from .renorm import HarmonicStructure, renorm_T, _boundary_matrix
from .structure import GluingScheme, MsStructure, level_vertices

DEFAULT_ENUM_CAP = 12
DEFAULT_K_MAX = 8
DEFAULT_MARGIN = 1e-6
BRACKET_TOL = 1e-12   # relative width at which a rho bracket stops
BRACKET_STEPS = 200   # step limit of a rho bracket
RATIO_TOL = 1e-9      # tolerance of a reported rho value


@dataclass(frozen=True)
class Partition:
    """Set partition with canonical block order (sorted, by least element)."""

    blocks: tuple[tuple[Hashable, ...], ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[Hashable]],
                    ground: Optional[Iterable[Hashable]] = None) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks if b),
                             key=lambda b: b[0]))
        seen: set = set()
        for b in canon:
            for x in b:
                if x in seen:
                    raise ValueError(f"blocks overlap at {x!r}")
                seen.add(x)
        if ground is not None and seen != set(ground):
            raise ValueError("blocks do not cover the ground set exactly")
        return cls(canon)

    @classmethod
    def from_pairs(cls, ground: Iterable[Hashable],
                   pairs: Iterable[tuple[Hashable, Hashable]]) -> "Partition":
        """Finest partition relating every given pair."""
        items = sorted(set(ground))
        index = {x: i for i, x in enumerate(items)}
        dsu = DisjointSet(len(items))
        for x, y in pairs:
            dsu.union(index[x], index[y])
        groups: dict[int, list] = {}
        for x, i in index.items():
            groups.setdefault(dsu.find(i), []).append(x)
        return cls.from_blocks(groups.values())

    @property
    def ground_set(self) -> frozenset:
        return frozenset(x for b in self.blocks for x in b)

    def block_count(self) -> int:
        return len(self.blocks)

    def block_containing(self, x: Hashable) -> tuple[Hashable, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(f"{x!r} is not in the ground set")

    def same(self, x: Hashable, y: Hashable) -> bool:
        return self.block_containing(x) is self.block_containing(y)

    @property
    def is_trivial_zero(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    @property
    def is_trivial_one(self) -> bool:
        return len(self.blocks) <= 1

    @property
    def is_trivial(self) -> bool:
        return self.is_trivial_zero or self.is_trivial_one

    def refines(self, other: "Partition") -> bool:
        """True when every block here sits inside a block of the other."""
        return all(any(set(b) <= set(c) for c in other.blocks)
                   for b in self.blocks)

    def restricted(self, subset: Iterable[Hashable]) -> "Partition":
        keep = set(subset)
        return Partition.from_blocks(
            [tuple(x for x in b if x in keep) for b in self.blocks])

    def to_json(self) -> dict:
        return {"blocks": [[str(x) for x in b] for b in self.blocks]}


def partition_from_json(structure: MsStructure, data: dict) -> Partition:
    by_fraction = {a.as_fraction(): a for a in structure.boundary}
    blocks = [[by_fraction[Fraction(s)] for s in b] for b in data["blocks"]]
    return Partition.from_blocks(blocks, ground=structure.boundary)


def _check_ground(structure, relation: Partition) -> None:
    if relation.ground_set != set(structure.boundary):
        raise ValueError("relation ground set does not match the boundary")


def _index_blocks(structure, relation: Partition) -> list[list[int]]:
    return [[structure.index[a] for a in b] for b in relation.blocks]


def closure_at_level(structure: MsStructure, relation: Partition,
                     level: int) -> Partition:
    """Smallest equivalence on level-k ids generated by per-copy images.

    Cross-copy identifications need no extra work: glued slots already
    share a vertex id, which is what propagates relations between copies.
    """
    _check_ground(structure, relation)
    if level < 1:
        raise ValueError("closure level must be >= 1")
    blocks = _index_blocks(structure, relation)
    for lvl in range(1, level + 1):
        scheme = structure.scheme if lvl == 1 \
            else GluingScheme.of_level(level_vertices(structure, lvl))
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(scheme.closure(blocks)):
            groups.setdefault(c, []).append(v)
        blocks = list(groups.values())
    return Partition.from_blocks(blocks)


def j1_closure(structure, relation: Partition) -> Partition:
    """Level-1 closure of a boundary relation, on level-1 integer ids."""
    return closure_at_level(structure, relation, 1)


def rotation_invariant(structure: MsStructure, relation: Partition) -> bool:
    """True when rotating every block by one step permutes the blocks."""
    block_sets = {frozenset(b) for b in relation.blocks}
    return all(
        frozenset(rotate(structure.ctx, a, 1) for a in b) in block_sets
        for b in relation.blocks)


def is_preserved(structure, relation: Partition,
                 require_g: bool = False) -> bool:
    """Check that the level-1 closure restricts back to the relation itself.

    With require_g, the boundary must be rotation-closed (NotInvariant
    otherwise) and a relation that is not rotation-invariant is simply not
    a preserved G-relation, so the answer is False.
    """
    _check_ground(structure, relation)
    if require_g:
        if not structure.rotation_closed:
            raise NotInvariantError(
                "G-relations need a rotation-closed boundary; "
                "build the structure with symmetrize=True")
        if not rotation_invariant(structure, relation):
            return False
    scheme = structure.scheme
    classes = scheme.closure(_index_blocks(structure, relation))
    groups: dict[int, list] = {}
    for a, v in zip(structure.boundary, scheme.marked):
        groups.setdefault(classes[v], []).append(a)
    return Partition.from_blocks(groups.values()) == relation


def enumerate_preserved(structure, require_g: bool = False,
                        cap: int = DEFAULT_ENUM_CAP) -> list[Partition]:
    """All preserved relations (including the two trivial ones), in RGS order.

    Depth-first restricted-growth search over boundary indices, with one
    undoable union-find on the level-1 ids carrying the closure of the
    partial assignment. Point i joining block c unions row[first of c]
    with row[i] in every copy; those unions are undone on backtrack.

    Pruning is sound because F(J), the level-1 closure of J restricted
    back to the boundary, is monotone in J, and a restricted-growth search
    never merges blocks that are already assigned. So once the closure of
    a partial assignment joins the inclusions of two assigned points in
    different blocks, F of every completion relates those two points and
    no completion is a fixed point. F is not extensive (F(J) >= J fails
    for most J), so closure-system shortcuts do not apply. A leaf is
    preserved exactly when "same root" equals "same block" on all points.

    Refuses boundaries larger than the cap. With require_g, only the
    rotation-invariant relations among the preserved ones are returned.
    """
    nb = len(structure.boundary)
    if nb > cap:
        raise CapExceededError(
            f"boundary size {nb} exceeds enumeration cap {cap}")
    if require_g and not structure.rotation_closed:
        raise NotInvariantError(
            "G-relations need a rotation-closed boundary")
    scheme = structure.scheme
    rows = scheme.rows
    incl = scheme.marked
    # union by size without path compression, so every union is undoable
    parent = list(range(scheme.num_ids))
    size = [1] * scheme.num_ids
    undo_log: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        size[rx] += size[ry]
        undo_log.append(ry)

    def undo(mark: int) -> None:
        while len(undo_log) > mark:
            ry = undo_log.pop()
            size[parent[ry]] -= size[ry]
            parent[ry] = ry

    code = [0] * nb
    first: list[int] = []  # least point of each block
    out = []

    def separated(upto: int) -> bool:
        """Assigned points in different blocks keep different roots."""
        block_of_root: dict[int, int] = {}
        for p in range(upto):
            if block_of_root.setdefault(find(incl[p]), code[p]) != code[p]:
                return False
        return True

    def emit() -> None:
        roots = [find(incl[p]) for p in range(nb)]
        if any(roots[p] != roots[first[code[p]]] for p in range(nb)):
            return
        groups = [[] for _ in first]
        for p, c in enumerate(code):
            groups[c].append(structure.boundary[p])
        out.append(Partition.from_blocks(groups))

    def rec(i: int) -> None:
        if i == nb:
            emit()
            return
        for c in range(len(first) + 1):
            mark = len(undo_log)
            code[i] = c
            opened = c == len(first)
            if opened:
                first.append(i)
            else:
                for row in rows:
                    union(row[first[c]], row[i])
            if separated(i + 1):
                rec(i + 1)
            undo(mark)
            if opened:
                first.pop()

    rec(0)
    if require_g:
        out = [rel for rel in out if rotation_invariant(structure, rel)]
    return out


def build_J_plus_minus(structure: MsStructure) -> tuple[Partition, Partition]:
    """The two candidate relations generated by the cell-return permutation.

    Generators pair each critical angle (plus-side) or its predecessor
    (minus-side) with the image of the critical angle returning to its
    cell; the generating pairs are closed under the angle map before taking
    connected components over the boundary.
    """
    ctx = structure.ctx
    try:
        perm = kappa(ctx)
    except NotAPermutationError as exc:
        raise KappaUndefinedError(str(exc)) from exc
    crits = critical_angles(ctx)
    ring = ctx.ring_size

    def images(shift: int) -> set[frozenset]:
        gens = set()
        for i in range(1, ring + 1):
            c = crits[(i - 1 + shift) % ring]
            x = phi_n(crits[perm[i - 1] - 1], ctx.n)
            if c != x:
                gens.add(frozenset((c, x)))
        return gens

    results = []
    for shift in (0, -1):
        edges = images(shift)
        frontier = set(edges)
        while frontier:
            step = set()
            for e in frontier:
                image = frozenset(phi_n(a, ctx.n) for a in e)
                if len(image) == 2 and image not in edges:
                    step.add(image)
            edges |= step
            frontier = step
        nodes = sorted(set(structure.boundary)
                       | {a for e in edges for a in e})
        relation = Partition.from_pairs(nodes, [tuple(e) for e in edges])
        results.append(relation.restricted(structure.boundary))
    return results[0], results[1]


def _check_in_cone(relation: Partition, form: ConductanceForm) -> None:
    comps = {frozenset(c) for c in form.support_components()}
    blocks = {frozenset(b) for b in relation.blocks}
    if comps != blocks:
        raise KernelMismatchError(
            "form kernel does not match the relation: support components "
            f"{sorted(map(sorted, comps))} vs blocks "
            f"{sorted(map(sorted, blocks))}")


def t_relation(structure, relation: Partition,
               form: ConductanceForm) -> ConductanceForm:
    """Renormalization applied to a degenerate form with kernel J.

    The trace goes through the same Schur complement as the nondegenerate
    case, whose interior block is singular when the glued copies leave an
    interior piece cut off, and then inverted by the pseudo-inverse; for a
    preserved relation the result lands back in the same degenerate cone.
    """
    _check_ground(structure, relation)
    if form.mass() == 0.0:
        return ConductanceForm.from_edges(structure.boundary, [])
    _check_in_cone(relation, form)
    image = renorm_T(structure, form)
    # Cross-block weights of the image are exact zeros for a preserved
    # relation; the Schur complement leaves eps-level dust there, which
    # would corrupt the support. Only dust is removed; anything larger is
    # real and gets reported by the next call's cone check.
    mat = image.matrix()
    scale = float(mat.max()) if mat.size else 0.0
    vs = image.vertices
    for i, x in enumerate(vs):
        bx = relation.block_containing(x)
        for j in range(i + 1, len(vs)):
            if relation.block_containing(vs[j]) is not bx \
                    and mat[i, j] <= 1e-11 * scale:
                mat[i, j] = mat[j, i] = 0.0
    return ConductanceForm.from_matrix(vs, mat)


def d_sub_j(structure: MsStructure, form: ConductanceForm,
            relation: Partition) -> ConductanceForm:
    """Sum of per-block traces of a form; the canonical element of the cone.

    Trivial relations are rejected: all-singleton blocks give the zero
    form, and the one-block relation just returns the form itself.
    """
    _check_ground(structure, relation)
    if relation.is_trivial:
        raise ValueError("trivial relation rejected: its block traces give "
                         "the zero form or the original form")
    if set(form.vertices) != set(structure.boundary):
        raise ValueError("form vertices do not match the structure boundary")
    edges = []
    for block in relation.blocks:
        if len(block) < 2:
            continue
        traced = trace(form, block)
        edges.extend(traced.pairs())
    out = ConductanceForm.from_edges(structure.boundary, edges)
    _check_in_cone(relation, out)
    return out


def quotient_form(relation: Partition, form: ConductanceForm) -> ConductanceForm:
    """Push a boundary form down to the block set (weights added up)."""
    edges = []
    for x, y, w in form.pairs():
        bx = relation.block_containing(x)
        by = relation.block_containing(y)
        if bx != by:
            edges.append((bx, by, w))
    return ConductanceForm.from_edges(relation.blocks, edges)


def t_quotient(structure, relation: Partition,
               qform: ConductanceForm) -> ConductanceForm:
    """Renormalization on the quotient by a preserved relation.

    The replicated quotient graph lives on the blocks of the level-1
    closure; each copy contributes the quotient form between the closure
    classes of its block images, and the result is traced onto the images
    of the boundary blocks.
    """
    _check_ground(structure, relation)
    if relation.block_count() < 2:
        raise ValueError("degenerate quotient input: fewer than two blocks")
    if tuple(qform.vertices) != relation.blocks:
        raise ValueError("quotient form must live on the relation blocks, "
                         "in canonical block order")
    if len(qform.support_components()) != 1:
        raise ValueError("degenerate quotient input: support is disconnected")

    scheme = structure.scheme
    block_idx = _index_blocks(structure, relation)
    class_of = scheme.closure(block_idx)
    nclasses = max(class_of) + 1
    wq = np.zeros((nclasses, nclasses))
    for row in scheme.rows:
        for (i, j), w in qform.weights.items():
            ci = class_of[row[block_idx[i][0]]]
            cj = class_of[row[block_idx[j][0]]]
            if ci != cj:
                wq[ci, cj] += w
                wq[cj, ci] += w

    boundary_classes = [class_of[scheme.marked[block[0]]]
                        for block in block_idx]
    if len(set(boundary_classes)) != len(boundary_classes):
        raise ValueError("boundary blocks collide in the closure; "
                         "the relation is not preserved")
    traced = _trace_matrix(wq, _split_ids(nclasses, boundary_classes))
    return ConductanceForm.from_matrix(relation.blocks, traced)


def _modulo_columns(vertices: Sequence[Hashable], modulo) -> np.ndarray:
    nv = len(vertices)
    if isinstance(modulo, str):
        if modulo != "constants":
            raise ValueError(f"unknown modulo choice {modulo!r}")
        return np.ones((nv, 1))
    if isinstance(modulo, Partition):
        index = {v: i for i, v in enumerate(vertices)}
        cols = np.zeros((nv, modulo.block_count()))
        for b, block in enumerate(modulo.blocks):
            for x in block:
                cols[index[x], b] = 1.0
        return cols
    if not modulo:
        raise ValueError("modulo needs at least one value map")
    cols = np.zeros((nv, len(modulo)))
    for c, mapping in enumerate(modulo):
        for i, v in enumerate(vertices):
            cols[i, c] = mapping[v]
    return cols


def stationary_ratios(num_form: ConductanceForm, den_form: ConductanceForm,
                      modulo) -> tuple[float, float]:
    """Extreme ratios num(f)/den(f) over functions off the modded-out space.

    modulo is "constants", a Partition (its block indicators), or a
    non-empty sequence of value maps: the constants lie in the kernel of
    every Laplacian, so nothing can be left out. The denominator form must
    be positive definite on the complement, otherwise the ratios are
    undefined and a ValueError is raised.
    """
    verts = den_form.vertices
    if set(num_form.vertices) != set(verts):
        raise ValueError("forms live on different vertex sets")
    order = [num_form.index[v] for v in verts]
    la = _laplacian(num_form.matrix())[np.ix_(order, order)]
    lb = _laplacian(den_form.matrix())

    u, s, _ = np.linalg.svd(_modulo_columns(verts, modulo),
                            full_matrices=True)
    rank = int((s > 1e-12 * max(s[0], 1.0)).sum())
    comp = u[:, rank:]
    if comp.shape[1] == 0:
        raise ValueError("modded-out space covers everything; "
                         "no ratios to compute")
    ar = comp.T @ la @ comp
    br = comp.T @ lb @ comp
    ar = 0.5 * (ar + ar.T)
    br = 0.5 * (br + br.T)
    bvals = np.linalg.eigvalsh(br)
    if bvals[0] <= 1e-12 * max(bvals[-1], 1e-300):
        raise ValueError("denominator form degenerate on the complement of "
                         "the modded-out space")
    # Cholesky reduction to a standard problem, as LAPACK sygvd does:
    # br = L L^T, and L^-1 ar L^-T has the generalized eigenvalues
    chol = np.linalg.cholesky(br)
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, ar).T)
    vals = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    return float(vals[0]), float(vals[-1])


def _return_centers(structure: MsStructure) -> list[Angle]:
    ctx = structure.ctx
    perm = kappa(ctx)
    crits = critical_angles(ctx)
    return [phi_n(crits[perm[i] - 1], ctx.n) for i in range(ctx.ring_size)]


def block_star_form(structure: MsStructure,
                    relation: Partition) -> ConductanceForm:
    """Unit stars centered at the cell-return images, one per cell.

    For the candidate relations this is the constructed witness on the
    relation side: its max stationary ratio is at most 1.
    """
    _check_ground(structure, relation)
    edges = []
    for center in _return_centers(structure):
        block = relation.block_containing(center)
        for y in block:
            if y != center:
                edges.append((center, y, 1.0))
    out = ConductanceForm.from_edges(structure.boundary, edges)
    _check_in_cone(relation, out)
    return out


def block_cycle_form(structure: MsStructure,
                     relation: Partition) -> ConductanceForm:
    """Unit cycle through the blocks of the cell-return images, in cell order.

    Constructed witness on the quotient side: its min stationary ratio is
    at least 1 + 1/n in the single-pole case.
    """
    _check_ground(structure, relation)
    centers = _return_centers(structure)
    seq = [relation.block_containing(c) for c in centers]
    if set(seq) != set(relation.blocks):
        raise ValueError("cycle form undefined: some block contains no "
                         "cell-return image")
    edges = []
    ring = len(seq)
    for i in range(ring):
        a, b = seq[i], seq[(i + 1) % ring]
        if a != b:
            edges.append((a, b, 1.0))
    out = ConductanceForm.from_edges(relation.blocks, edges)
    if len(out.support_components()) != 1:
        raise ValueError("cycle form undefined: blocks not connected by "
                         "the cell cycle")
    return out


@dataclass(frozen=True)
class RhoReport:
    """Bracket of the extreme stationary ratios on one side's cone.

    rho_over is the least max-ratio and rho_under the greatest min-ratio
    met along the power iterates; best_over and best_under are the
    iterates that attain them. k is the number of renormalization
    applications inside the ratio (always 1 here); basis_dim is the number
    of weights of a form on the side (within-block pairs on the relation
    side, block pairs on the quotient side); evaluations counts the
    bracket steps.
    """

    relation: Partition
    side: str
    rho_over: float
    rho_under: float
    k: int
    basis_dim: int
    best_over: ConductanceForm
    best_under: ConductanceForm
    evaluations: int


def rho_search(structure, relation: Partition, side: str) -> RhoReport:
    """Bracket the extreme stationary ratios by power iteration on a cone.

    T_J (side "relation") and T^J (side "quotient") are monotone and
    homogeneous of degree 1 on their cones, so along the iterates
    D_{k+1} = T(D_k)/mass, starting from unit weights on every pair, the
    max ratio M_k of T(D_k) against D_k never rises and the min ratio m_k
    never falls (upper and lower Collatz-Wielandt numbers; Lemmens and
    Nussbaum, Nonlinear Perron-Frobenius Theory, 2012). Each M_k bounds
    the best max-ratio from above and each m_k the best min-ratio from
    below. Stops when the bracket [max m_k, min M_k] is narrower than
    BRACKET_TOL relative, or after BRACKET_STEPS steps. An eigenvector on
    the boundary of the cone, which the iterates approach slowly, or
    iterates that cycle, leave a wider bracket.
    """
    _check_ground(structure, relation)
    if side == "relation":
        vertices, operator, modulo = structure.boundary, t_relation, relation
        pairs = [(x, y) for block in relation.blocks if len(block) > 1
                 for bi, x in enumerate(block) for y in block[bi + 1:]]
    elif side == "quotient":
        if relation.block_count() < 2:
            raise ValueError("degenerate quotient input: fewer than two "
                             "blocks")
        vertices, operator, modulo = relation.blocks, t_quotient, "constants"
        pairs = [(vertices[i], vertices[j]) for i in range(len(vertices))
                 for j in range(i + 1, len(vertices))]
    else:
        raise ValueError(f"side must be 'relation' or 'quotient', got {side!r}")
    if not pairs:
        raise ValueError("relation has no weights on this side")

    form = ConductanceForm.from_edges(vertices, [(x, y, 1.0)
                                                 for x, y in pairs])
    rho_over, rho_under = np.inf, -np.inf
    for step in range(1, BRACKET_STEPS + 1):
        image = operator(structure, relation, form)
        lo, hi = stationary_ratios(image, form, modulo=modulo)
        if hi < rho_over:
            rho_over, best_over = hi, form
        if lo > rho_under:
            rho_under, best_under = lo, form
        if rho_over - rho_under <= BRACKET_TOL * abs(rho_over):
            break
        form = image.scaled(1.0 / image.mass())
    return RhoReport(relation=relation, side=side, rho_over=rho_over,
                     rho_under=rho_under, k=1, basis_dim=len(pairs),
                     best_over=best_over, best_under=best_under,
                     evaluations=step)


@dataclass(frozen=True)
class CertificateReport:
    """Contraction certificate for one preserved relation.

    trajectory[k-1] holds eta^k times the max stationary ratio of the k-th
    renormalized block form against the original, for k = 1..k_max; the
    certificate holds at the first entry below 1 - margin.
    """

    relation: Partition
    certified: bool
    k: Optional[int]
    margin: float
    trajectory: tuple[float, ...]
    monotone: bool


def certificate_summary(trajectory: Sequence[float],
                        margin: float) -> tuple[Optional[int], bool]:
    """First k with trajectory[k-1] < 1 - margin, and whether it decreases."""
    certified_k = next((k for k, r in enumerate(trajectory, start=1)
                        if r < 1.0 - margin), None)
    scale = max(abs(t) for t in trajectory)
    monotone = all(trajectory[i + 1] <= trajectory[i] + 1e-12 * scale
                   for i in range(len(trajectory) - 1))
    return certified_k, monotone


def uniqueness_certificate(structure: MsStructure, hs: HarmonicStructure,
                           relation: Partition, k_max: int = DEFAULT_K_MAX,
                           margin: float = DEFAULT_MARGIN) -> CertificateReport:
    """Check eta^k-scaled contraction of iterated block forms."""
    base = d_sub_j(structure, hs.form, relation)
    current = base
    trajectory = []
    for k in range(1, k_max + 1):
        current = t_relation(structure, relation, current)
        ratio = stationary_ratios(current, base, modulo=relation)[1]
        trajectory.append(float(hs.eta ** k * ratio))
    certified_k, monotone = certificate_summary(trajectory, margin)
    return CertificateReport(relation=relation,
                             certified=certified_k is not None,
                             k=certified_k, margin=margin,
                             trajectory=tuple(trajectory), monotone=monotone)


@dataclass(frozen=True)
class FlowReport:
    """Normal derivatives of a level-1 harmonic function, cell by cell.

    active_boundary and active_critical list where the boundary flow and
    the junction flows are nonzero at the reporting threshold.
    """

    boundary_flow: Mapping[Angle, float]
    cell_flows: tuple[Mapping[Angle, float], ...]
    active_boundary: tuple[Angle, ...]
    active_critical: tuple[Angle, ...]
    conservation_defect: float
    matching_defect: float
    scaling_defect: float


def per_cell_flows(structure: MsStructure, hs: HarmonicStructure,
                   values: Mapping[int, float],
                   harmonic_tol: float = 1e-9) -> FlowReport:
    """Flows of a harmonic function given by its level-1 vertex values.

    The input must be harmonic at every non-boundary level-1 vertex of the
    replicated eigenform; this is checked by residual and violations are
    rejected.
    """
    ctx = structure.ctx
    scheme = structure.scheme
    w1 = scheme.assemble(_boundary_matrix(structure, hs.form))
    hvec = np.array([values[v] for v in range(scheme.num_ids)])
    net = _laplacian(w1) @ hvec
    included = set(scheme.marked)
    # noise floor of the matvec itself, so exact constants pass
    matvec_floor = float(np.abs(hvec).max()) * float(w1.sum())
    scale = max(float(np.abs(net).max()), matvec_floor, 1e-30)
    interior_resid = max((abs(float(net[v]))
                          for v in range(scheme.num_ids)
                          if v not in included), default=0.0)
    if interior_resid > harmonic_tol * scale:
        raise ValueError(
            f"input is not harmonic: interior flow residual {interior_resid:.3e} "
            f"exceeds {harmonic_tol:.1e} of scale {scale:.3e}")

    boundary_values = {a: float(hvec[v])
                       for a, v in zip(structure.boundary, scheme.marked)}
    boundary_flow = flows(hs.form, boundary_values)
    cell_flows = []
    for row in scheme.rows:
        cell_values = {a: float(hvec[row[structure.index[a]]])
                       for a in structure.boundary}
        cell_flows.append(flows(hs.form, cell_values))

    ring = ctx.ring_size
    conservation = abs(sum(boundary_flow.values()))
    matching = 0.0
    junction = []
    for i in range(ring):
        r = structure.glue_points[i]
        total = cell_flows[i][r] + cell_flows[(i + 1) % ring][r]
        matching = max(matching, abs(total))
        junction.append(abs(cell_flows[i][r]))
    scaling = 0.0
    for a in structure.boundary:
        inner = cell_flows[structure.cells[a] - 1][phi_n(a, ctx.n)]
        scaling = max(scaling, abs(boundary_flow[a] - hs.eta * inner))

    # floored at the matvec noise, so the rounding-level flows of a
    # constant input do not set the scale they are measured against
    flow_scale = max(max((abs(v) for v in boundary_flow.values()), default=0.0),
                     max((abs(v) for cf in cell_flows for v in cf.values()),
                         default=0.0), matvec_floor, 1e-30)
    threshold = 1e-9 * flow_scale
    active_boundary = tuple(a for a in structure.boundary
                            if abs(boundary_flow[a]) > threshold)
    crits = critical_angles(ctx)
    active_critical = tuple(crits[i] for i in range(ring)
                            if junction[i] > threshold)
    return FlowReport(boundary_flow=boundary_flow,
                      cell_flows=tuple(cell_flows),
                      active_boundary=active_boundary,
                      active_critical=active_critical,
                      conservation_defect=conservation,
                      matching_defect=matching,
                      scaling_defect=scaling)


@dataclass(frozen=True)
class RelationWitness:
    relation: Partition
    relation_rhos: RhoReport
    quotient_rhos: RhoReport
    separation: float
    criterion_met: bool

    @property
    def rhos(self) -> tuple[float, float, float, float]:
        """The four rho values, in the order of RHO_KEYS."""
        return (self.relation_rhos.rho_over, self.relation_rhos.rho_under,
                self.quotient_rhos.rho_over, self.quotient_rhos.rho_under)


RHO_KEYS = ("rho_over_relation", "rho_under_relation", "rho_over_quotient",
            "rho_under_quotient")


@dataclass(frozen=True)
class VerdictReport:
    """Existence/uniqueness verdict assembled from the rho certificates.

    verdict is one of: no_nontrivial_relations_exists_unique,
    criteria_hold_exists_unique, nonexistence_certified, inconclusive.
    """

    verdict: str
    witnesses: tuple[RelationWitness, ...]
    ordered_pairs: tuple[tuple[Partition, Partition], ...]
    nonexistence_witness: Optional[tuple[Partition, Partition]]


def nested_pairs(relations: Sequence[Partition]
                 ) -> tuple[tuple[Partition, Partition], ...]:
    """Ordered pairs (a, b) of distinct relations where a refines b."""
    return tuple((a, b) for a in relations for b in relations
                 if a != b and a.refines(b))


def verdict_rule(rhos: Sequence[tuple[float, float, float, float]],
                 nested: bool) -> tuple[str, Optional[tuple[int, int]]]:
    """The verdict from the rho certificates of the nontrivial relations.

    rhos[i] holds the values named in RHO_KEYS for the i-th relation
    (RelationWitness.rhos); nested says whether two of them are strictly
    nested. Also returns the first index pair (a, b) whose quotient-side
    upper certificate of a sits below the relation-side lower certificate
    of b (the nonexistence witness).
    """
    if not rhos:
        return "no_nontrivial_relations_exists_unique", None
    for a, (_, _, over_quotient, _) in enumerate(rhos):
        for b, (_, under_relation, _, _) in enumerate(rhos):
            if over_quotient < under_relation:
                return "nonexistence_certified", (a, b)
    if all(under_quotient - over_relation > 0
           for over_relation, _, _, under_quotient in rhos) and not nested:
        return "criteria_hold_exists_unique", None
    return "inconclusive", None


def sabot_verdict(structure, enumerated: Sequence[Partition]
                  ) -> VerdictReport:
    """Combine enumeration and rho brackets into a verdict.

    Uniqueness requires the relation-side upper certificate to sit below
    the quotient-side lower certificate for every nontrivial relation, and
    no two nontrivial relations to be strictly nested. Nonexistence is
    certified when some quotient-side upper certificate sits below some
    relation-side lower certificate.
    """
    witnesses = []
    for rel in (rel for rel in enumerated if not rel.is_trivial):
        rr = rho_search(structure, rel, "relation")
        qr = rho_search(structure, rel, "quotient")
        sep = qr.rho_under - rr.rho_over
        witnesses.append(RelationWitness(relation=rel, relation_rhos=rr,
                                         quotient_rhos=qr, separation=sep,
                                         criterion_met=sep > 0))

    ordered = nested_pairs([w.relation for w in witnesses])
    verdict, pair = verdict_rule([w.rhos for w in witnesses], bool(ordered))
    nonexistence = None if pair is None else (witnesses[pair[0]].relation,
                                              witnesses[pair[1]].relation)
    return VerdictReport(verdict=verdict, witnesses=tuple(witnesses),
                         ordered_pairs=ordered,
                         nonexistence_witness=nonexistence)
