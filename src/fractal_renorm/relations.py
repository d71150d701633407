"""Preserved equivalence relations, degenerate forms, and rho certificates.

A relation J on the boundary is preserved when the smallest equivalence on
the level-1 vertices generated by per-copy images of J restricts back to J
along the inclusion. Preserved relations split the renormalization map into
a relation side (degenerate forms whose kernel is the J-constant functions)
and a quotient side (forms on the block set); the extreme stationary ratios
of the two sides feed the existence and uniqueness criteria.

Search-based rho values here are one-sided certificates: rho_over is an
upper bound for the best possible max-ratio, rho_under a lower bound for
the best possible min-ratio. Both bounds remain valid for the
rotation-symmetric variants of the same quantities, because averaging a
form over the rotation group never worsens either ratio (mediant
inequality), so an unrestricted witness certifies the symmetric criterion.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np
import scipy.linalg

from .angles import Angle, critical_angles, kappa, phi_n, rotate
from .errors import (CapExceededError, KappaUndefinedError,
                     KernelMismatchError, NotAPermutationError,
                     NotInvariantError)
from .networks import ConductanceForm, _laplacian, _trace_matrix, flows, trace
from .renorm import HarmonicStructure, renorm_T, _boundary_matrix, \
    _replicate_matrix
from .structure import DisjointSet, MsStructure, level_vertices

DEFAULT_ENUM_CAP = 12
DEFAULT_K_MAX = 8
DEFAULT_MARGIN = 1e-6


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


def _check_ground(structure: MsStructure, relation: Partition) -> None:
    if relation.ground_set != set(structure.boundary):
        raise ValueError("relation ground set does not match the boundary")


def _index_blocks(structure: MsStructure,
                  relation: Partition) -> list[list[int]]:
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
        lv = level_vertices(structure, lvl)
        dsu = DisjointSet(lv.num_vertices)
        for row in lv.copy_map:
            for block in blocks:
                first = row[block[0]]
                for other in block[1:]:
                    dsu.union(first, row[other])
        groups: dict[int, list[int]] = {}
        for v in range(lv.num_vertices):
            groups.setdefault(dsu.find(v), []).append(v)
        blocks = list(groups.values())
    return Partition.from_blocks(blocks)


def j1_closure(structure: MsStructure, relation: Partition) -> Partition:
    """Level-1 closure of a boundary relation, on level-1 integer ids."""
    return closure_at_level(structure, relation, 1)


def rotation_invariant(structure: MsStructure, relation: Partition) -> bool:
    """True when rotating every block by one step permutes the blocks."""
    block_sets = {frozenset(b) for b in relation.blocks}
    return all(
        frozenset(rotate(structure.ctx, a, 1) for a in b) in block_sets
        for b in relation.blocks)


def is_preserved(structure: MsStructure, relation: Partition,
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
    closure = j1_closure(structure, relation)
    lv1 = level_vertices(structure, 1)
    restricted = Partition.from_pairs(
        structure.boundary,
        [(a, b)
         for i, a in enumerate(structure.boundary)
         for j, b in enumerate(structure.boundary) if i < j
         and closure.same(lv1.inclusion[i], lv1.inclusion[j])])
    return restricted == relation


def enumerate_preserved(structure: MsStructure, require_g: bool = False,
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
    lv1 = level_vertices(structure, 1)
    rows = lv1.copy_map
    incl = lv1.inclusion
    # union by size without path compression, so every union is undoable
    parent = list(range(lv1.num_vertices))
    size = [1] * lv1.num_vertices
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


def t_relation(structure: MsStructure, relation: Partition,
               form: ConductanceForm) -> ConductanceForm:
    """Renormalization applied to a degenerate form with kernel J.

    The trace goes through the same pseudo-inverse Schur complement as the
    nondegenerate case; for a preserved relation the result lands back in
    the same degenerate cone.
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


def t_quotient(structure: MsStructure, relation: Partition,
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

    closure = j1_closure(structure, relation)
    lv1 = level_vertices(structure, 1)
    class_of = {}
    for ci, cblock in enumerate(closure.blocks):
        for v in cblock:
            class_of[v] = ci
    nclasses = len(closure.blocks)

    block_idx = _index_blocks(structure, relation)
    wq = np.zeros((nclasses, nclasses))
    for row in lv1.copy_map:
        for (i, j), w in qform.weights.items():
            ci = class_of[row[block_idx[i][0]]]
            cj = class_of[row[block_idx[j][0]]]
            if ci != cj:
                wq[ci, cj] += w
                wq[cj, ci] += w

    boundary_classes = []
    for block in block_idx:
        boundary_classes.append(class_of[lv1.inclusion[block[0]]])
    if len(set(boundary_classes)) != len(boundary_classes):
        raise ValueError("boundary blocks collide in the closure; "
                         "the relation is not preserved")
    traced = _trace_matrix(wq, boundary_classes)
    return ConductanceForm.from_matrix(relation.blocks, traced)


def _modulo_columns(vertices: Sequence[Hashable], modulo) -> np.ndarray:
    nv = len(vertices)
    if modulo is None:
        return np.zeros((nv, 0))
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
    cols = np.zeros((nv, len(modulo)))
    for c, mapping in enumerate(modulo):
        for i, v in enumerate(vertices):
            cols[i, c] = mapping[v]
    return cols


def stationary_ratios(num_form: ConductanceForm, den_form: ConductanceForm,
                      modulo=None) -> tuple[float, float]:
    """Extreme ratios num(f)/den(f) over functions off the modded-out space.

    modulo may be None, "constants", a Partition (its block indicators), or
    an explicit sequence of value maps. The denominator form must be
    positive definite on the complement, otherwise the ratios are
    undefined and a ValueError is raised.
    """
    verts = den_form.vertices
    if set(num_form.vertices) != set(verts):
        raise ValueError("forms live on different vertex sets")
    order = [num_form.index[v] for v in verts]
    la = _laplacian(num_form.matrix())[np.ix_(order, order)]
    lb = _laplacian(den_form.matrix())

    cols = _modulo_columns(verts, modulo)
    if cols.shape[1] == 0:
        comp = np.eye(len(verts))
    else:
        u, s, _ = np.linalg.svd(cols, full_matrices=True)
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
    vals = scipy.linalg.eigh(ar, br, eigvals_only=True)
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
    """One-sided certificates for the extreme ratios on one side.

    rho_over upper-bounds the infimum of max-ratios over the side's cone;
    rho_under lower-bounds the supremum of min-ratios. k is the number of
    renormalization applications inside the ratio (always 1 here);
    basis_dim is the dimension of the searched weight space.
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


def _coordinate_descent(dim, objective, starts, sweeps):
    best_x, best_v = None, np.inf
    for x0 in starts:
        x = np.array(x0, dtype=float)
        value = objective(x)
        step = 0.5
        for _ in range(sweeps):
            improved = False
            for c in range(dim):
                for delta in (step, -step):
                    cand = x.copy()
                    cand[c] += delta
                    cv = objective(cand)
                    if cv < value - 1e-15:
                        x, value = cand, cv
                        improved = True
            if not improved:
                step *= 0.5
                if step < 1e-4:
                    break
        if value < best_v:
            best_x, best_v = x, value
    return best_x, best_v


def _log_weights(form: ConductanceForm, pairs, floor=1e-12) -> np.ndarray:
    return np.log([max(form.weight(x, y), floor) for x, y in pairs])


def rho_search(structure: MsStructure, relation: Partition, side: str, *,
               restarts: int = 3, sweeps: int = 40, seed: int = 0,
               starts: Sequence[ConductanceForm] = ()) -> RhoReport:
    """Optimize the extreme stationary ratios over one side's weight cone.

    Weights are parameterized by their logarithms (all pairs within blocks
    on the relation side, all block pairs on the quotient side), so every
    iterate stays strictly inside the cone. Coordinate descent with
    restarts; results are certificates, not claimed optima.
    """
    _check_ground(structure, relation)
    if side == "relation":
        pairs = [(x, y) for block in relation.blocks if len(block) > 1
                 for bi, x in enumerate(block) for y in block[bi + 1:]]
        vertices = structure.boundary

        def build(logw):
            return ConductanceForm.from_edges(
                vertices, [(x, y, float(np.exp(l)))
                           for (x, y), l in zip(pairs, logw)])

        def ratios(form):
            return stationary_ratios(t_relation(structure, relation, form),
                                     form, modulo=relation)
    elif side == "quotient":
        if relation.block_count() < 2:
            raise ValueError("degenerate quotient input: fewer than two "
                             "blocks")
        blocks = relation.blocks
        pairs = [(blocks[i], blocks[j]) for i in range(len(blocks))
                 for j in range(i + 1, len(blocks))]

        def build(logw):
            return ConductanceForm.from_edges(
                blocks, [(x, y, float(np.exp(l)))
                         for (x, y), l in zip(pairs, logw)])

        def ratios(form):
            return stationary_ratios(t_quotient(structure, relation, form),
                                     form, modulo="constants")
    else:
        raise ValueError(f"side must be 'relation' or 'quotient', got {side!r}")

    if not pairs:
        raise ValueError("relation has no searchable weight space")
    dim = len(pairs)
    counter = [0]

    def safe_ratios(logw):
        counter[0] += 1
        try:
            return ratios(build(logw))
        except (ValueError, np.linalg.LinAlgError):
            return (-np.inf, np.inf)

    rng = np.random.default_rng(seed)
    start_vectors = [np.zeros(dim)]
    for form in starts:
        try:
            start_vectors.append(_log_weights(form, pairs))
        except KeyError:
            continue
    for _ in range(max(restarts - 1, 0)):
        start_vectors.append(rng.standard_normal(dim))

    x_over, rho_over = _coordinate_descent(
        dim, lambda x: safe_ratios(x)[1], start_vectors, sweeps)
    x_under, neg_under = _coordinate_descent(
        dim, lambda x: -safe_ratios(x)[0], start_vectors, sweeps)
    return RhoReport(relation=relation, side=side,
                     rho_over=float(rho_over), rho_under=float(-neg_under),
                     k=1, basis_dim=dim,
                     best_over=build(x_over), best_under=build(x_under),
                     evaluations=counter[0])


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
    lv1 = level_vertices(structure, 1)
    w1 = _replicate_matrix(lv1, _boundary_matrix(structure, hs.form))
    hvec = np.array([values[v] for v in range(lv1.num_vertices)])
    net = _laplacian(w1) @ hvec
    included = set(lv1.inclusion)
    # noise floor of the matvec itself, so exact constants pass
    matvec_floor = float(np.abs(hvec).max()) * float(w1.sum())
    scale = max(float(np.abs(net).max()), matvec_floor, 1e-30)
    interior_resid = max((abs(float(net[v]))
                          for v in range(lv1.num_vertices)
                          if v not in included), default=0.0)
    if interior_resid > harmonic_tol * scale:
        raise ValueError(
            f"input is not harmonic: interior flow residual {interior_resid:.3e} "
            f"exceeds {harmonic_tol:.1e} of scale {scale:.3e}")

    boundary_values = {a: float(hvec[lv1.inclusion[i]])
                       for i, a in enumerate(structure.boundary)}
    boundary_flow = flows(hs.form, boundary_values)
    cell_flows = []
    for row in lv1.copy_map:
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

    flow_scale = max(max((abs(v) for v in boundary_flow.values()), default=0.0),
                     max((abs(v) for cf in cell_flows for v in cf.values()),
                         default=0.0), 1e-30)
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

    rhos[i] is (rho_over_relation, rho_under_relation, rho_over_quotient,
    rho_under_quotient) of the i-th relation; nested says whether two of
    them are strictly nested. Also returns the first index pair (a, b)
    whose quotient-side upper certificate of a sits below the
    relation-side lower certificate of b (the nonexistence witness).
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


def sabot_verdict(structure: MsStructure, hs: Optional[HarmonicStructure],
                  enumerated: Sequence[Partition], *,
                  restarts: int = 3, sweeps: int = 40,
                  seed: int = 0) -> VerdictReport:
    """Combine enumeration and rho searches into a verdict.

    Uniqueness requires the relation-side upper certificate to sit below
    the quotient-side lower certificate for every nontrivial relation, and
    no two nontrivial relations to be strictly nested. Nonexistence is
    certified when some quotient-side upper certificate sits below some
    relation-side lower certificate.
    """
    witnesses = []
    for rel in (rel for rel in enumerated if not rel.is_trivial):
        rel_starts, quot_starts = [], []
        try:
            rel_starts.append(block_star_form(structure, rel))
        except (ValueError, KappaUndefinedError, KernelMismatchError,
                NotAPermutationError, KeyError):
            pass
        try:
            quot_starts.append(block_cycle_form(structure, rel))
        except (ValueError, KappaUndefinedError, NotAPermutationError,
                KeyError):
            pass
        if hs is not None:
            try:
                rel_starts.append(d_sub_j(structure, hs.form, rel))
                quot_starts.append(quotient_form(rel, hs.form))
            except (ValueError, KernelMismatchError):
                pass
        rr = rho_search(structure, rel, "relation", restarts=restarts,
                        sweeps=sweeps, seed=seed, starts=rel_starts)
        qr = rho_search(structure, rel, "quotient", restarts=restarts,
                        sweeps=sweeps, seed=seed, starts=quot_starts)
        sep = qr.rho_under - rr.rho_over
        witnesses.append(RelationWitness(relation=rel, relation_rhos=rr,
                                         quotient_rhos=qr, separation=sep,
                                         criterion_met=sep > 0))

    ordered = nested_pairs([w.relation for w in witnesses])
    verdict, pair = verdict_rule(
        [(w.relation_rhos.rho_over, w.relation_rhos.rho_under,
          w.quotient_rhos.rho_over, w.quotient_rhos.rho_under)
         for w in witnesses], bool(ordered))
    nonexistence = None if pair is None else (witnesses[pair[0]].relation,
                                              witnesses[pair[1]].relation)
    return VerdictReport(verdict=verdict, witnesses=tuple(witnesses),
                         ordered_pairs=ordered,
                         nonexistence_witness=nonexistence)
