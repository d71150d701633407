"""Preserved equivalence relations, degenerate forms, and rho certificates.

A relation J on the boundary is preserved when the smallest equivalence on
the level-1 vertices generated by per-copy images of J restricts back to J
along the inclusion. Preserved relations split the renormalization map into
a relation side (degenerate forms whose kernel is the J-constant functions)
and a quotient side (forms on the block set); the extreme stationary ratios
of the two sides feed the existence and uniqueness criteria.

Each side is the T of a gluing scheme on weight matrices: the structure's
own on the relation side, and on the quotient side one whose rows are each
copy's closure classes of the block images. One loop, renorm.cone_iteration
of a side's T, yields the rho brackets of rho_search and the uniqueness
certificates; it is deterministic, so a report's values can be recomputed.
The bracket ends remain valid for the rotation-symmetric variants of the
same quantities, because averaging a form over the rotation group never
worsens either ratio (mediant inequality), so an unrestricted witness
certifies the symmetric criterion.

The closure, preservation test, enumeration, relation and quotient
operators and rho brackets read only a structure's boundary, index and
gluing scheme, so they take an MsStructure or a graph-directed cell from
gd.cell_graph alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .angles import Angle, critical_residues, kappa
from .errors import CapExceededError, KernelMismatchError, NotInvariantError
from .networks import (ConductanceForm, DisjointSet, _laplacian,
                       _support_labels)
from .renorm import HarmonicStructure, _boundary_matrix, cone_iteration
from .structure import GluingScheme, MsStructure

DEFAULT_ENUM_CAP = 21
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

    @property
    def ground_set(self) -> frozenset:
        return frozenset(x for b in self.blocks for x in b)

    def block_count(self) -> int:
        return len(self.blocks)

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

    def to_json(self) -> dict:
        return {"blocks": [[str(x) for x in b] for b in self.blocks]}


def _check_ground(structure, relation: Partition) -> None:
    if relation.ground_set != set(structure.boundary):
        raise ValueError("relation ground set does not match the boundary")


def _index_blocks(structure, relation: Partition) -> list[list[int]]:
    return [[structure.index[a] for a in b] for b in relation.blocks]


def rotation_invariant(structure: MsStructure, relation: Partition) -> bool:
    """True when rotating every block by one step permutes the blocks."""
    rot = structure.rotation
    if rot is None:
        return False
    blocks = {frozenset(b) for b in _index_blocks(structure, relation)}
    return all(frozenset(rot[i] for i in b) in blocks for b in blocks)


def _require_rotation(structure) -> tuple[int, ...]:
    """The boundary rotation, which G-relations need; NotInvariant when the
    boundary is not rotation-closed."""
    if structure.rotation is None:
        raise NotInvariantError(
            "G-relations need a rotation-closed boundary; "
            "build the structure with symmetrize=True")
    return structure.rotation


def is_preserved(structure, relation: Partition,
                 require_g: bool = False) -> bool:
    """Check that the level-1 closure restricts back to the relation itself.

    With require_g, the boundary must be rotation-closed (NotInvariant
    otherwise) and a relation that is not rotation-invariant is simply not
    a preserved G-relation, so the answer is False.
    """
    _check_ground(structure, relation)
    if require_g:
        _require_rotation(structure)
        if not rotation_invariant(structure, relation):
            return False
    scheme = structure.scheme
    classes = scheme.closure(_index_blocks(structure, relation))
    groups: dict[int, list] = {}
    for a, v in zip(structure.boundary, scheme.marked):
        groups.setdefault(classes[v], []).append(a)
    return Partition.from_blocks(groups.values()) == relation


def _image_first(f: Sequence[int]) -> list[int]:
    """The points of a self-map f of range(len(f)), each after its image
    but for one point per cycle: each cycle walked backwards from its
    least point, then the other points breadth first by preimages."""
    periodic = set(f)
    while len(image := {f[p] for p in periodic}) < len(periodic):
        periodic = image
    order: list[int] = []
    for p in sorted(periodic):
        while p not in order:
            order.append(p)
            p = next(q for q in periodic if f[q] == p)
    for p in order:  # the list grows as it is walked
        order += [q for q, fq in enumerate(f)
                  if fq == p and q not in periodic]
    return order


def _implications(g: Sequence[int]) -> list[tuple]:
    """p ~ q => g(p) ~ g(q), as (k, (p, q, g(p), g(q), g(q))) with k the
    last of its points, for each pair p < q that g does not join."""
    return [(gp if gp > top else top, (p, q, gp, gq, gq))
            for q, gq in enumerate(g) for top in [q if q > gq else gq]
            for p, gp in enumerate(g[:q]) if gp != gq]


class _SearchPlan:
    """The search of enumerate_preserved on one structure, built once and
    kept for both modes. Points are numbered by their visiting position:
    point k is boundary[order[k]], the search assigns it at depth k, and
    rows and incl are the scheme's rows and inclusion in that numbering.

    An implication (p, q, h, a, b), p < q, says that no relation with
    p ~ q but neither h ~ a nor h ~ b is preserved. buckets(require_g)
    files each under the last of its points, k, generated with it:
    joining[k] holds them all, and opening[k] those with q != k, the only
    ones that can fail where k opens a block, which relates k to no other
    point. answers keeps each answer by its RGS code, for both modes.
    """

    def __init__(self, structure):
        scheme = structure.scheme
        rows, nb = scheme.rows, len(scheme.marked)
        # an id's vertex in its first copy
        vertex_of = {x: v for row in reversed(rows) for v, x in enumerate(row)}
        identity = list(range(nb))
        f = None
        if all(list(map(vertex_of.__getitem__, row)) == identity
               for row in rows):
            f = [vertex_of[x] for x in scheme.marked]
        self.order = _image_first(f) if f else identity
        self.position = [0] * nb
        for k, p in enumerate(self.order):
            self.position[p] = k
        self.rows = [[row[p] for p in self.order] for row in rows]
        self.incl = [scheme.marked[p] for p in self.order]
        self.answers: dict[tuple[int, ...], Partition] = {}
        self._buckets = {False: ([[] for _ in self.order],
                                 [[] for _ in self.order])}
        if f:
            f = self._renumbered(f)
            self._add(False, _implications(f) + self._arc_implications(f))

    def _renumbered(self, g: Sequence[int]) -> list[int]:
        """A self-map of the boundary indices, in visiting positions."""
        return [self.position[g[p]] for p in self.order]

    def _arc_implications(self, f: list[int]) -> list[tuple]:
        """(k, (p, q, h, a, b)), k the last point, for p and q in
        different copies, h the first of f(p) and f(q), and glue vertices
        a and b, one from each of the two ring arcs between those copies;
        a glue vertex x on both arcs gives (p, q, h, x, x) alone. Glue
        vertices equal to f(p) or f(q) are left out: the block of f(p)
        holds them, so an arc of only such vertices joins the copies."""
        rows, ring = self.rows, len(self.rows)
        # glue[c] is the vertex that copies c and c+1 share
        glue = [row.index(x) for row, nxt in zip(rows, rows[1:] + rows[:1])
                for (x,) in [set(row).intersection(nxt)]]
        copy_of = {x: c for c in reversed(range(ring)) for x in rows[c]}
        copy = [copy_of[x] for x in self.incl]  # each id's first copy
        pairs = {}  # (a, b, the last of a and b) for copies c and d
        for d in range(ring):
            for c in range(d):
                one, other = set(glue[c:d]), set(glue[d:] + glue[:c])
                pairs[c, d] = pairs[d, c] = [
                    (x, x, x) for x in one & other] + [
                    (a, b, a if a > b else b)
                    for a in one - other for b in other - one]
        return [(top if top > last else last, (p, q, h, a, b))
                for q, (d, fq) in enumerate(zip(copy, f))
                for p, c, fp in zip(range(q), copy, f) if c != d
                for h, t in [(fp, fq) if fp < fq else (fq, fp)]
                for top in [q if q > h else h]
                for a, b, last in pairs[c, d]
                if a != h and a != t and b != h and b != t]

    def _add(self, require_g: bool, implications: list) -> None:
        joining, opening = self._buckets[require_g]
        for k, imp in implications:
            joining[k].append(imp)
            if k != imp[1]:
                opening[k].append(imp)

    def buckets(self, structure, require_g: bool) -> tuple[list, list]:
        """joining and opening of one mode; the G search adds, on its
        first run, p ~ q => r(p) ~ r(q) for the rotation r alone (see
        enumerate_preserved)."""
        if require_g not in self._buckets:
            self._buckets[True] = tuple([list(b) for b in lists]
                                        for lists in self._buckets[False])
            rotation = self._renumbered(structure.rotation)
            self._add(True, _implications(rotation))
        return self._buckets[require_g]


def _search_plan(structure) -> _SearchPlan:
    """The search plan of a structure, built on first use and kept."""
    if "_search_plan" not in vars(structure):
        vars(structure)["_search_plan"] = _SearchPlan(structure)
    return vars(structure)["_search_plan"]


def enumerate_preserved(structure, require_g: bool = False,
                        cap: int = DEFAULT_ENUM_CAP) -> list[Partition]:
    """All preserved relations (including the two trivial ones), in RGS order.

    Depth-first restricted-growth search over the boundary points in a
    visiting order, with one undoable union-find on the level-1 ids
    carrying the closure of the partial assignment. Point i joining block
    c unions row[first of c] with row[i] in every copy. Each root is
    labelled with the block of the assigned points whose inclusions it
    holds (-1 for none); a union of roots with different labels, or point
    i landing on a root labelled with another block, fails the node.
    Unions and label changes share one undo log. When the root of point
    i's inclusion is already labelled, that block is the only choice that
    can pass, so it is the only one tried.

    Pruning is sound because F(J), the level-1 closure of J restricted
    back to the boundary, is monotone in J, and a restricted-growth search
    never merges blocks that are already assigned. So once the closure of
    a partial assignment joins the inclusions of two assigned points in
    different blocks, F of every completion relates those two points and
    no completion is a fixed point. F is not extensive (F(J) >= J fails
    for most J), so closure-system shortcuts do not apply. A leaf is
    preserved exactly when "same root" equals "same block" on all points.

    The search also prunes by implications that every answer satisfies,
    each checked at the node that assigns the last of its points (see
    _SearchPlan): codes never change below a node, so a node that breaks
    one has no answer below it. On an MS level glue_copies joins vertex
    g_c of copy c to vertex g_c of copy c+1 and nothing else, so the
    copies form a ring, copies c and c+1 share exactly one id, and every
    id's slots (c, v) share one vertex index v. The closure of J's
    per-copy images therefore joins slot (c, v) to slot (d, u) exactly
    when u ~_J v and one of the two ring arcs from c to d (the empty one
    when c = d) has every g_e in v's block: within a copy it joins J's
    blocks, and it crosses from copy e to e+1 only at g_e, into the same
    block. With f(p) the vertex index of p's inclusion (the boundary
    index of phi_n(p)) and c(p) its copy, F(J) relates p and q exactly
    when f(p) ~_J f(q) and an arc from c(p) to c(q) lies in f(p)'s block.
    So the half J <= F(J) of the fixed-point condition is two
    implications: p ~ q implies f(p) ~ f(q), which makes every answer map
    blocks into blocks, and p ~ q implies such an arc, which fails when
    each arc holds a glue vertex outside f(p)'s block. With them, every
    leaf that the labels pass is an answer. With require_g the rotation
    r by 1/(m+n) gives p ~ q => r(p) ~ r(q): a leaf that passes it has r
    permute its blocks, so it is invariant under every power of r, which
    are the rotations. A GD cell, whose ids mix vertex indices,
    has no f and no such implications, and relies on the leaf test.

    The visiting order is image-first when f exists: the periodic points
    of f first, each cycle walked backwards from its least point, then
    their preimages breadth first. So f(p) is assigned before p for all
    but one point per cycle, and for such p and q the check by f fires as
    soon as both are assigned rather than with the last of four points. A
    GD cell is searched in boundary order. Each partition is visited once
    whatever the order, and the answers are sorted back into the RGS order
    of their codes on boundary indices 0, 1, ..., nb-1. The order and the
    implications are kept on the structure, for both modes.

    Refuses boundaries larger than the cap, and a cap below 1 as invalid
    input (ValueError). With require_g, only the rotation-invariant
    relations among the preserved ones are returned.
    """
    if cap < 1:
        raise ValueError(f"enumeration cap must be at least 1, got {cap}")
    nb = len(structure.boundary)
    if nb > cap:
        raise CapExceededError(
            f"boundary size {nb} exceeds enumeration cap {cap}")
    if require_g:
        _require_rotation(structure)
    plan = _search_plan(structure)
    joining, opening = plan.buckets(structure, require_g)
    rows, incl = plan.rows, plan.incl
    num_ids = structure.scheme.num_ids
    # union by size without path compression, so every union is undoable
    parent = list(range(num_ids))
    size = [1] * num_ids
    label = [-1] * num_ids
    # a root r that was merged away, or ~r for a root that was labelled
    undo_log: list[int] = []

    def union(x: int, y: int) -> bool:
        """Join the roots of x and y; False when their labels differ."""
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x == y:
            return True
        lx, ly = label[x], label[y]
        if lx != ly and lx >= 0 and ly >= 0:
            return False
        if size[x] < size[y]:
            x, y, lx, ly = y, x, ly, lx
        parent[y] = x
        size[x] += size[y]
        undo_log.append(y)
        if lx < 0 <= ly:
            label[x] = ly
            undo_log.append(~x)
        return True

    code = [0] * nb
    first: list[int] = []  # first visited point of each block
    found: list[tuple[int, ...]] = []  # RGS codes of the answers

    def emit() -> None:
        for p in range(nb):
            x, y = incl[p], incl[first[code[p]]]
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            if x != y:
                return
        rgs: dict[int, int] = {}
        key = tuple(rgs.setdefault(code[k], len(rgs)) for k in plan.position)
        if key not in plan.answers:
            groups: list[list] = [[] for _ in first]
            for a, b in zip(structure.boundary, key):
                groups[b].append(a)
            plan.answers[key] = Partition.from_blocks(groups)
        found.append(key)

    def rec(k: int) -> None:
        if k == nb:
            emit()
            return
        root = incl[k]
        while parent[root] != root:
            root = parent[root]
        forced = label[root]
        opened = len(first)
        for c in (forced,) if forced >= 0 else range(opened + 1):
            code[k] = c
            for p, q, h, a, b in opening[k] if c == opened else joining[k]:
                if code[p] == code[q] and code[a] != code[h] != code[b]:
                    break
            else:
                mark = len(undo_log)
                if forced < 0:
                    label[root] = c
                    undo_log.append(~root)
                if c == opened:
                    first.append(k)
                    rec(k + 1)
                    first.pop()
                else:
                    for row in rows:
                        if not union(row[first[c]], row[k]):
                            break
                    else:
                        rec(k + 1)
                while len(undo_log) > mark:  # undo
                    entry = undo_log.pop()
                    if entry < 0:
                        label[~entry] = -1
                    else:
                        size[parent[entry]] -= size[entry]
                        parent[entry] = entry

    rec(0)
    return [plan.answers[key] for key in sorted(found)]


def build_J_plus_minus(structure: MsStructure) -> tuple[Partition, Partition]:
    """The two candidate relations generated by the cell-return permutation.

    Generators pair each critical angle (plus-side) or its predecessor
    (minus-side) with the image of the critical angle returning to its
    cell. Each generating pair is joined, with its images under the angle
    map up to the first that repeats or is a single point, in one
    union-find on the boundary residues (by slot) and the critical ones;
    its classes on the boundary are the relation. KappaUndefined when the
    cell-return map is not a permutation.
    """
    ctx, nb = structure.ctx, len(structure.boundary)
    n, modulus = ctx.n, ctx.modulus
    crits = critical_residues(ctx)
    ids = {**structure.slot, **{c: nb + i for i, c in enumerate(crits)}}
    images = [crits[j - 1] * n % modulus for j in kappa(ctx)]
    results = []
    for shift in (0, -1):  # crits[-1] is theta, the predecessor of c_1
        dsu, seen = DisjointSet(len(ids)), set()
        for c, x in zip(crits[shift:] + crits[:shift], images):
            while c != x and (c, x) not in seen:
                seen.add((c, x))
                dsu.union(ids[c], ids[x])
                c, x = c * n % modulus, x * n % modulus
        groups: dict[int, list] = {}
        for i, a in enumerate(structure.boundary):
            groups.setdefault(dsu.find(i), []).append(a)
        results.append(Partition.from_blocks(groups.values()))
    return results[0], results[1]


def _complement(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of cols' span."""
    u, s, _ = np.linalg.svd(cols, full_matrices=True)
    return u[:, int((s > 1e-12 * max(s[0], 1.0)).sum()):]


class _Side:
    """A gluing scheme on the forms whose support components are the
    classes of the indicator columns cols (the blocks, or on the quotient
    side all blocks in one), with ratios taken off the span of cols."""

    def __init__(self, vertices: tuple, scheme: GluingScheme,
                 cols: np.ndarray):
        self.vertices, self.scheme = vertices, scheme
        self.same = cols @ cols.T > 0
        self.comp = _complement(cols)
        self.start = (self.same & ~np.eye(len(cols), dtype=bool)) * 1.0
        self._mismatch: dict[bytes, Optional[str]] = {}

    def check(self, w: np.ndarray) -> None:
        """KernelMismatch unless w's support components are the classes.
        The outcome depends only on the support of w, so it is kept per
        support pattern, by its bytes, as GluingScheme._plan keeps plans."""
        key = (w > 0).tobytes()
        if key not in self._mismatch:
            self._mismatch[key] = self._kernel_mismatch(w)
        if self._mismatch[key] is not None:
            raise KernelMismatchError(self._mismatch[key])

    def _kernel_mismatch(self, w: np.ndarray) -> Optional[str]:
        labels = _support_labels(w)
        reach = labels[:, None] == labels
        if not (reach != self.same).any():
            return None
        comps, blocks = (
            sorted({tuple(v for v, r in zip(self.vertices, row) if r)
                    for row in mask}) for mask in (reach, self.same))
        return ("form kernel does not match the relation: support "
                f"components {comps} vs blocks {blocks}")

    @cached_property
    def class_schemes(self) -> list[tuple[list[int], GluingScheme]]:
        """Each class, with the one-copy scheme that traces onto it."""
        ids = tuple(range(len(self.same)))
        classes = dict.fromkeys(tuple(np.flatnonzero(row).tolist())
                                for row in self.same)
        return [(list(c), GluingScheme((ids,), c, len(ids)))
                for c in classes]

    def op(self, w: np.ndarray) -> np.ndarray:
        self.check(w)
        return self.scheme.T(w)


def _side(structure, relation: Partition, side: str) -> _Side:
    """The plan of one side, built on first use and kept on the structure."""
    plans = vars(structure).setdefault("_side_plans", {})
    if (relation, side) not in plans:
        plans[relation, side] = _build_side(structure, relation, side)
    return plans[relation, side]


def _build_side(structure, relation: Partition, side: str) -> _Side:
    block_idx = _index_blocks(structure, relation)
    if side == "relation":
        cols = np.zeros((len(structure.boundary), len(block_idx)))
        for b, block in enumerate(block_idx):
            cols[block, b] = 1.0
        return _Side(structure.boundary, structure.scheme, cols)
    if side != "quotient":
        raise ValueError(f"side must be 'relation' or 'quotient', got {side!r}")
    if relation.block_count() < 2:
        raise ValueError("degenerate quotient input: fewer than two blocks")
    scheme = structure.scheme
    class_of = scheme.closure(block_idx)
    # classes of each copy's block images, then of the boundary blocks; a
    # class named twice in a row folds two blocks, which assemble drops
    rows = [tuple(class_of[row[block[0]]] for block in block_idx)
            for row in scheme.rows + (scheme.marked,)]
    if any(len(set(ids)) != len(ids) for ids in rows):
        raise ValueError("block images collide in the closure; "
                         "the relation is not preserved")
    quotient = GluingScheme(tuple(rows[:-1]), rows[-1], max(class_of) + 1)
    return _Side(relation.blocks, quotient, np.ones((len(block_idx), 1)))


def _ratio_bounds(num: np.ndarray, den: np.ndarray,
                  comp: np.ndarray) -> tuple[float, float]:
    """Extreme ratios num(f)/den(f) of the energies of two weight matrices
    over f in the span of the orthonormal columns comp.

    The denominator must be positive definite on that span, otherwise the
    ratios are undefined and a ValueError is raised.
    """
    if comp.shape[1] == 0:
        raise ValueError("modded-out space covers everything; "
                         "no ratios to compute")
    ar = comp.T @ _laplacian(num) @ comp
    br = comp.T @ _laplacian(den) @ comp
    br = 0.5 * (br + br.T)
    bvals, bvecs = np.linalg.eigh(br)
    if bvals[0] <= 1e-12 * max(bvals[-1], 1e-300):
        raise ValueError("denominator form degenerate on the complement of "
                         "the modded-out space")
    # whitening reduces it to a standard problem: with br = V diag(b) V^T
    # and W = V diag(b)^-1/2, W^T ar W has the generalized eigenvalues
    white = bvecs / np.sqrt(bvals)
    reduced = white.T @ ar @ white
    vals = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    return float(vals[0]), float(vals[-1])


@dataclass(frozen=True)
class RhoReport:
    """Bracket of the extreme stationary ratios on one side's cone.

    rho_over is the least max-ratio and rho_under the greatest min-ratio
    of one renormalization step met along the power iterates; best_over
    and best_under are the iterates that attain them. basis_dim is the
    number of weights of a form on the side (within-block pairs on the
    relation side, block pairs on the quotient side); evaluations counts
    the bracket steps.
    """

    relation: Partition
    side: str
    rho_over: float
    rho_under: float
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

    An iterate can collapse towards a face of the cone until its form is
    no longer positive definite on the complement, and the ratios of the
    next step are undefined. The bracket then ends at the last step whose
    denominator was positive definite: every m_k and M_k met so far is a
    valid bound, so stopping early only leaves the bracket wider. Only a
    degenerate first step raises.
    """
    _check_ground(structure, relation)
    plan = _side(structure, relation, side)
    basis_dim = int(np.count_nonzero(plan.start)) // 2
    if not basis_dim:
        raise ValueError("relation has no weights on this side")

    rho_over, rho_under = np.inf, -np.inf
    for step, (w, image, _) in zip(range(1, BRACKET_STEPS + 1),
                                   cone_iteration(plan.op, plan.start)):
        try:
            lo, hi = _ratio_bounds(image, w, plan.comp)
        except ValueError:
            if step == 1:
                raise
            step -= 1
            break
        if hi < rho_over:
            rho_over, best_over = hi, w
        if lo > rho_under:
            rho_under, best_under = lo, w
        if rho_over - rho_under <= BRACKET_TOL * abs(rho_over):
            break
    return RhoReport(
        relation=relation, side=side, rho_over=rho_over,
        rho_under=rho_under, basis_dim=basis_dim,
        best_over=ConductanceForm.from_matrix(plan.vertices, best_over),
        best_under=ConductanceForm.from_matrix(plan.vertices, best_under),
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


def _block_traces(structure, w: np.ndarray, relation: Partition
                  ) -> np.ndarray:
    """D_J: the sum of the traces of w onto each block, the canonical
    element of the relation side's cone.

    Trivial relations are rejected: all-singleton blocks give the zero
    form, and the one-block relation just returns w itself.
    """
    _check_ground(structure, relation)
    if relation.is_trivial:
        raise ValueError("trivial relation rejected: its block traces give "
                         "the zero form or the original form")
    side = _side(structure, relation, "relation")
    out = np.zeros_like(w)
    for block, one in side.class_schemes:
        out[np.ix_(block, block)] = one.T(w)
    side.check(out)
    return out


def uniqueness_certificate(structure: MsStructure, hs: HarmonicStructure,
                           relation: Partition, k_max: int = DEFAULT_K_MAX
                           ) -> CertificateReport:
    """Check eta^k-scaled contraction of iterated block forms: certified
    at the first k whose entry is below 1 - DEFAULT_MARGIN, and monotone
    when no entry exceeds the one before by more than 1e-12 of the
    largest."""
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    base = _block_traces(structure, _boundary_matrix(structure, hs.form),
                         relation)
    plan = _side(structure, relation, "relation")
    trajectory, scale = [], 1.0
    for k, (_, image, mass) in zip(range(1, k_max + 1),
                                   cone_iteration(plan.op, base)):
        # scale * image is T_J^k(base): each iterate was divided by its mass
        ratio = _ratio_bounds(image, base, plan.comp)[1]
        trajectory.append(float(hs.eta ** k * scale * ratio))
        scale *= mass
    certified_k = next((k for k, r in enumerate(trajectory, start=1)
                        if r < 1.0 - DEFAULT_MARGIN), None)
    largest = max(abs(t) for t in trajectory)
    monotone = all(b <= a + 1e-12 * largest
                   for a, b in zip(trajectory, trajectory[1:]))
    return CertificateReport(relation=relation,
                             certified=certified_k is not None,
                             k=certified_k, margin=DEFAULT_MARGIN,
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
                   values: Sequence[float]) -> FlowReport:
    """Flows of the level-1 harmonic extension, on the copies of the
    eigenform, of boundary values given in boundary order."""
    ctx = structure.ctx
    scheme = structure.scheme
    w0 = _boundary_matrix(structure, hs.form)
    hvec = scheme.harmonic(w0)[1] @ np.asarray(values, dtype=float)
    # noise floor of the matvec, so the flows of a constant are inactive;
    # the glued copies sum to one w0 per copy, as gluing only merges entries
    matvec_floor = float(np.abs(hvec).max()) * float(len(scheme.rows)
                                                     * w0.sum())

    # net current out of each boundary vertex of the form, (L h)(x), at
    # the marked values and at each copy's values
    lap = _laplacian(w0)
    boundary_flow, *cell_flows = (
        dict(zip(structure.boundary, (lap @ hvec[list(row)]).tolist()))
        for row in (scheme.marked, *scheme.rows))

    ring = ctx.ring_size
    conservation = abs(sum(boundary_flow.values()))
    matching = 0.0
    junction = []
    for i in range(ring):
        r = structure.glue_points[i]
        total = cell_flows[i][r] + cell_flows[(i + 1) % ring][r]
        matching = max(matching, abs(total))
        junction.append(abs(cell_flows[i][r]))
    scaling, slot = 0.0, structure.slot
    for a in structure.boundary:
        image = structure.boundary[slot[a[0] * ctx.n % ctx.modulus]]
        inner = cell_flows[structure.cells[a] - 1][image]
        scaling = max(scaling, abs(boundary_flow[a] - hs.eta * inner))

    # floored at the matvec noise, so the rounding-level flows of a
    # constant input do not set the scale they are measured against
    flow_scale = max(max((abs(v) for v in boundary_flow.values()), default=0.0),
                     max((abs(v) for cf in cell_flows for v in cf.values()),
                         default=0.0), matvec_floor, 1e-30)
    threshold = 1e-9 * flow_scale
    active_boundary = tuple(a for a in structure.boundary
                            if abs(boundary_flow[a]) > threshold)
    active_critical = tuple(Angle(c, ctx.modulus) for c, flow
                            in zip(critical_residues(ctx), junction)
                            if flow > threshold)
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
    criterion_met: bool


@dataclass(frozen=True)
class VerdictReport:
    """Existence/uniqueness verdict assembled from the rho certificates.

    verdict is one of: no_nontrivial_relations_exists_unique,
    criteria_hold_exists_unique, nonexistence_certified, inconclusive.
    ordered_pairs holds the pairs (a, b) of distinct witnessed relations
    where a refines b.
    """

    verdict: str
    witnesses: tuple[RelationWitness, ...]
    ordered_pairs: tuple[tuple[Partition, Partition], ...]


def sabot_verdict(structure, enumerated: Sequence[Partition]
                  ) -> VerdictReport:
    """Combine enumeration and rho brackets into a verdict.

    Nonexistence is certified when some quotient-side upper certificate
    sits below some relation-side lower certificate. Otherwise uniqueness
    requires the relation-side upper certificate to sit below the
    quotient-side lower certificate for every nontrivial relation, and no
    two nontrivial relations to be strictly nested. With no nontrivial
    relation the eigenform exists and is unique.
    """
    witnesses = []
    for rel in (rel for rel in enumerated if not rel.is_trivial):
        rr = rho_search(structure, rel, "relation")
        qr = rho_search(structure, rel, "quotient")
        witnesses.append(RelationWitness(
            relation=rel, relation_rhos=rr, quotient_rhos=qr,
            criterion_met=qr.rho_under - rr.rho_over > 0))
    rels = [w.relation for w in witnesses]
    ordered = tuple((a, b) for a in rels for b in rels
                    if a != b and a.refines(b))
    if not witnesses:
        verdict = "no_nontrivial_relations_exists_unique"
    elif any(a.quotient_rhos.rho_over < b.relation_rhos.rho_under
             for a in witnesses for b in witnesses):
        verdict = "nonexistence_certified"
    elif all(w.criterion_met for w in witnesses) and not ordered:
        verdict = "criteria_hold_exists_unique"
    else:
        verdict = "inconclusive"
    return VerdictReport(verdict=verdict, witnesses=tuple(witnesses),
                         ordered_pairs=ordered)
