"""Preserved relations: closures, candidates, operators, certificates.

The relation and quotient operators are the sides' matrix operators,
_side(structure, relation, side).op, and stationary ratios are
_ratio_bounds of two weight matrices.
"""

from fractions import Fraction

import numpy as np
import pytest

from fractal_renorm import networks
from fractal_renorm import (
    CapExceededError, ConductanceForm, KappaUndefinedError,
    KernelMismatchError, NotInvariantError, Partition, build_J_plus_minus,
    build_structure, enumerate_preserved, is_preserved, kappa,
    level_vertices, levels_to_json, make_context, per_cell_flows, rho_search,
    rotation_invariant, sabot_verdict, solve_eigenform,
    uniqueness_certificate,
)
from fractal_renorm import relations
from fractal_renorm.gd import RELATION_PQ, RELATION_SIDES, cell_graph
from fractal_renorm.relations import (DEFAULT_ENUM_CAP, _block_traces,
                                      _complement, _image_first,
                                      _ratio_bounds, _search_plan, _side)
from fractal_renorm.renorm import _boundary_matrix, cone_iteration
from fractal_renorm.structure import GluingScheme
from _oracles import (angle_J_plus_minus, block_containing,
                      block_cycle_form, block_star_form,
                      boundary_order_preserved, brute_force_preserved,
                      circle_distance, critical_angles, energy,
                      gd_rho_values, glue_arc_preserved, loop_t_quotient,
                      loop_t_relation, partition_from_pairs, partitions_rgs,
                      phi_n, quotient_weights, rotated_by_angles,
                      search_counts, support_components, valid_contexts)

SWEEP_FAMILIES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]
# the enumeration's brute-force oracle: every valid theta with q <= 40 and
# nb <= 8 for the full search, and five of them for the G-search
BRUTE_FORCE_CONTEXTS = [(n, m, str(theta)) for n, m, theta
                        in valid_contexts(SWEEP_FAMILIES, 40, 8)]
G_BRUTE_FORCE_CONTEXTS = [(2, 1, "1/12"), (2, 1, "1/6"), (3, 1, "1/9"),
                          (2, 2, "3/16"), (2, 3, "1/10")]
GD_CELLS = [(2, 1), (3, 1), (4, 3), (3, 6), (5, 5)]


def ms(n, m, theta, symmetrize=None):
    return build_structure(make_context(n, m, Fraction(theta)), symmetrize)


def by_fraction(structure):
    return {a.as_fraction(): a for a in structure.boundary}


def partition_of(structure, *blocks):
    angles = by_fraction(structure)
    return Partition.from_blocks(
        [[angles[Fraction(x)] for x in b] for b in blocks],
        ground=structure.boundary)


def opposite_pairs(structure):
    return partition_of(structure, ["0", "1/2"], ["1/6", "2/3"],
                        ["1/3", "5/6"])


def singletons(structure):
    return Partition.from_blocks([[a] for a in structure.boundary])


def one_block(structure):
    return Partition.from_blocks([list(structure.boundary)])


def index_blocks(structure, relation):
    return [[structure.index[a] for a in b] for b in relation.blocks]


def closure_classes(structure, relation, level=1):
    """Class of each level-k id under the per-copy images of the relation,
    from GluingScheme.closure level by level."""
    blocks = index_blocks(structure, relation)
    for lvl in range(1, level + 1):
        classes = level_vertices(structure, lvl).closure(blocks)
        groups = {}
        for v, c in enumerate(classes):
            groups.setdefault(c, []).append(v)
        blocks = list(groups.values())
    return classes


def class_members(classes, v):
    return {x for x, c in enumerate(classes) if c == classes[v]}


def within_block_unit(structure, relation):
    """Unit weight on every pair inside a block, in boundary order."""
    nb = len(structure.boundary)
    w = np.zeros((nb, nb))
    for block in index_blocks(structure, relation):
        for i in block:
            for j in block:
                if i != j:
                    w[i, j] = 1.0
    return w


def block_unit(relation):
    """Unit weight between every two blocks, in block order."""
    nb = relation.block_count()
    return np.ones((nb, nb)) - np.eye(nb)


def quadratic(w, f):
    """Energy of values f (in matrix order) under the weight matrix w."""
    return float(f @ (np.diag(w.sum(axis=1)) - w) @ f)


class TestPartition:
    def test_canonical_block_order(self):
        p = Partition.from_blocks([[3, 1], [2, 0]])
        assert p.blocks == ((0, 2), (1, 3))

    def test_from_pairs(self):
        # the oracle's, which the Angle route of the candidates joins with
        p = partition_from_pairs(range(4), [(0, 1), (1, 2)])
        assert p.blocks == ((0, 1, 2), (3,))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_blocks([[0, 1], [1, 2]])

    def test_trivial_flags(self):
        assert Partition.from_blocks([[0], [1]]).is_trivial_zero
        assert Partition.from_blocks([[0, 1]]).is_trivial_one
        assert not Partition.from_blocks([[0, 1], [2]]).is_trivial

    def test_refines(self):
        fine = Partition.from_blocks([[0], [1], [2, 3]])
        coarse = Partition.from_blocks([[0, 1], [2, 3]])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_json_round_trip(self):
        s = ms(2, 1, "1/12")
        p = opposite_pairs(s)
        angles = by_fraction(s)
        blocks = p.to_json()["blocks"]
        assert Partition.from_blocks(
            [[angles[Fraction(x)] for x in b] for b in blocks],
            ground=s.boundary) == p


class TestClosure:
    def test_j1_block_count_opposite_pairs(self):
        # n(n+1) closure classes at n = 2
        s = ms(2, 1, "1/12")
        closure = closure_classes(s, opposite_pairs(s))
        assert len(set(closure)) == 6
        assert len(closure) == 15

    def test_singletons_stay_split(self):
        s = ms(2, 1, "1/12")
        assert len(set(closure_classes(s, singletons(s)))) == 15

    def test_one_block_collapses(self):
        s = ms(2, 1, "1/12")
        assert len(set(closure_classes(s, one_block(s)))) == 1

    def test_levels_agree_on_included_ids(self):
        # deeper closures restrict to shallower ones along the inclusion
        s = ms(2, 1, "1/12")
        lv2 = level_vertices(s, 2)
        for rel in (opposite_pairs(s), singletons(s), one_block(s)):
            c1 = closure_classes(s, rel)
            c2 = closure_classes(s, rel, level=2)
            for x in range(15):
                for y in range(15):
                    assert (c1[x] == c1[y]) == \
                        (c2[lv2.marked[x]] == c2[lv2.marked[y]])

    def test_projection_compatibility(self):
        # related level-1 ids have related parent positions
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        rel = opposite_pairs(s)
        closure = closure_classes(s, rel)
        parent = {}  # the vertex of each id in the first copy holding it
        for row in lv1.rows:
            for v, vid in enumerate(row):
                parent.setdefault(vid, v)
        for x in range(15):
            for y in class_members(closure, x):
                assert block_containing(rel, s.boundary[parent[x]]) == \
                    block_containing(rel, s.boundary[parent[y]])

    def test_merge_vertices_stay_apart(self):
        # no two junction images share a class for a nontrivial relation
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        merges = levels_to_json(lv1, 1)["merges"]  # two slots per junction
        merge_ids = [vid for _, _, vid in merges[::2]]
        closure = closure_classes(s, opposite_pairs(s))
        for i, x in enumerate(merge_ids):
            for y in merge_ids[i + 1:]:
                assert closure[x] != closure[y]

    def test_block_structure_two_adjacent_copies(self):
        # each boundary block lands in two adjacent copy images of one block
        s = ms(2, 1, "1/12")
        ctx = s.ctx
        ring = ctx.ring_size
        rel = opposite_pairs(s)
        lv1 = level_vertices(s, 1)
        closure = closure_classes(s, rel)
        perm = kappa(ctx)
        inv = {perm[i - 1]: i for i in range(1, ring + 1)}
        crits = critical_angles(ctx)
        centers = [phi_n(crits[perm[i] - 1], ctx.n) for i in range(ring)]
        for i in range(1, ring + 1):
            block_i = block_containing(rel, centers[i - 1])
            seed = lv1.marked[s.index[block_i[0]]]
            closure_block = class_members(closure, seed)
            source = block_containing(rel, centers[inv[i] - 1])
            expected = {lv1.rows[i - 1][s.index[a]] for a in source}
            expected |= {lv1.rows[i % ring][s.index[a]] for a in source}
            assert closure_block == expected


class TestPreserved:
    def test_opposite_pairs_preserved(self):
        s = ms(2, 1, "1/12")
        assert is_preserved(s, opposite_pairs(s))
        assert is_preserved(s, opposite_pairs(s), require_g=True)

    def test_adjacent_pair_not_preserved(self):
        s = ms(2, 1, "1/12")
        rel = partition_of(s, ["0", "1/6"], ["1/3"], ["1/2"], ["2/3"],
                           ["5/6"])
        assert not is_preserved(s, rel)

    def test_trivials_preserved(self):
        s = ms(2, 1, "1/12")
        assert is_preserved(s, singletons(s))
        assert is_preserved(s, one_block(s))

    def test_require_g_needs_closed_boundary(self):
        s = ms(2, 2, "3/16", symmetrize=False)
        with pytest.raises(NotInvariantError):
            is_preserved(s, Partition.from_blocks([[a] for a in s.boundary]),
                         require_g=True)

    def test_require_g_rejects_preserved_relations_that_rotation_moves(self):
        s = ms(2, 1, "1/12")
        moved = [rel for rel in enumerate_preserved(s)
                 if not rotated_by_angles(s, rel)]
        assert len(moved) == 4
        for rel in moved:
            assert is_preserved(s, rel)
            assert not is_preserved(s, rel, require_g=True)

    def test_rotation_invariance_filter(self):
        s = ms(2, 1, "1/12")
        assert rotation_invariant(s, opposite_pairs(s))
        skew = partition_of(s, ["0", "1/2"], ["1/6"], ["2/3"], ["1/3"],
                            ["5/6"])
        assert not rotation_invariant(s, skew)

    @pytest.mark.parametrize("n,m,theta,symmetrize", [
        (2, 1, "1/12", None), (3, 1, "1/9", None), (2, 2, "3/16", None),
        (2, 2, "3/16", False)])
    def test_rotation_invariant_matches_rotated_angles(self, n, m, theta,
                                                        symmetrize):
        s = ms(n, m, theta, symmetrize)
        for rel in partitions_rgs(s.boundary):
            assert rotation_invariant(s, rel) == rotated_by_angles(s, rel)


class TestEnumeration:
    def test_2_1_12_g_relations(self):
        s = ms(2, 1, "1/12")
        found = enumerate_preserved(s, require_g=True)
        assert sorted(p.block_count() for p in found) == [1, 3, 6]
        assert opposite_pairs(s) in found

    def test_2_2_316_only_trivial(self):
        s = ms(2, 2, "3/16")
        found = enumerate_preserved(s, require_g=True)
        assert sorted(p.block_count() for p in found) == [1, 8]

    def test_2_1_6_only_trivial(self):
        s = ms(2, 1, "1/6")
        found = enumerate_preserved(s, require_g=True)
        assert sorted(p.block_count() for p in found) == [1, 3]

    def test_cap(self):
        s = ms(2, 1, "1/12")
        with pytest.raises(CapExceededError):
            enumerate_preserved(s, cap=5)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_invalid_input(self, cap):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            enumerate_preserved(ms(2, 1, "1/12"), cap=cap)

    def test_brute_force_contexts(self):
        assert len(BRUTE_FORCE_CONTEXTS) == 25
        assert set(G_BRUTE_FORCE_CONTEXTS) <= set(BRUTE_FORCE_CONTEXTS)

    @pytest.mark.parametrize(
        "require_g,n,m,theta",
        [(False, *c) for c in BRUTE_FORCE_CONTEXTS]
        + [(True, *c) for c in G_BRUTE_FORCE_CONTEXTS])
    def test_matches_brute_force_in_order(self, n, m, theta, require_g):
        s = ms(n, m, theta)
        assert enumerate_preserved(s, require_g=require_g) == \
            brute_force_preserved(s, require_g=require_g)

    def test_matches_the_boundary_order_search_in_order(self):
        # image-first visiting changes neither the answers nor their order
        contexts = valid_contexts(SWEEP_FAMILIES, 60, 12)
        assert len(contexts) == 104
        for n, m, theta in contexts:
            s = ms(n, m, theta)
            for require_g in (False, True):
                assert enumerate_preserved(s, require_g) == \
                    boundary_order_preserved(s, require_g), \
                    (n, m, theta, require_g)
        for n, m in GD_CELLS:
            cell = cell_graph(n, m)
            assert enumerate_preserved(cell) == boundary_order_preserved(cell)

    def test_glue_arc_rule_is_the_closure(self):
        # F(J) relates p and q exactly when f(p) ~ f(q) and one ring arc
        # between their copies has every glue vertex in f(p)'s block
        checked = 0
        for n, m, theta in BRUTE_FORCE_CONTEXTS:
            s = ms(n, m, theta)
            for rel in partitions_rgs(s.boundary):
                assert glue_arc_preserved(s, rel) == is_preserved(s, rel), \
                    (n, m, theta, rel)
                checked += 1
        assert checked == 42_552

    def test_leaves_are_answers(self):
        # with the glue-arc implications every leaf that the closure
        # labels pass is preserved
        for n, m, theta in valid_contexts(SWEEP_FAMILIES, 60, 12):
            s = ms(n, m, theta)
            for require_g in (False, True):
                found, _, leaves = search_counts(s, require_g)
                assert leaves == len(found), (n, m, theta, require_g)

    @pytest.mark.parametrize("n,m,theta,nodes,before", [
        (3, 1, "1/9", (65, 25), (122, 32)),
        (2, 2, "3/16", (37, 22), (92, 30)),
        (2, 1, "1/42", (42, 28), (78, 34)),
    ])
    def test_node_counts(self, n, m, theta, nodes, before):
        # before: the search with the f and rotation implications alone
        s = ms(n, m, theta)
        counted = tuple(search_counts(s, require_g)[1]
                        for require_g in (False, True))
        assert counted == nodes
        assert all(now <= was for now, was in zip(counted, before))

    def test_full_search_at_boundary_size_24(self):
        # 477,732 nodes, 251,291 of them failing leaves, without the
        # glue-arc implications
        s = ms(2, 2, "1/72")
        assert len(s.boundary) == 24
        found, nodes, leaves = search_counts(s, cap=24)
        assert found == [one_block(s), singletons(s)]
        assert nodes <= 1_000 and leaves == 2

    @pytest.mark.parametrize("f,order", [
        ([1, 2, 0, 0, 3, 3], [0, 2, 1, 3, 4, 5]),
        ([0, 0, 1, 1], [0, 1, 2, 3]),
        ([1, 0, 3, 2], [0, 1, 2, 3]),
        ([2, 3, 4, 0, 1], [0, 3, 1, 4, 2]),
        ([4, 4, 1, 1, 4], [4, 0, 1, 2, 3]),
    ])
    def test_image_first_order(self, f, order):
        # each point comes after its image, but for one point per cycle
        assert _image_first(f) == order

    @pytest.mark.parametrize("n,m", GD_CELLS)
    def test_gd_cell_matches_brute_force(self, n, m):
        # a GD cell glues vertex 3 of one copy to vertex 1 of the next; its
        # ids mix vertex indices, so the search has no block-image map f
        cell = cell_graph(n, m)
        found = enumerate_preserved(cell)
        assert found == brute_force_preserved(cell)
        assert len(found) == 4
        assert set(found) == {singletons(cell), one_block(cell),
                              RELATION_PQ, RELATION_SIDES}

    @pytest.mark.parametrize("n,m", GD_CELLS)
    def test_gd_cell_has_no_implications(self, n, m):
        # no f, so neither f nor glue-arc implications: the boundary-order
        # search with the leaf test alone
        cell = cell_graph(n, m)
        plan = _search_plan(cell)
        assert plan.order == [0, 1, 2, 3]
        joining, opening = plan.buckets(cell, False)
        assert joining == opening == [[], [], [], []]

    def test_plan_is_kept_for_both_modes(self):
        s = ms(2, 1, "1/12")
        full = enumerate_preserved(s)
        plan = _search_plan(s)
        g_only = enumerate_preserved(s, require_g=True)
        assert _search_plan(s) is plan
        assert all(any(rel is other for other in full) for rel in g_only)

    def test_require_g_needs_closed_boundary(self):
        s = ms(2, 2, "3/16", symmetrize=False)
        with pytest.raises(NotInvariantError):
            enumerate_preserved(s, require_g=True)

    def test_g_search_is_the_invariant_part_of_the_full_search(self):
        # the rotation implications drop no G-relation and keep the RGS
        # order of the full search
        contexts = valid_contexts(SWEEP_FAMILIES, 60, 9)
        assert len(contexts) == 43
        for n, m, theta in contexts + [(2, 1, Fraction(1, 48)),
                                       (2, 1, Fraction(1, 96))]:
            s = ms(n, m, theta)
            full = enumerate_preserved(s)
            assert enumerate_preserved(s, require_g=True) == \
                [rel for rel in full if rotated_by_angles(s, rel)], \
                (n, m, theta)

    def test_g_search_sound_above_the_default_cap(self):
        # phi_2 permutes this boundary, so every point lies on a cycle
        s = ms(2, 1, "1/22")
        assert len(s.boundary) == 30 > DEFAULT_ENUM_CAP
        found = enumerate_preserved(s, require_g=True, cap=30)
        assert singletons(s) in found and one_block(s) in found
        assert all(is_preserved(s, rel, require_g=True) for rel in found)

    def test_full_enumeration_includes_g_relations(self):
        s = ms(2, 1, "1/12")
        g_found = enumerate_preserved(s, require_g=True)
        all_found = enumerate_preserved(s)
        for rel in g_found:
            assert rel in all_found
        for rel in all_found:
            assert is_preserved(s, rel)

    def test_distance_bound_vacuous_for_m_at_least_2(self):
        # a related pair would have to sit closer than 2/(n(m+n));
        # expected outcome: no nontrivial relations at all
        for n, m, theta in [(2, 2, "3/16"), (2, 3, "1/10")]:
            s = ms(n, m, theta)
            bound = Fraction(2, n * (m + n))
            for rel in enumerate_preserved(s, require_g=True):
                if rel.is_trivial:
                    continue
                for block in rel.blocks:
                    for i, x in enumerate(block):
                        for y in block[i + 1:]:
                            assert circle_distance(x, y) < bound


class TestCandidates:
    def test_2_1_12(self):
        s = ms(2, 1, "1/12")
        plus, minus = build_J_plus_minus(s)
        assert plus == opposite_pairs(s)
        assert minus.is_trivial_one

    def test_2_1_6_both_trivial(self):
        s = ms(2, 1, "1/6")
        plus, minus = build_J_plus_minus(s)
        assert plus.is_trivial_one
        assert minus.is_trivial_one

    def test_kappa_undefined(self):
        s = ms(2, 2, "3/16")
        with pytest.raises(KappaUndefinedError):
            build_J_plus_minus(s)

    def test_generating_pairs_share_blocks(self):
        # with center_i = phi_n(c_kappa(i)), J+ is generated by the pairs
        # (c_i, center_i) and J- by (c_(i-1), center_i): their images under
        # phi_n lie on the boundary and must share a block; the partition
        # into singletons breaks every one of these checks
        held = broken = 0
        for n, m, theta in valid_contexts(SWEEP_FAMILIES + [(4, 1)], 60, 60):
            s = ms(n, m, theta)
            try:
                plus, minus = build_J_plus_minus(s)
            except KappaUndefinedError:
                continue
            singletons = Partition.from_blocks([a] for a in s.boundary)
            crits, perm = critical_angles(s.ctx), kappa(s.ctx)
            for i in range(s.ctx.ring_size):
                image = phi_n(phi_n(crits[perm[i] - 1], n), n)
                for rel, c in ((plus, crits[i]), (minus, crits[i - 1])):
                    assert phi_n(c, n) in block_containing(rel, image), (
                        n, m, theta, i)
                    held += 1
                    broken += phi_n(c, n) not in block_containing(
                        singletons, image)
        assert held == broken == 2846

    def test_nontrivial_g_relations_come_from_candidates(self):
        for n, theta in [(2, "1/12"), (3, "1/12")]:
            s = ms(n, 1, theta)
            candidates = set(build_J_plus_minus(s))
            for rel in enumerate_preserved(s, require_g=True):
                if not rel.is_trivial:
                    assert rel in candidates

    def test_every_context_matches_the_angle_route(self):
        # every valid theta with q <= 60 and nb <= 60: the same two
        # partitions, or KappaUndefinedError with the same message
        defined = undefined = 0
        for n, m, theta in valid_contexts(SWEEP_FAMILIES + [(4, 1)], 60, 60):
            s = ms(n, m, theta)
            try:
                want = angle_J_plus_minus(s)
            except KappaUndefinedError as exc:
                with pytest.raises(KappaUndefinedError) as got:
                    build_J_plus_minus(s)
                assert str(got.value) == str(exc), (n, m, theta)
                undefined += 1
            else:
                assert build_J_plus_minus(s) == want, (n, m, theta)
                defined += 1
        assert (defined, undefined) == (342, 23)


class TestOperators:
    def test_t_relation_halves_d_j(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rel = opposite_pairs(s)
        plan = _side(s, rel, "relation")
        dj = _block_traces(s, _boundary_matrix(s, hs.form), rel)
        lo, hi = _ratio_bounds(plan.op(dj), dj, plan.comp)
        assert lo == pytest.approx(0.5, abs=1e-9)
        assert hi == pytest.approx(0.5, abs=1e-9)

    def test_t_relation_zero_form(self):
        # the zero form lies outside the cone: its support is all points
        s = ms(2, 1, "1/12")
        plan = _side(s, opposite_pairs(s), "relation")
        with pytest.raises(KernelMismatchError):
            plan.op(np.zeros((6, 6)))

    def test_t_relation_rejects_wrong_kernel(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        plan = _side(s, rel, "relation")
        full = np.ones((6, 6)) - np.eye(6)
        with pytest.raises(KernelMismatchError):
            plan.op(full)
        # one block's only pair left out: its support falls apart
        split = within_block_unit(s, rel)
        first = index_blocks(s, rel)[0]
        split[first[0], first[1]] = split[first[1], first[0]] = 0.0
        with pytest.raises(KernelMismatchError):
            plan.op(split)

    def test_kernel_check_is_kept_per_support(self, monkeypatch):
        # a mismatching support raises on every call, from one computation
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        plan = _side(s, rel, "relation")
        calls = []
        real = relations._support_labels
        monkeypatch.setattr(relations, "_support_labels",
                            lambda w: calls.append(w) or real(w))
        good = within_block_unit(s, rel)
        plan.check(good)
        plan.check(2.0 * good)
        assert len(calls) == 1
        full = np.ones((6, 6)) - np.eye(6)
        for _ in range(2):
            with pytest.raises(KernelMismatchError,
                               match="support components"):
                plan.check(full)
        assert len(calls) == 2

    @pytest.mark.parametrize("structure", [
        ("ms", 2, 1, "1/12"), ("ms", 3, 1, "1/9"), ("ms", 2, 1, "1/48"),
        ("gd", 2, 1), ("gd", 4, 3)], ids=str)
    def test_side_operators_match_loops(self, structure):
        # both operators, on the unit forms and five iterates of each side,
        # against the loop formulations of tests/_oracles.py
        kind, *args = structure
        s = ms(*args) if kind == "ms" else cell_graph(*args)
        relations = [r for r in enumerate_preserved(s) if not r.is_trivial]
        assert relations
        for rel in relations:
            sides = (("relation", loop_t_relation, within_block_unit(s, rel)),
                     ("quotient", loop_t_quotient, block_unit(rel)))
            for side, oracle, w in sides:
                plan = _side(s, rel, side)
                for _ in range(6):
                    got, want = plan.op(w), oracle(s, rel, w)
                    assert np.abs(got - want).max() <= 1e-12 * want.max()
                    w = want / (want.sum() / 2.0)

    def test_relation_side_weights_between_classes_are_exact_zeros(self):
        # a class that holds no marked id is left out of the trace, so no
        # rounding lands between the classes; every nontrivial relation,
        # 20 cone steps each
        cases = [(ms(*args), [r for r in enumerate_preserved(ms(*args))
                              if not r.is_trivial])
                 for args in [(2, 1, "1/12"), (3, 1, "1/9"), (2, 1, "1/48")]]
        cases.append((cell_graph(2, 1), [RELATION_PQ, RELATION_SIDES]))
        traces = 0
        for s, relations in cases:
            for rel in relations:
                plan = _side(s, rel, "relation")
                for _, (w, _, _) in zip(range(20),
                                        cone_iteration(plan.op, plan.start)):
                    assert (plan.scheme.T(w)[~plan.same] == 0.0).all()
                    traces += 1
        assert traces == 460

    def test_quotient_rejects_a_class_named_twice(self):
        # in the (2, 1) cell, copy 0's images of p1 and q1 are copy 1's
        # images of p0 and q0, which the block {p0, q0} joins; so {p1} and
        # {q1} share a closure class within copy 0. The relation is not
        # preserved, yet the loop formulation returns a form for it
        cell = cell_graph(2, 1)
        rel = Partition.from_blocks([["p0", "q0"], ["p1"], ["q1"]],
                                    ground=cell.boundary)
        assert not is_preserved(cell, rel)
        assert loop_t_quotient(cell, rel, block_unit(rel)).sum() > 0
        with pytest.raises(ValueError, match="not preserved"):
            _side(cell, rel, "quotient")

    def test_d_sub_j_support(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rel = opposite_pairs(s)
        dj = _block_traces(s, _boundary_matrix(s, hs.form), rel)
        assert support_components(s.boundary, dj) == {
            frozenset(b) for b in rel.blocks}

    def test_d_sub_j_rejects_trivial(self):
        s = ms(2, 1, "1/12")
        w = _boundary_matrix(s, solve_eigenform(s).form)
        with pytest.raises(ValueError):
            _block_traces(s, w, singletons(s))
        with pytest.raises(ValueError):
            _block_traces(s, w, one_block(s))

    def test_quotient_form_collapses_blocks(self):
        # quotient_weights is the reference the quotient tests push
        # boundary forms down with
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rel = opposite_pairs(s)
        q = ConductanceForm.from_matrix(rel.blocks, quotient_weights(
            rel, s.boundary, _boundary_matrix(s, hs.form)))
        assert tuple(q.vertices) == rel.blocks
        # energies agree on block-constant functions
        values = {rel.blocks[0]: 1.0, rel.blocks[1]: -1.0, rel.blocks[2]: 0.5}
        lifted = {a: values[block_containing(rel, a)] for a in s.boundary}
        assert energy(q, values) == pytest.approx(energy(hs.form, lifted))

    def test_t_quotient_cycle_bound(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        plan = _side(s, rel, "quotient")
        cyc = block_cycle_form(s, rel).matrix()
        lo, _ = _ratio_bounds(plan.op(cyc), cyc, plan.comp)
        assert lo >= 1.5 - 1e-10

    def test_t_quotient_degenerate_inputs(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        with pytest.raises(ValueError):
            _side(s, one_block(s), "quotient")
        disconnected = np.zeros((3, 3))
        disconnected[0, 1] = disconnected[1, 0] = 1.0
        with pytest.raises(KernelMismatchError):
            _side(s, rel, "quotient").op(disconnected)

    def test_star_form_ratio_at_most_one(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        plan = _side(s, rel, "relation")
        star = _boundary_matrix(s, block_star_form(s, rel))
        _, hi = _ratio_bounds(plan.op(star), star, plan.comp)
        assert hi <= 1.0 + 1e-10

    def test_quotient_trace_bounded_by_full_trace(self):
        # the quotient minimizes over fewer functions, so block-constant
        # energies can only grow
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rel = opposite_pairs(s)
        w = _boundary_matrix(s, hs.form)
        tq = _side(s, rel, "quotient").op(quotient_weights(rel, s.boundary, w))
        t_full = s.scheme.T(w)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            values = rng.standard_normal(rel.block_count())
            lifted = np.array([values[rel.blocks.index(
                block_containing(rel, a))] for a in s.boundary])
            assert quadratic(tq, values) >= quadratic(t_full, lifted) - 1e-12


CONSTANTS3 = _complement(np.ones((3, 1)))


class TestStationaryRatios:
    def test_proportional_forms(self):
        f = ConductanceForm.from_edges("abc", [("a", "b", 1.0),
                                               ("b", "c", 2.0)])
        lo, hi = _ratio_bounds(0.5 * f.matrix(), f.matrix(), CONSTANTS3)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(0.5)

    def test_identical_forms(self):
        f = ConductanceForm.from_edges("abc", [("a", "b", 1.0),
                                               ("b", "c", 1.0)])
        lo, hi = _ratio_bounds(f.matrix(), f.matrix(), CONSTANTS3)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_decoupled_path(self):
        num = ConductanceForm.from_edges("abc", [("a", "b", 1.0),
                                                 ("b", "c", 3.0)])
        den = ConductanceForm.from_edges("abc", [("a", "b", 1.0),
                                                 ("b", "c", 1.0)])
        lo, hi = _ratio_bounds(num.matrix(), den.matrix(), CONSTANTS3)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(3.0)

    def test_degenerate_denominator_rejected(self):
        num = ConductanceForm.from_edges("abc", [("a", "b", 1.0)])
        den = ConductanceForm.from_edges("abc", [("a", "b", 1.0)])
        with pytest.raises(ValueError):
            _ratio_bounds(num.matrix(), den.matrix(), CONSTANTS3)

    @staticmethod
    def random_form(rng, verts, spread):
        # a random Hamiltonian path with weights log-uniform over `spread`
        # decades over a complete graph at the lowest weight: condition
        # numbers grow to about 10**spread
        low = 10.0 ** (-spread / 2)
        weights = {frozenset((x, y)): low * rng.uniform(0.5, 1.0)
                   for i, x in enumerate(verts) for y in verts[i + 1:]}
        path = [verts[i] for i in rng.permutation(len(verts))]
        for x, y in zip(path, path[1:]):
            weights[frozenset((x, y))] = 10.0 ** rng.uniform(-spread / 2,
                                                             spread / 2)
        return ConductanceForm.from_edges(
            verts, [(*sorted(pair), w) for pair, w in weights.items()])

    @staticmethod
    def oracle(num, den, verts, cols):
        """Extreme eigenvalues of solve(br, ar) on a QR basis of the
        complement of cols, the Rayleigh quotients num(f)/den(f) at their
        eigenvectors, the condition number of br and the basis."""
        rank = np.linalg.matrix_rank(cols)
        q, _ = np.linalg.qr(np.hstack([cols, np.eye(len(verts))]))
        comp = q[:, rank:len(verts)]

        def laplacian(form):
            mat = np.zeros((len(verts), len(verts)))
            for i, x in enumerate(verts):
                for j, y in enumerate(verts):
                    if i != j:
                        mat[i, i] += form.weight(x, y)
                        mat[i, j] -= form.weight(x, y)
            return comp.T @ mat @ comp

        ar, br = laplacian(num), laplacian(den)
        vals, vecs = np.linalg.eig(np.linalg.solve(br, ar))
        order = np.argsort(vals.real)
        ends = [vals.real[order[0]], vals.real[order[-1]]]
        rayleigh = []
        for i in (order[0], order[-1]):
            f = dict(zip(verts, comp @ vecs[:, i].real))
            rayleigh.append(energy(num, f) / energy(den, f))
        return ends, rayleigh, np.linalg.cond(br), comp

    def test_against_generalized_eigen_oracle(self):
        conds = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            nv = 4 + seed % 6
            verts = [f"v{i}" for i in range(nv)]
            spread = [0.0, 2.0, 4.0, 6.0, 8.0][seed % 5]
            num = self.random_form(rng, verts, spread)
            den = self.random_form(rng, verts, spread)
            cut = sorted(rng.choice(np.arange(1, nv), size=2, replace=False))
            partition = Partition.from_blocks(
                [verts[:cut[0]], verts[cut[0]:cut[1]], verts[cut[1]:]])
            maps = [{v: float(rng.standard_normal()) for v in verts}
                    for _ in range(2)]
            for cols in (
                    np.ones((nv, 1)),
                    np.array([[float(v in block)
                               for block in partition.blocks]
                              for v in verts]),
                    np.array([[mp[v] for mp in maps] + [1.0]
                              for v in verts])):
                lo, hi = _ratio_bounds(num.matrix(), den.matrix(),
                                       _complement(cols))
                ends, rayleigh, cond, comp = self.oracle(num, den, verts,
                                                         cols)
                conds.append(cond)
                # the backward-stable scale eps * cond(br) * |lambda|max,
                # with a margin of 450
                tol = 1e-13 * cond * ends[1]
                assert lo == pytest.approx(ends[0], rel=0, abs=tol)
                assert hi == pytest.approx(ends[1], rel=0, abs=tol)
                assert lo == pytest.approx(rayleigh[0], rel=0, abs=tol)
                assert hi == pytest.approx(rayleigh[1], rel=0, abs=tol)
                for _ in range(5):
                    f = dict(zip(verts, comp @ rng.standard_normal(
                        comp.shape[1])))
                    ratio = energy(num, f) / energy(den, f)
                    assert lo - tol <= ratio <= hi + tol
        assert 1e7 < max(conds) <= 1e8

    def test_degenerate_denominator_under_each_modulo(self):
        # the denominator splits into {v0, v1} and {v2, v3}; a combination
        # of the two component indicators has zero energy and lies off
        # each modded-out space below
        verts = ["v0", "v1", "v2", "v3"]
        rng = np.random.default_rng(7)
        num = self.random_form(rng, verts, 2.0)
        den = ConductanceForm.from_edges(
            verts, [("v0", "v1", 2.0), ("v2", "v3", 0.5)])
        for cols in (np.ones((4, 1)),
                     np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                               [0.0, 1.0]]),
                     np.arange(4.0)[:, None]):
            with pytest.raises(ValueError, match="degenerate"):
                _ratio_bounds(num.matrix(), den.matrix(), _complement(cols))

    def test_modulo_is_required_and_nonempty(self):
        f = ConductanceForm.from_edges("abc", [("a", "b", 1.0),
                                               ("b", "c", 1.0)]).matrix()
        with pytest.raises(TypeError):
            _ratio_bounds(f, f)
        with pytest.raises(ValueError, match="covers everything"):
            _ratio_bounds(f, f, _complement(np.eye(3)))


class TestRhoSearch:
    def test_relation_side_upper(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        report = rho_search(s, rel, "relation")
        assert report.rho_over <= 1.0 + 1e-6
        assert report.rho_under <= report.rho_over

    def test_quotient_side_lower(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        report = rho_search(s, rel, "quotient")
        assert report.rho_under >= 1.5 - 1e-6

    def test_plans_are_kept_per_support(self):
        # the eigenform's iterates share one support, and so do the
        # relation side's; a repeated call builds no plan
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        solve_eigenform(s)
        plans = s.scheme._plans
        assert len(plans) == 1
        rho_search(s, rel, "relation")
        assert len(plans) == 2
        solve_eigenform(s)
        rho_search(s, rel, "relation")
        assert len(plans) == 2

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 3), (2, 3)])
    def test_bracket_contains_gd_closed_forms(self, n, m):
        cell = cell_graph(n, m)
        over_pq, quot_pq, over_sides, quot_sides = gd_rho_values(n, m)
        for rel, side, want in ((RELATION_PQ, "relation", over_pq),
                                (RELATION_PQ, "quotient", quot_pq),
                                (RELATION_SIDES, "relation", over_sides),
                                (RELATION_SIDES, "quotient", quot_sides)):
            report = rho_search(cell, rel, side)
            assert report.rho_under - 1e-9 <= want <= report.rho_over + 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_bracket_beats_constructed_forms(self, n):
        # the star and cycle forms are points of the cones, so the bracket
        # ends are at least as good as their ratios
        s = ms(n, 1, "1/12")
        cycles = 0
        for rel in enumerate_preserved(s):
            if rel.is_trivial:
                continue
            plan = _side(s, rel, "relation")
            star = _boundary_matrix(s, block_star_form(s, rel))
            _, star_hi = _ratio_bounds(plan.op(star), star, plan.comp)
            assert rho_search(s, rel, "relation").rho_over \
                <= star_hi + 1e-9
            try:
                cycle = block_cycle_form(s, rel).matrix()
            except ValueError:
                continue  # some block holds no cell-return image
            cycles += 1
            plan = _side(s, rel, "quotient")
            cycle_lo, _ = _ratio_bounds(plan.op(cycle), cycle, plan.comp)
            assert rho_search(s, rel, "quotient").rho_under \
                >= cycle_lo - 1e-9
        assert cycles == 2

    def test_ratios_monotone_along_iterates(self):
        # M_k never rises and m_k never falls along D_{k+1} = T(D_k)/mass,
        # and the reported ends are the best of them
        s = ms(2, 1, "1/12")
        for rel in enumerate_preserved(s):
            if rel.is_trivial:
                continue
            sides = (("relation", within_block_unit(s, rel)),
                     ("quotient", block_unit(rel)))
            for side, w in sides:
                plan = _side(s, rel, side)
                lows, highs = [], []
                for _ in range(20):
                    image = plan.op(w)
                    lo, hi = _ratio_bounds(image, w, plan.comp)
                    lows.append(lo)
                    highs.append(hi)
                    w = image / (image.sum() / 2.0)
                assert all(b <= a + 1e-10 for a, b in zip(highs, highs[1:]))
                assert all(b >= a - 1e-10 for a, b in zip(lows, lows[1:]))
                report = rho_search(s, rel, side)
                assert report.rho_over <= min(highs) + 1e-10
                assert report.rho_under >= max(lows) - 1e-10

    def test_bad_side(self):
        s = ms(2, 1, "1/12")
        with pytest.raises(ValueError):
            rho_search(s, opposite_pairs(s), "sideways")

    def test_no_form_per_step(self, monkeypatch):
        # a bracket that stalls for all BRACKET_STEPS steps builds only
        # the forms of its two best iterates
        built = []
        real = networks.ConductanceForm.__init__

        def counted(self, vertices, matrix):
            built.append(len(vertices))
            real(self, vertices, matrix)

        s = ms(2, 1, "1/12")
        rel = partition_of(s, ["0"], ["1/6", "2/3"], ["1/3", "5/6"], ["1/2"])
        assert is_preserved(s, rel)
        monkeypatch.setattr(networks.ConductanceForm, "__init__", counted)
        report = rho_search(s, rel, "quotient")
        assert report.evaluations == 200
        assert built == [4, 4]

    def test_bracket_ends_before_a_degenerate_iterate(self):
        # the quotient iterate collapses towards a face of the cone; the
        # bracket keeps the bounds met before its form degenerates
        s = ms(3, 1, "1/72")
        rel = partition_of(s, ["1/24", "3/8"], ["1/8", "19/24"], ["7/24"],
                           ["13/24"], ["5/8"], ["7/8"])
        assert is_preserved(s, rel)
        report = rho_search(s, rel, "quotient")
        assert report.evaluations == 79
        assert 0.718 < report.rho_under < report.rho_over <= 1.0 + 1e-9
        plan = _side(s, rel, "quotient")
        w = plan.start
        for _ in range(report.evaluations):
            image = plan.op(w)
            w = image / (image.sum() / 2.0)
        with pytest.raises(ValueError, match="degenerate"):
            _ratio_bounds(plan.op(w), w, plan.comp)


class TestCertificates:
    def test_opposite_pairs_certified_at_k1(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        cert = uniqueness_certificate(s, hs, opposite_pairs(s))
        assert cert.certified
        assert cert.k == 1
        assert cert.trajectory[0] == pytest.approx(hs.eta * 0.5, abs=1e-6)
        assert cert.monotone

    def test_block_schemes_are_kept(self, monkeypatch):
        # the one-copy block schemes of D_J and their plans are built on
        # the first certificate only
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rel = opposite_pairs(s)
        built = []
        real = GluingScheme._build_plan
        monkeypatch.setattr(GluingScheme, "_build_plan",
                            lambda self, support: built.append(self)
                            or real(self, support))
        first = uniqueness_certificate(s, hs, rel)
        assert len(built) == 4  # three blocks and the relation side
        assert uniqueness_certificate(s, hs, rel) == first
        assert len(built) == 4

    def test_trajectory_monotone_for_all_nontrivial(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        for rel in enumerate_preserved(s):
            if rel.is_trivial:
                continue
            cert = uniqueness_certificate(s, hs, rel)
            assert cert.monotone
            assert cert.certified


class TestFlowReport:
    def test_gasket_flows(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        report = per_cell_flows(s, hs, [1.0, 0.0, 0.0])
        flow = [report.boundary_flow[a] for a in s.boundary]
        assert flow[0] == pytest.approx(2.0 * abs(flow[1]), abs=1e-9)
        assert flow[1] == pytest.approx(flow[2], abs=1e-12)
        assert report.conservation_defect <= 1e-12
        assert report.matching_defect <= 1e-12
        assert report.scaling_defect <= 1e-9
        # inner flow at the cell image is the boundary flow over eta
        a = s.boundary[0]
        inner = report.cell_flows[s.cells[a] - 1][phi_n(a, s.ctx.n)]
        assert report.boundary_flow[a] == pytest.approx(hs.eta * inner,
                                                        abs=1e-9)

    def test_constant_input(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        report = per_cell_flows(s, hs, [4.0] * len(s.boundary))
        assert all(abs(v) < 1e-12 for v in report.boundary_flow.values())
        assert report.active_critical == ()
        assert report.active_boundary == ()

    def test_random_harmonics_p1_p2_p3(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rng = np.random.default_rng(42)
        for _ in range(10):
            report = per_cell_flows(
                s, hs, rng.standard_normal(len(s.boundary)))
            scale = max(abs(v) for v in report.boundary_flow.values())
            assert report.conservation_defect <= 1e-9 * max(scale, 1.0)
            assert report.matching_defect <= 1e-9 * max(scale, 1.0)
            assert report.scaling_defect <= 1e-9 * max(scale, 1.0)


class TestVerdicts:
    def test_2_1_12_criteria_hold(self):
        s = ms(2, 1, "1/12")
        enumerated = enumerate_preserved(s, require_g=True)
        report = sabot_verdict(s, enumerated)
        assert report.verdict == "criteria_hold_exists_unique"
        assert len(report.witnesses) == 1
        w = report.witnesses[0]
        assert w.criterion_met
        assert w.relation_rhos.rho_over <= 1.0 + 1e-6
        assert w.quotient_rhos.rho_under >= 1.5 - 1e-6
        assert report.ordered_pairs == ()

    def test_2_2_316_no_nontrivial(self):
        s = ms(2, 2, "3/16")
        report = sabot_verdict(s, enumerate_preserved(s, require_g=True))
        assert report.verdict == "no_nontrivial_relations_exists_unique"
        assert report.witnesses == ()

    def test_2_1_6_no_nontrivial(self):
        s = ms(2, 1, "1/6")
        report = sabot_verdict(s, enumerate_preserved(s, require_g=True))
        assert report.verdict == "no_nontrivial_relations_exists_unique"

    @pytest.mark.parametrize("n,m,theta,require_g,verdict", [
        (2, 1, "1/12", True, "criteria_hold_exists_unique"),
        (2, 1, "1/4", True, "criteria_hold_exists_unique"),
        (2, 1, "1/12", False, "inconclusive"),
        (2, 1, "1/24", False, "criteria_hold_exists_unique"),
        (2, 2, "3/16", False, "no_nontrivial_relations_exists_unique"),
        (3, 1, "1/12", False, "criteria_hold_exists_unique"),
        (3, 1, "1/9", False, "inconclusive"),
    ])
    def test_verdict_strings_pinned(self, n, m, theta, require_g, verdict):
        s = ms(n, m, theta)
        report = sabot_verdict(s, enumerate_preserved(s, require_g=require_g))
        assert report.verdict == verdict
