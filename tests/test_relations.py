"""Preserved relations: closures, candidates, operators, certificates."""

from fractions import Fraction

import numpy as np
import pytest

from fractal_renorm import (
    Angle, CapExceededError, ConductanceForm, KappaUndefinedError,
    KernelMismatchError, NotInvariantError, Partition, block_cycle_form,
    block_star_form, build_J_plus_minus, build_structure, closure_at_level,
    critical_angles, d_sub_j, energy, enumerate_preserved, harmonic_extension,
    is_preserved, j1_closure, kappa, level_vertices, make_context,
    partition_from_json, per_cell_flows, phi_n, quotient_form, renorm_T,
    replicate, rho_search, rotation_invariant, sabot_verdict, solve_eigenform,
    stationary_ratios, t_quotient, t_relation, uniqueness_certificate,
)
from _oracles import brute_force_preserved


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


class TestPartition:
    def test_canonical_block_order(self):
        p = Partition.from_blocks([[3, 1], [2, 0]])
        assert p.blocks == ((0, 2), (1, 3))

    def test_from_pairs(self):
        p = Partition.from_pairs(range(4), [(0, 1), (1, 2)])
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
        assert partition_from_json(s, p.to_json()) == p


class TestClosure:
    def test_j1_block_count_opposite_pairs(self):
        # n(n+1) closure classes at n = 2
        s = ms(2, 1, "1/12")
        closure = j1_closure(s, opposite_pairs(s))
        assert closure.block_count() == 6
        assert closure.ground_set == frozenset(range(15))

    def test_singletons_stay_split(self):
        s = ms(2, 1, "1/12")
        closure = j1_closure(s, singletons(s))
        assert closure.block_count() == 15

    def test_one_block_collapses(self):
        s = ms(2, 1, "1/12")
        closure = j1_closure(s, one_block(s))
        assert closure.block_count() == 1

    def test_levels_agree_on_included_ids(self):
        # deeper closures restrict to shallower ones along the inclusion
        s = ms(2, 1, "1/12")
        for rel in (opposite_pairs(s), singletons(s), one_block(s)):
            c1 = j1_closure(s, rel)
            c2 = closure_at_level(s, rel, 2)
            lv2 = level_vertices(s, 2)
            for b in c1.blocks:
                for x in b:
                    for y in b:
                        assert c2.same(lv2.inclusion[x], lv2.inclusion[y])
            for x in range(15):
                for y in range(15):
                    if c2.same(lv2.inclusion[x], lv2.inclusion[y]):
                        assert c1.same(x, y)

    def test_projection_compatibility(self):
        # related level-1 ids have related parent positions
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        rel = opposite_pairs(s)
        closure = j1_closure(s, rel)
        parent = {vid: v for vid, (_, v) in enumerate(lv1.representatives)}
        for b in closure.blocks:
            for x in b:
                for y in b:
                    assert rel.same(s.boundary[parent[x]],
                                    s.boundary[parent[y]])

    def test_merge_vertices_stay_apart(self):
        # no two junction images share a class for a nontrivial relation
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        merge_ids = [vid for _, _, vid in lv1.merges]
        closure = j1_closure(s, opposite_pairs(s))
        for i, x in enumerate(merge_ids):
            for y in merge_ids[i + 1:]:
                assert not closure.same(x, y)

    def test_block_structure_two_adjacent_copies(self):
        # each boundary block lands in two adjacent copy images of one block
        s = ms(2, 1, "1/12")
        ctx = s.ctx
        ring = ctx.ring_size
        rel = opposite_pairs(s)
        lv1 = level_vertices(s, 1)
        closure = j1_closure(s, rel)
        perm = kappa(ctx)
        inv = {perm[i - 1]: i for i in range(1, ring + 1)}
        crits = critical_angles(ctx)
        centers = [phi_n(crits[perm[i] - 1], ctx.n) for i in range(ring)]
        for i in range(1, ring + 1):
            block_i = rel.block_containing(centers[i - 1])
            seed = lv1.inclusion[s.index[block_i[0]]]
            closure_block = set(closure.block_containing(seed))
            source = rel.block_containing(centers[inv[i] - 1])
            expected = {lv1.copy_map[i - 1][s.index[a]] for a in source}
            expected |= {lv1.copy_map[i % ring][s.index[a]] for a in source}
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

    def test_rotation_invariance_filter(self):
        s = ms(2, 1, "1/12")
        assert rotation_invariant(s, opposite_pairs(s))
        skew = partition_of(s, ["0", "1/2"], ["1/6"], ["2/3"], ["1/3"],
                            ["5/6"])
        assert not rotation_invariant(s, skew)


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

    @pytest.mark.parametrize("n,m,theta", [
        (2, 1, "1/12"), (2, 1, "1/6"), (3, 1, "1/9"), (2, 2, "3/16"),
        (2, 3, "1/10")])
    @pytest.mark.parametrize("require_g", [False, True])
    def test_matches_brute_force_in_order(self, n, m, theta, require_g):
        s = ms(n, m, theta)
        assert enumerate_preserved(s, require_g=require_g) == \
            brute_force_preserved(s, require_g=require_g)

    def test_require_g_needs_closed_boundary(self):
        s = ms(2, 2, "3/16", symmetrize=False)
        with pytest.raises(NotInvariantError):
            enumerate_preserved(s, require_g=True)

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
                            from fractal_renorm import circle_distance
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

    def test_plus_classes_contain_return_centers(self):
        s = ms(2, 1, "1/12")
        plus, _ = build_J_plus_minus(s)
        ctx = s.ctx
        perm = kappa(ctx)
        crits = critical_angles(ctx)
        for i in range(ctx.ring_size):
            center = phi_n(crits[perm[i] - 1], ctx.n)
            assert center in plus.block_containing(center)

    def test_nontrivial_g_relations_come_from_candidates(self):
        for n, theta in [(2, "1/12"), (3, "1/12")]:
            s = ms(n, 1, theta)
            candidates = set(build_J_plus_minus(s))
            for rel in enumerate_preserved(s, require_g=True):
                if not rel.is_trivial:
                    assert rel in candidates


class TestOperators:
    def test_t_relation_halves_d_j(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rel = opposite_pairs(s)
        dj = d_sub_j(s, hs.form, rel)
        lo, hi = stationary_ratios(t_relation(s, rel, dj), dj, modulo=rel)
        assert lo == pytest.approx(0.5, abs=1e-9)
        assert hi == pytest.approx(0.5, abs=1e-9)

    def test_t_relation_zero_form(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        zero = ConductanceForm.from_edges(s.boundary, [])
        assert t_relation(s, rel, zero).mass() == 0.0

    def test_t_relation_rejects_wrong_kernel(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        vs = s.boundary
        full = ConductanceForm.from_edges(
            vs, [(x, y, 1.0) for i, x in enumerate(vs) for y in vs[i + 1:]])
        with pytest.raises(KernelMismatchError):
            t_relation(s, rel, full)

    def test_d_sub_j_support(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rel = opposite_pairs(s)
        dj = d_sub_j(s, hs.form, rel)
        comps = {frozenset(c) for c in dj.support_components()}
        assert comps == {frozenset(b) for b in rel.blocks}

    def test_d_sub_j_rejects_trivial(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        with pytest.raises(ValueError):
            d_sub_j(s, hs.form, singletons(s))
        with pytest.raises(ValueError):
            d_sub_j(s, hs.form, one_block(s))

    def test_quotient_form_collapses_blocks(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rel = opposite_pairs(s)
        q = quotient_form(rel, hs.form)
        assert tuple(q.vertices) == rel.blocks
        # energies agree on block-constant functions
        values = {rel.blocks[0]: 1.0, rel.blocks[1]: -1.0, rel.blocks[2]: 0.5}
        lifted = {a: values[rel.block_containing(a)] for a in s.boundary}
        assert energy(q, values) == pytest.approx(energy(hs.form, lifted))

    def test_t_quotient_cycle_bound(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        cyc = block_cycle_form(s, rel)
        lo, _ = stationary_ratios(t_quotient(s, rel, cyc), cyc,
                                  modulo="constants")
        assert lo >= 1.5 - 1e-10

    def test_t_quotient_degenerate_inputs(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        with pytest.raises(ValueError):
            t_quotient(s, one_block(s), ConductanceForm.from_edges(
                one_block(s).blocks, []))
        disconnected = ConductanceForm.from_edges(
            rel.blocks, [(rel.blocks[0], rel.blocks[1], 1.0)])
        with pytest.raises(ValueError):
            t_quotient(s, rel, disconnected)

    def test_star_form_ratio_at_most_one(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        star = block_star_form(s, rel)
        _, hi = stationary_ratios(t_relation(s, rel, star), star, modulo=rel)
        assert hi <= 1.0 + 1e-10

    def test_quotient_trace_bounded_by_full_trace(self):
        # the quotient minimizes over fewer functions, so block-constant
        # energies can only grow
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        rel = opposite_pairs(s)
        q = quotient_form(rel, hs.form)
        tq = t_quotient(s, rel, q)
        t_full = renorm_T(s, hs.form)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            values = {b: float(rng.standard_normal()) for b in rel.blocks}
            lifted = {a: values[rel.block_containing(a)]
                      for a in s.boundary}
            assert energy(tq, values) >= energy(t_full, lifted) - 1e-12


class TestStationaryRatios:
    def test_proportional_forms(self):
        f = ConductanceForm.from_edges("abc", [("a", "b", 1.0),
                                               ("b", "c", 2.0)])
        lo, hi = stationary_ratios(f.scaled(0.5), f, modulo="constants")
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(0.5)

    def test_identical_forms(self):
        f = ConductanceForm.from_edges("abc", [("a", "b", 1.0),
                                               ("b", "c", 1.0)])
        lo, hi = stationary_ratios(f, f, modulo="constants")
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_decoupled_path(self):
        num = ConductanceForm.from_edges("abc", [("a", "b", 1.0),
                                                 ("b", "c", 3.0)])
        den = ConductanceForm.from_edges("abc", [("a", "b", 1.0),
                                                 ("b", "c", 1.0)])
        lo, hi = stationary_ratios(num, den, modulo="constants")
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(3.0)

    def test_degenerate_denominator_rejected(self):
        num = ConductanceForm.from_edges("abc", [("a", "b", 1.0)])
        den = ConductanceForm.from_edges("abc", [("a", "b", 1.0)])
        with pytest.raises(ValueError):
            stationary_ratios(num, den, modulo="constants")


class TestRhoSearch:
    def test_relation_side_upper(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        report = rho_search(s, rel, "relation",
                            starts=[block_star_form(s, rel)])
        assert report.rho_over <= 1.0 + 1e-6
        assert report.rho_under <= report.rho_over

    def test_quotient_side_lower(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        report = rho_search(s, rel, "quotient",
                            starts=[block_cycle_form(s, rel)])
        assert report.rho_under >= 1.5 - 1e-6

    def test_start_value_never_lost(self):
        s = ms(2, 1, "1/12")
        rel = opposite_pairs(s)
        cyc = block_cycle_form(s, rel)
        lo_start, _ = stationary_ratios(t_quotient(s, rel, cyc), cyc,
                                        modulo="constants")
        report = rho_search(s, rel, "quotient", restarts=1, sweeps=2,
                            starts=[cyc])
        assert report.rho_under >= lo_start - 1e-12

    def test_bad_side(self):
        s = ms(2, 1, "1/12")
        with pytest.raises(ValueError):
            rho_search(s, opposite_pairs(s), "sideways")


class TestCertificates:
    def test_opposite_pairs_certified_at_k1(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        cert = uniqueness_certificate(s, hs, opposite_pairs(s))
        assert cert.certified
        assert cert.k == 1
        assert cert.trajectory[0] == pytest.approx(hs.eta * 0.5, abs=1e-6)
        assert cert.monotone

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
        lv1 = level_vertices(s, 1)
        rep = replicate(s, hs.form)
        data = {lv1.boundary_ids[0]: 1.0, lv1.boundary_ids[1]: 0.0,
                lv1.boundary_ids[2]: 0.0}
        ext = harmonic_extension(rep, tuple(data), data)
        report = per_cell_flows(s, hs, ext.values)
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
        lv1 = level_vertices(s, 1)
        values = {v: 4.0 for v in range(lv1.num_vertices)}
        report = per_cell_flows(s, hs, values)
        assert all(abs(v) < 1e-12 for v in report.boundary_flow.values())
        assert report.active_critical == ()
        assert report.active_boundary == ()

    def test_non_harmonic_rejected(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        lv1 = level_vertices(s, 1)
        rng = np.random.default_rng(0)
        values = {v: float(rng.standard_normal())
                  for v in range(lv1.num_vertices)}
        with pytest.raises(ValueError):
            per_cell_flows(s, hs, values)

    def test_random_harmonics_p1_p2_p3(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        lv1 = level_vertices(s, 1)
        rep = replicate(s, hs.form)
        rng = np.random.default_rng(42)
        for _ in range(10):
            data = {b: float(rng.standard_normal())
                    for b in lv1.boundary_ids}
            ext = harmonic_extension(rep, tuple(data), data)
            report = per_cell_flows(s, hs, ext.values)
            scale = max(abs(v) for v in report.boundary_flow.values())
            assert report.conservation_defect <= 1e-9 * max(scale, 1.0)
            assert report.matching_defect <= 1e-9 * max(scale, 1.0)
            assert report.scaling_defect <= 1e-9 * max(scale, 1.0)


class TestVerdicts:
    def test_2_1_12_criteria_hold(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        enumerated = enumerate_preserved(s, require_g=True)
        report = sabot_verdict(s, hs, enumerated)
        assert report.verdict == "criteria_hold_exists_unique"
        assert len(report.witnesses) == 1
        w = report.witnesses[0]
        assert w.criterion_met
        assert w.relation_rhos.rho_over <= 1.0 + 1e-6
        assert w.quotient_rhos.rho_under >= 1.5 - 1e-6
        assert report.ordered_pairs == ()

    def test_2_2_316_no_nontrivial(self):
        s = ms(2, 2, "3/16")
        hs = solve_eigenform(s)
        report = sabot_verdict(s, hs, enumerate_preserved(s, require_g=True))
        assert report.verdict == "no_nontrivial_relations_exists_unique"
        assert report.witnesses == ()

    def test_2_1_6_no_nontrivial(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        report = sabot_verdict(s, hs, enumerate_preserved(s, require_g=True))
        assert report.verdict == "no_nontrivial_relations_exists_unique"
