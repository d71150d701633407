"""Glued level sets: counts, merges, inclusion, rotations, JSON."""

from fractions import Fraction

import pytest

from fractal_renorm import (
    Angle, DepthCapError, InvalidMsError, NotInvariantError, build_structure,
    level_size, level_vertices, levels_to_json, make_context, phi_n,
    rotation_action,
    structure_from_json, structure_to_json,
)


def ms(n, m, theta, symmetrize=None):
    return build_structure(make_context(n, m, Fraction(theta)), symmetrize)


def frac_set(angles):
    return {a.as_fraction() for a in angles}


class TestBuildStructure:
    def test_2_1_12(self):
        s = ms(2, 1, "1/12")
        assert len(s.boundary) == 6
        assert not s.symmetrized
        assert [a.as_fraction() for a in s.glue_points] == \
            [Fraction(5, 6), Fraction(1, 2), Fraction(1, 6)]
        assert {str(a): s.cells[a] for a in s.boundary} == {
            "0/1": 3, "1/6": 1, "1/3": 1, "1/2": 2, "2/3": 2, "5/6": 3}

    def test_2_2_316_symmetrized_by_default(self):
        # gcd(n, m+n) = 2, so the rotation group forces the larger boundary
        s = ms(2, 2, "3/16")
        assert s.symmetrized
        assert len(s.boundary) == 8
        assert frac_set(s.boundary) == {Fraction(k, 8) for k in range(8)}

    def test_2_1_6_small_ring(self):
        s = ms(2, 1, "1/6")
        assert len(s.boundary) == 3
        assert frac_set(s.boundary) == {Fraction(0), Fraction(1, 3),
                                        Fraction(2, 3)}

    def test_invalid_context_rejected(self):
        # theta = 0 makes the angle 0 both critical and post-critical
        with pytest.raises(InvalidMsError) as err:
            ms(2, 1, 0)
        assert err.value.report is not None
        assert err.value.report.violations

    def test_structure_invariants(self):
        for n, m, theta in [(2, 1, "1/12"), (2, 2, "3/16"), (2, 1, "1/6"),
                            (3, 1, "1/12"), (2, 3, "1/10"), (3, 2, "2/15")]:
            s = ms(n, m, theta)
            bset = set(s.boundary)
            for r in s.glue_points:
                assert r in bset
            for a in s.boundary:
                assert phi_n(a, s.ctx.n) in bset
                assert 1 <= s.cells[a] <= s.ctx.ring_size

    def test_glue_points_sit_on_cell_junctions(self):
        # r_i is glued between copies i and i+1; its own cell can be any
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        for i, ((ca, pa), (cb, pb), vid) in enumerate(lv1.merges):
            assert ca == i and cb == (i + 1) % s.ctx.ring_size
            assert pa == pb == s.index[s.glue_points[i]]
            assert lv1.copy_map[ca][pa] == lv1.copy_map[cb][pb] == vid


class TestLevels:
    def test_counts(self):
        assert level_vertices(ms(2, 1, "1/12"), 1).num_vertices == 15
        s6 = ms(2, 1, "1/6")
        assert level_vertices(s6, 1).num_vertices == 6
        assert level_vertices(s6, 2).num_vertices == 15

    def test_level_zero_identity(self):
        s = ms(2, 1, "1/12")
        lv0 = level_vertices(s, 0)
        assert lv0.num_vertices == len(s.boundary)
        assert lv0.inclusion == tuple(range(6))
        assert lv0.boundary_ids == tuple(range(6))

    def test_count_formula_several_contexts(self):
        for n, m, theta in [(2, 1, "1/12"), (2, 2, "3/16"), (3, 1, "1/12"),
                            (2, 3, "1/10"), (3, 2, "2/15"), (2, 1, "1/6")]:
            s = ms(n, m, theta)
            ring = s.ctx.ring_size
            nb = len(s.boundary)
            assert level_vertices(s, 1).num_vertices == ring * (nb - 1)

    def test_inclusion_injective_and_nested(self):
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        lv2 = level_vertices(s, 2)
        assert len(set(lv1.inclusion)) == len(lv1.inclusion)
        assert len(set(lv2.inclusion)) == len(lv2.inclusion)
        # boundary tracking composes through the inclusion
        assert lv1.boundary_ids == tuple(lv1.inclusion[b]
                                         for b in range(len(s.boundary)))
        assert lv2.boundary_ids == tuple(lv2.inclusion[b]
                                         for b in lv1.boundary_ids)

    def test_inclusion_definition_level1(self):
        # x goes to position phi(x) of copy cell(x)
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        for i, a in enumerate(s.boundary):
            expected = lv1.copy_map[s.cells[a] - 1][s.index[phi_n(a, 2)]]
            assert lv1.inclusion[i] == expected

    def test_removing_merge_vertices_disconnects(self):
        # the m+n junction images cut level 1 into the m+n cell interiors
        for n, m, theta in [(2, 1, "1/12"), (2, 2, "3/16"), (2, 1, "1/6")]:
            s = ms(n, m, theta)
            lv1 = level_vertices(s, 1)
            cut = {vid for _, _, vid in lv1.merges}
            adjacency = {v: set() for v in range(lv1.num_vertices)}
            for row in lv1.copy_map:
                alive = [v for v in row if v not in cut]
                for x in alive:
                    adjacency[x].update(y for y in alive if y != x)
            remaining = [v for v in range(lv1.num_vertices) if v not in cut]
            seen, components = set(), 0
            for start in remaining:
                if start in seen:
                    continue
                components += 1
                stack = [start]
                while stack:
                    v = stack.pop()
                    if v in seen:
                        continue
                    seen.add(v)
                    stack.extend(adjacency[v] - seen)
            assert components == s.ctx.ring_size

    def test_depth_cap(self):
        s = ms(2, 1, "1/6")
        with pytest.raises(DepthCapError):
            level_vertices(s, 13)
        with pytest.raises(ValueError):
            level_vertices(s, -1)

    def test_level_size_matches_built_levels(self):
        for n, m, theta in [(2, 1, "1/12"), (3, 1, "1/9"), (2, 3, "1/10")]:
            s = ms(n, m, theta)
            for k in range(4):
                assert level_size(s, k) == level_vertices(s, k).num_vertices
        assert level_size(ms(2, 1, "1/12"), 8) == 29_526
        with pytest.raises(DepthCapError):
            level_size(ms(2, 1, "1/6"), 13)


class TestRotationAction:
    def test_identity(self):
        s = ms(2, 1, "1/12")
        assert rotation_action(s, 0) == tuple(range(6))

    def test_2_1_12_shift(self):
        s = ms(2, 1, "1/12")
        perm = rotation_action(s, 1)
        moved = {str(s.boundary[i]): str(s.boundary[perm[i]])
                 for i in range(6)}
        assert moved == {"0/1": "1/3", "1/3": "2/3", "2/3": "0/1",
                         "1/6": "1/2", "1/2": "5/6", "5/6": "1/6"}

    def test_not_invariant(self):
        s = ms(2, 2, "3/16", symmetrize=False)
        with pytest.raises(NotInvariantError):
            rotation_action(s, 1)

    def test_level1_conjugacy(self):
        # rotating then including = shifting copies and rotating inside
        s = ms(2, 1, "1/12")
        ring = s.ctx.ring_size
        lv1 = level_vertices(s, 1)
        for l in range(ring):
            perm = rotation_action(s, l)
            inner = rotation_action(s, s.ctx.n * l)
            for i, a in enumerate(s.boundary):
                rotated_cell = (s.cells[a] - 1 + l) % ring
                inner_pos = inner[s.index[phi_n(a, s.ctx.n)]]
                assert lv1.inclusion[perm[i]] == \
                    lv1.copy_map[rotated_cell][inner_pos]


class TestJson:
    def test_structure_round_trip(self):
        s = ms(2, 2, "3/16")
        data = structure_to_json(s)
        back = structure_from_json(data)
        assert back.boundary == s.boundary
        assert back.glue_points == s.glue_points
        assert back.cells == s.cells

    def test_tampered_boundary_rejected(self):
        s = ms(2, 1, "1/12")
        data = structure_to_json(s)
        data["boundary"][0] = "1/12"
        with pytest.raises(ValueError):
            structure_from_json(data)

    def test_levels_payload_shape(self):
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        data = levels_to_json(lv1)
        assert data["level"] == 1
        assert data["num_vertices"] == 15
        assert len(data["merges"]) == 2 * s.ctx.ring_size
        assert len(data["inclusion"]) == len(s.boundary)
        merged_ids = {row[2] for row in data["merges"]}
        assert len(merged_ids) == s.ctx.ring_size
