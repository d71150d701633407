"""Glued level sets: counts, merges, inclusion, rotations, JSON."""

import contextlib
import sys
from fractions import Fraction

import numpy as np
import pytest

from fractal_renorm import (
    Angle, DepthCapError, GluingScheme, InvalidMsError, KappaUndefinedError,
    build_structure, cell_graph, enumerate_preserved, glue_copies,
    is_preserved, level_size, level_vertices, levels_to_json, make_context,
    solve_eigenform, structure_from_json, structure_to_json,
)
from fractal_renorm import relations, structure
from fractal_renorm.angles import critical_orbits
from fractal_renorm.relations import _search_plan, _side
from fractal_renorm.renorm import _boundary_matrix
from _oracles import angle_structure, phi_n, rotation_perm

FAMILIES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 1)]


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
        merges = levels_to_json(lv1, 1)["merges"]
        assert len(merges) == 2 * s.ctx.ring_size
        for i in range(s.ctx.ring_size):
            (ca, pa, vid), (cb, pb, vid_b) = merges[2 * i:2 * i + 2]
            assert ca == i and cb == (i + 1) % s.ctx.ring_size
            assert pa == pb == s.index[s.glue_points[i]]
            assert lv1.rows[ca][pa] == lv1.rows[cb][pb] == vid == vid_b


class TestAngleRoute:
    """The residue build against the route of Angle objects it replaced."""

    @pytest.mark.parametrize("n,m", FAMILIES)
    def test_every_context_matches_the_angle_route(self, n, m):
        # every p/q in [0, 1/(m+n)) with q <= 40, valid or not
        thetas = {Fraction(p, q) for q in range(1, 41) for p in range(q)
                  if Fraction(p, q) < Fraction(1, m + n)}
        for theta in sorted(thetas):
            ctx = make_context(n, m, theta)
            violations, post, _ = angle_structure(ctx)
            report, residues = critical_orbits(ctx)
            assert report.violations == violations
            assert report.valid == (not violations)
            assert residues == [a.residue for a in post]
            for symmetrize in (None, True, False):
                want = angle_structure(ctx, symmetrize)[2]
                if want is None:
                    with pytest.raises(InvalidMsError) as err:
                        build_structure(ctx, symmetrize)
                    assert err.value.report.violations == violations
                    continue
                s = build_structure(ctx, symmetrize)
                got = {"boundary": s.boundary, "glue_points": s.glue_points,
                       "cells": s.cells, "symmetrized": s.symmetrized,
                       "rows": s.scheme.rows, "marked": s.scheme.marked,
                       "num_ids": s.scheme.num_ids, "rotation": s.rotation}
                assert got == want, (n, m, theta, symmetrize)
                # the cells are keyed in boundary order, by the same Angles
                assert list(s.cells) == list(s.boundary)
                assert {type(a) for a in s.boundary + s.glue_points} \
                    == {Angle}

    def test_no_angle_route_in_a_build_or_a_search(self, monkeypatch):
        # Angles are made once, for the boundary and glue points a build
        # returns: none for the scheme, the rotation, the search or the
        # candidate relations
        made = []
        new = Angle.__new__

        def counted(cls, residue, modulus):
            made.append(residue)
            return new(cls, residue, modulus)

        monkeypatch.setattr(Angle, "__new__", counted)
        for n, m, theta in [(2, 1, "1/12"), (2, 2, "3/16"), (3, 1, "1/9"),
                            (2, 1, "1/24"), (3, 2, "1/15"), (2, 1, "1/6")]:
            ctx = make_context(n, m, Fraction(theta))
            made.clear()
            s = build_structure(ctx)
            assert len(made) == len(s.boundary) + len(s.glue_points)
            made.clear()
            assert s.scheme.num_ids and s.rotation is not None
            plan = _search_plan(s)
            assert plan.buckets(s, True) is not plan.buckets(s, False)
            assert relations.enumerate_preserved(s, require_g=True)
            assert relations.enumerate_preserved(s)
            with contextlib.suppress(KappaUndefinedError):
                relations.build_J_plus_minus(s)
            assert made == []


class TestLevels:
    def test_counts(self):
        assert level_vertices(ms(2, 1, "1/12"), 1).num_ids == 15
        s6 = ms(2, 1, "1/6")
        assert level_vertices(s6, 1).num_ids == 6
        assert level_vertices(s6, 2).num_ids == 15

    def test_level_zero_identity(self):
        s = ms(2, 1, "1/12")
        lv0 = level_vertices(s, 0)
        assert lv0.num_ids == len(s.boundary)
        assert lv0.marked == tuple(range(6))
        assert lv0.rows == ()

    def test_count_formula_several_contexts(self):
        for n, m, theta in [(2, 1, "1/12"), (2, 2, "3/16"), (3, 1, "1/12"),
                            (2, 3, "1/10"), (3, 2, "2/15"), (2, 1, "1/6")]:
            s = ms(n, m, theta)
            ring = s.ctx.ring_size
            nb = len(s.boundary)
            assert level_vertices(s, 1).num_ids == ring * (nb - 1)

    def test_inclusion_injective_and_nested(self):
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        lv2 = level_vertices(s, 2)
        assert len(set(lv1.marked)) == len(lv1.marked)
        assert len(set(lv2.marked)) == len(lv2.marked)
        # boundary tracking composes the inclusions: level k+1 glues its
        # copies at the level-k ids of the glue points
        boundary = range(len(s.boundary))
        for k in range(1, 5):
            level = level_vertices(s, k)
            merges = levels_to_json(level, k)["merges"]
            assert [pa for _, pa, _ in merges] == \
                [boundary[s.index[r]] for r in s.glue_points for _ in "ab"]
            boundary = [level.marked[b] for b in boundary]

    def test_inclusion_definition_level1(self):
        # x goes to position phi(x) of copy cell(x)
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        for i, a in enumerate(s.boundary):
            expected = lv1.rows[s.cells[a] - 1][s.index[phi_n(a, 2)]]
            assert lv1.marked[i] == expected

    def test_removing_merge_vertices_disconnects(self):
        # the m+n junction images cut level 1 into the m+n cell interiors
        for n, m, theta in [(2, 1, "1/12"), (2, 2, "3/16"), (2, 1, "1/6")]:
            s = ms(n, m, theta)
            lv1 = level_vertices(s, 1)
            cut = {vid for _, _, vid in levels_to_json(lv1, 1)["merges"]}
            adjacency = {v: set() for v in range(lv1.num_ids)}
            for row in lv1.rows:
                alive = [v for v in row if v not in cut]
                for x in alive:
                    adjacency[x].update(y for y in alive if y != x)
            remaining = [v for v in range(lv1.num_ids) if v not in cut]
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
                assert level_size(s, k) == level_vertices(s, k).num_ids
        assert level_size(ms(2, 1, "1/12"), 8) == 29_526
        with pytest.raises(DepthCapError):
            level_size(ms(2, 1, "1/6"), 13)

    def test_vertex_cap(self, monkeypatch):
        # within the depth cap, yet far above MAX_LEVEL_VERTICES: the
        # count is known, the level is refused before it is built
        def must_not_run(*args):
            raise AssertionError("a level was built")

        s = ms(3, 2, "1/15")
        monkeypatch.setattr(structure, "_next_level", must_not_run)
        assert level_size(s, 12) == 915_527_345
        with pytest.raises(DepthCapError, match="915527345 vertices"):
            level_vertices(s, 12)


class TestGluingScheme:
    def test_two_glued_edges(self):
        # two unit edges glued end to end: a path 0-1-2 marked at its ends
        scheme = GluingScheme(rows=((0, 1), (1, 2)), marked=(0, 2), num_ids=3)
        unit = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert scheme.assemble(unit).tolist() == [[0.0, 1.0, 0.0],
                                                  [1.0, 0.0, 1.0],
                                                  [0.0, 1.0, 0.0]]
        assert scheme.T(unit)[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert scheme.residual(unit, 2.0) == pytest.approx(0.0, abs=1e-15)
        assert scheme.closure([[0, 1]]) == [0, 0, 0]
        assert scheme.closure([[0], [1]]) == [0, 1, 2]

    def test_ms_scheme_is_the_level1_set(self):
        s = ms(2, 1, "1/12")
        lv1 = level_vertices(s, 1)
        assert s.scheme == lv1  # rows, marked and num_ids
        assert (len(lv1.rows), lv1.num_ids) == (3, 15)

    def test_gd_scheme_is_the_cell(self):
        # one row of four corner images per subcell; marked are the cell's
        # corners (p_cell, q_cell, p_cell+1, q_cell+1), each the unglued
        # p-corner image at one side of a broken junction
        n, m, ring = 3, 2, 5
        for c in range(ring):
            cell = cell_graph(n, m, c)
            rows = cell.scheme.rows
            assert len(rows) == ring and all(len(r) == 4 for r in rows)
            assert cell.scheme.marked == (
                rows[(n * c) % ring][0], rows[(n * c - 1) % ring][2],
                rows[(n * (c + 1) - 1) % ring][2], rows[(n * (c + 1)) % ring][0])
            assert cell.scheme.num_ids == 2 * ring + 2
        assert cell.boundary == ("p0", "q0", "p1", "q1")

    def test_glue_copies(self):
        # three copies of a two-vertex path glued end to end into a cycle;
        # ids follow the least slot c*size + v of each class
        rows, count = glue_copies(3, 2, [((0, 1), (1, 0)), ((1, 1), (2, 0)),
                                         ((2, 1), (0, 0))])
        assert (rows, count) == (((0, 1), (1, 2), (2, 0)), 3)
        assert glue_copies(2, 3, []) == (((0, 1, 2), (3, 4, 5)), 6)

    def test_built_once_per_structure(self, monkeypatch):
        calls = []
        for name in ("structure", "reports"):
            module = sys.modules[f"fractal_renorm.{name}"]
            real = module.level_vertices

            def counted(*args, _real=real, **kwargs):
                calls.append(args[1])
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "level_vertices", counted)
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        s.scheme.T(_boundary_matrix(s, hs.form))
        preserved = enumerate_preserved(s)
        relation = next(p for p in preserved if not p.is_trivial)
        assert is_preserved(s, relation)
        plan = _side(s, relation, "quotient")
        plan.op(plan.start)
        assert calls == [1]


class TestRotationAction:
    # the boundary permutation of a rotation, from angles.rotate and the
    # structure's index
    def test_identity(self):
        s = ms(2, 1, "1/12")
        assert rotation_perm(s, 0) == list(range(6))

    def test_2_1_12_shift(self):
        s = ms(2, 1, "1/12")
        perm = rotation_perm(s, 1)
        moved = {str(s.boundary[i]): str(s.boundary[perm[i]])
                 for i in range(6)}
        assert moved == {"0/1": "1/3", "1/3": "2/3", "2/3": "0/1",
                         "1/6": "1/2", "1/2": "5/6", "5/6": "1/6"}

    def test_not_invariant(self):
        s = ms(2, 2, "3/16", symmetrize=False)
        assert s.rotation is None
        with pytest.raises(KeyError):
            rotation_perm(s, 1)

    def test_level1_conjugacy(self):
        # rotating then including = shifting copies and rotating inside
        s = ms(2, 1, "1/12")
        ring = s.ctx.ring_size
        lv1 = level_vertices(s, 1)
        for l in range(ring):
            perm = rotation_perm(s, l)
            inner = rotation_perm(s, s.ctx.n * l)
            for i, a in enumerate(s.boundary):
                rotated_cell = (s.cells[a] - 1 + l) % ring
                inner_pos = inner[s.index[phi_n(a, s.ctx.n)]]
                assert lv1.marked[perm[i]] == \
                    lv1.rows[rotated_cell][inner_pos]


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
        data = levels_to_json(lv1, 1)
        assert data["level"] == 1
        assert data["num_vertices"] == 15
        assert len(data["merges"]) == 2 * s.ctx.ring_size
        assert len(data["inclusion"]) == len(s.boundary)
        merged_ids = {row[2] for row in data["merges"]}
        assert len(merged_ids) == s.ctx.ring_size
