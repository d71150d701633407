"""Graph-directed model: cell graphs, solver dichotomy, corner relations."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from fractal_renorm import (
    ConductanceForm, NonConvergenceError, NotInvariantError, Partition,
    RELATION_PQ, RELATION_SIDES, build_gd_structure, cell_graph,
    enumerate_preserved, existence_verdict, gd_solve, is_preserved, main,
    rho_search, sabot_verdict,
)
from fractal_renorm import gd
from fractal_renorm.gd import CORNER_ORDER, EXPLORE_ITER_CAP, FORM_VERTICES
from fractal_renorm.relations import RATIO_TOL, _ratio_bounds, _side
from fractal_renorm.renorm import _boundary_matrix

from _oracles import gd_eta_m1, gd_rho_values, gd_solve_all_cells

GRID = [(n, m) for n in range(2, 7) for m in range(1, 7)]


def all_partitions(items):
    """All set partitions, via restricted growth strings."""
    items = list(items)
    if not items:
        yield Partition(())
        return
    code = [0] * len(items)
    while True:
        groups = {}
        for i, c in enumerate(code):
            groups.setdefault(c, []).append(items[i])
        yield Partition.from_blocks(groups.values())
        for i in range(len(items) - 1, 0, -1):
            if code[i] <= max(code[:i]):
                code[i] += 1
                for j in range(i + 1, len(items)):
                    code[j] = 0
                break
        else:
            return


class TestCellGraph:
    def test_vertex_count(self):
        for n, m in GRID:
            g = cell_graph(n, m)
            assert g.scheme.num_ids == 2 * (m + n) + 2

    def test_corners_distinct(self):
        for n, m in GRID:
            for cell in range(m + n):
                assert len(set(cell_graph(n, m, cell).scheme.marked)) == 4

    def test_q_chain_always_glued(self):
        g = cell_graph(3, 2)
        ring = 5
        for sub in range(ring):
            assert g.scheme.rows[sub][3] == g.scheme.rows[(sub + 1) % ring][1]

    def test_breaks_at_cell_endpoints(self):
        # the p-chain is cut exactly at the two junctions owned by the cell
        g = cell_graph(3, 2, 0)
        assert g.broken == (2, 4)
        ring = 5
        for sub in range(ring):
            glued = g.scheme.rows[sub][2] == g.scheme.rows[(sub + 1) % ring][0]
            assert glued == (sub not in g.broken)

    def test_every_cell_breaks_twice(self):
        for n, m in GRID:
            for cell in range(m + n):
                assert len(cell_graph(n, m, cell).broken) == 2


class TestGdStructure:
    def test_vertex_count_grid(self):
        for n, m in GRID:
            assert build_gd_structure(n, m)["num_vertices"] == 2 * (m + n) ** 2

    def test_parameter_bounds(self, capsys):
        with pytest.raises(ValueError):
            build_gd_structure(1, 1)
        with pytest.raises(ValueError):
            build_gd_structure(2, 0)
        # the existence sign test divides by m and n: checked first
        for n, m in ((2, 0), (0, 1)):
            for call in (existence_verdict, cell_graph):
                with pytest.raises(ValueError, match="need n >= 2"):
                    call(n, m)
        assert main(["gd", "rhos", "--n", "1", "--m", "1"]) == 2
        assert "need n >= 2" in capsys.readouterr().err

    def test_level1_names(self):
        level1 = build_gd_structure(2, 1)["level1"]
        assert list(level1) == sorted(
            f"{c}{j}" for c in "pq" for j in range(3))
        assert len(set(level1.values())) == 6

    def test_corner_tables(self):
        rows = build_gd_structure(3, 2)["corner_maps"]
        # four corners per (subcell, cell), in that order
        assert [row[:3] for row in rows] == [
            [sub, cell, corner] for sub in range(1, 6) for cell in range(1, 6)
            for corner in CORNER_ORDER]
        assert all(0 <= row[3] < 50 for row in rows)

    def test_json_shape(self):
        payload = build_gd_structure(3, 2)
        assert list(payload) == ["ctx", "num_vertices", "corner_maps",
                                 "level1"]
        assert payload["ctx"] == {"n": 3, "m": 2}
        assert payload["num_vertices"] == 50
        assert len(payload["corner_maps"]) == 4 * 25
        for sub, cell, corner, vid in payload["corner_maps"]:
            assert 1 <= sub <= 5 and 1 <= cell <= 5
            assert corner in CORNER_ORDER
            assert 0 <= vid < 50
        assert len(payload["level1"]) == 10


class TestExistence:
    def test_verdicts(self):
        assert existence_verdict(2, 1) == "exists_unique"
        assert existence_verdict(3, 5) == "exists_unique"
        assert existence_verdict(4, 4) == "critical_undetermined"
        assert existence_verdict(3, 6) == "critical_undetermined"
        assert existence_verdict(6, 3) == "critical_undetermined"
        assert existence_verdict(6, 6) == "none"
        assert existence_verdict(5, 4) == "none"

    def test_dichotomy_on_grid(self):
        for n, m in GRID:
            crit = Fraction(1, m) + Fraction(1, n) - Fraction(1, 2)
            expected = ("exists_unique" if crit > 0
                        else "critical_undetermined" if crit == 0
                        else "none")
            assert existence_verdict(n, m) == expected

    def test_sabot_verdict_matches_the_dichotomy(self):
        # Sabot's criterion on the enumerated cell relations reproduces the
        # sign test on every cell with n, m <= 12; the critical pairs get no
        # verdict either way
        expected = {"exists_unique": "criteria_hold_exists_unique",
                    "none": "nonexistence_certified",
                    "critical_undetermined": "inconclusive"}
        for n, m in ((n, m) for n in range(2, 13) for m in range(1, 13)):
            cell = cell_graph(n, m)
            report = sabot_verdict(cell, enumerate_preserved(cell))
            assert report.verdict == expected[existence_verdict(n, m)], (n, m)


class TestRenormT:
    def test_homogeneous(self):
        form = ConductanceForm.from_edges(
            FORM_VERTICES,
            [(x, y, 1.0 + 0.1 * i)
             for i, (x, y) in enumerate(combinations(FORM_VERTICES, 2))])
        scheme = cell_graph(2, 1).scheme
        a = scheme.T(form.matrix())
        b = scheme.T(3.0 * form.matrix())
        assert np.abs(b - 3.0 * a).max() < 1e-12

    def test_vertex_order_irrelevant(self):
        # a form read in boundary order gives T the same matrix whatever
        # order its vertices were listed in
        rng = np.random.default_rng(7)
        weights = {frozenset(p): float(rng.uniform(0.5, 2.0))
                   for p in combinations(FORM_VERTICES, 2)}
        direct = ConductanceForm.from_edges(
            FORM_VERTICES, [(x, y, weights[frozenset((x, y))])
                            for x, y in combinations(FORM_VERTICES, 2)])
        shuffled_vs = ("q1", "p0", "q0", "p1")
        shuffled = ConductanceForm.from_edges(
            shuffled_vs, [(x, y, weights[frozenset((x, y))])
                          for x, y in combinations(shuffled_vs, 2)])
        cell = cell_graph(2, 1)
        out_a = cell.scheme.T(_boundary_matrix(cell, direct))
        out_b = cell.scheme.T(_boundary_matrix(cell, shuffled))
        assert np.abs(out_a - out_b).max() <= 1e-12

    def test_fixed_point_scaling(self):
        hs = gd_solve(cell_graph(2, 1))
        traced = cell_graph(2, 1).scheme.T(hs.form.matrix())
        assert np.abs(hs.eta * traced - hs.form.matrix()).max() < 1e-10


class TestSolve:
    def test_eta_m_equals_one(self):
        for n in (2, 3, 4, 5):
            hs = gd_solve(cell_graph(n, 1))
            assert hs.eta == pytest.approx(gd_eta_m1(n), abs=1e-9)
            lower, upper = hs.eta_bounds
            assert lower <= hs.eta <= upper and upper - lower <= 1e-9
            assert hs.converged
            assert hs.existence == "exists_unique"
            assert hs.residual < 1e-9
            assert hs.form.mass() == pytest.approx(1.0, abs=1e-12)
            assert hs.diagnostics["collapsed_pairs"] == []

    def test_2_1_eta_inverse(self):
        assert 1.0 / gd_solve(cell_graph(2, 1)).eta == pytest.approx(
            0.6, abs=1e-9)

    def test_residual_within_stated_tolerance(self):
        # the reported residual is the one the loop stops on
        for n, m in [(2, 1), (4, 3), (2, 3), (5, 4)]:
            hs = gd_solve(cell_graph(n, m))
            assert hs.converged
            assert hs.residual <= 1e-12

    def test_critical_runs_out_of_budget(self):
        hs = gd_solve(cell_graph(4, 4))
        assert hs.existence == "critical_undetermined"
        assert not hs.converged
        assert hs.iterations == EXPLORE_ITER_CAP
        assert hs.diagnostics["last_step"] > 0.0

    def test_none_side_collapses_cross_pairs(self):
        for n, m in [(6, 6), (5, 4)]:
            hs = gd_solve(cell_graph(n, m))
            assert hs.existence == "none"
            collapsed = {frozenset(p)
                         for p in hs.diagnostics["collapsed_pairs"]}
            assert collapsed == {frozenset(("p0", "p1")),
                                 frozenset(("p0", "q1")),
                                 frozenset(("q0", "p1")),
                                 frozenset(("q0", "q1"))}
            assert hs.eta == pytest.approx(2.0, abs=1e-9)

    def test_nonconvergence_raises_on_exists_side(self):
        with pytest.raises(NonConvergenceError) as err:
            gd_solve(cell_graph(2, 1), max_iter=3)
        assert err.value.iterations == 3

    def test_init_does_not_matter(self):
        rng = np.random.default_rng(5)
        init = ConductanceForm.from_edges(
            FORM_VERTICES, [(x, y, float(rng.uniform(0.2, 3.0)))
                            for x, y in combinations(FORM_VERTICES, 2)])
        a = gd_solve(cell_graph(2, 1)).form.matrix()
        b = gd_solve(cell_graph(2, 1), init=init).form.matrix()
        assert np.abs(a - b).max() < 1e-9

    def test_mass_ratio_tail_tracks_eta(self):
        hs = gd_solve(cell_graph(3, 1))
        tail = hs.diagnostics["mass_ratio_tail"]
        assert len(tail) == min(5, hs.iterations)
        assert tail[-1] == pytest.approx(hs.eta, abs=1e-9)

    def test_history_holds_what_its_readers_take(self, monkeypatch):
        # the mass-ratio tail reads the last five iterates and the
        # non-convergence error the last three; a run keeps no more
        runs, solve = [], gd._normalized_iteration

        def spy(*args, **kwargs):
            runs.append(solve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(gd, "_normalized_iteration", spy)
        hs = gd_solve(cell_graph(5, 5))
        assert hs.iterations > 16
        assert len(runs[-1].history) <= 5
        assert len(hs.diagnostics["mass_ratio_tail"]) == 5
        with pytest.raises(NonConvergenceError) as err:
            gd_solve(cell_graph(4, 3), max_iter=5)
        assert len(runs[-1].history) == 5
        assert len(err.value.last_iterates) == 3


class TestPreservation:
    def test_named_relations_preserved(self):
        for n, m in [(2, 1), (3, 2), (2, 3)]:
            assert is_preserved(cell_graph(n, m), RELATION_PQ)
            assert is_preserved(cell_graph(n, m), RELATION_SIDES)

    def test_exactly_four_preserved(self):
        # trivial pair plus the two named relations, nothing else
        for n, m in [(2, 1), (3, 2), (2, 3)]:
            preserved = [p for p in all_partitions(FORM_VERTICES)
                         if is_preserved(cell_graph(n, m), p)]
            assert len(preserved) == 4
            assert RELATION_PQ in preserved
            assert RELATION_SIDES in preserved
            assert Partition.from_blocks([[v] for v in FORM_VERTICES]) \
                in preserved
            assert Partition.from_blocks([list(FORM_VERTICES)]) in preserved
            # the pruned MS enumerator serves the cell, in RGS order
            assert enumerate_preserved(cell_graph(n, m)) == preserved

    def test_g_relations_need_a_rotation(self):
        # a cell has no rotation, so it is not rotation-closed
        cell = cell_graph(2, 1)
        assert cell.rotation is None
        hint = "build the structure with symmetrize=True"
        with pytest.raises(NotInvariantError, match=hint):
            enumerate_preserved(cell, require_g=True)
        with pytest.raises(NotInvariantError, match=hint):
            is_preserved(cell, RELATION_PQ, require_g=True)


class TestQuotient:
    # the quotient side on the two blocks: one unit weight between them
    unit = np.array([[0.0, 1.0], [1.0, 0.0]])

    def image(self, n, m, relation, w):
        return _side(cell_graph(n, m), relation, "quotient").op(w)[0, 1]

    def test_pq_quotient_weight(self):
        for n, m in [(2, 1), (3, 2), (2, 3)]:
            assert self.image(n, m, RELATION_PQ, self.unit) == \
                pytest.approx(1.0 / m + 1.0 / n, abs=1e-9)

    def test_sides_quotient_weight(self):
        for n, m in [(2, 1), (3, 2), (2, 3)]:
            assert self.image(n, m, RELATION_SIDES, self.unit) == \
                pytest.approx(m * n / (m + n), abs=1e-9)

    def test_homogeneous(self):
        q1 = self.image(2, 1, RELATION_PQ, self.unit)
        q7 = self.image(2, 1, RELATION_PQ, 7.0 * self.unit)
        assert q7 == pytest.approx(7.0 * q1, abs=1e-9)


class TestRhoTable:
    def test_values_against_closed_forms(self):
        for n, m in [(2, 1), (3, 2), (2, 3)]:
            cell = cell_graph(n, m)
            pq_over, pq_quotient, sides_over, sides_quotient = \
                gd_rho_values(n, m)
            for relation, over, quotient in (
                    (RELATION_PQ, pq_over, pq_quotient),
                    (RELATION_SIDES, sides_over, sides_quotient)):
                got = rho_search(cell, relation, "relation").rho_over
                assert got == pytest.approx(over, abs=RATIO_TOL)
                # the quotient spaces are rays, so those are near-exact
                got = rho_search(cell, relation, "quotient").rho_over
                assert got == pytest.approx(quotient, abs=1e-9)

    def test_entry_internals(self):
        cell = cell_graph(2, 1)
        for relation in (RELATION_PQ, RELATION_SIDES):
            rr = rho_search(cell, relation, "relation")
            assert rr.basis_dim == 2
            assert rr.evaluations > 0
            assert rr.rho_under <= rr.rho_over + 1e-12

    def test_achieving_forms_reproduce(self):
        cell = cell_graph(2, 1)
        for relation in (RELATION_PQ, RELATION_SIDES):
            rr = rho_search(cell, relation, "relation")
            comp = _side(cell, relation, "relation").comp
            w = _boundary_matrix(cell, rr.best_over)
            _, hi = _ratio_bounds(cell.scheme.T(w), w, comp)
            assert hi == pytest.approx(rr.rho_over, abs=1e-9)
            w = _boundary_matrix(cell, rr.best_under)
            lo, _ = _ratio_bounds(cell.scheme.T(w), w, comp)
            assert lo == pytest.approx(rr.rho_under, abs=1e-9)


class TestAllCells:
    def test_cells_agree_and_match_reduced_solve(self):
        forms, eta, iterations = gd_solve_all_cells(2, 1)
        assert eta == pytest.approx(5.0 / 3.0, abs=1e-9)
        for a in forms:
            for b in forms:
                assert np.abs(a - b).max() < 1e-9
        reduced = gd_solve(cell_graph(2, 1)).form.matrix()
        assert np.abs(forms[0] - reduced).max() < 1e-9

    def test_3_2_agreement(self):
        forms, eta, _ = gd_solve_all_cells(3, 2)
        assert len(forms) == 5
        for a in forms:
            assert np.abs(a - forms[0]).max() < 1e-9
        assert eta == pytest.approx(gd_solve(cell_graph(3, 2)).eta,
                                    abs=1e-9)

    def test_budget_exhaustion(self):
        with pytest.raises(NonConvergenceError):
            gd_solve_all_cells(2, 1, max_iter=2)
