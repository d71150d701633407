"""Replication, the trace operator, symmetrization, and the eigenform."""

from fractions import Fraction

import numpy as np
import pytest

from fractal_renorm import (
    Angle, ConductanceForm, NonConvergenceError, NotInvariantError,
    build_structure, energy, level_vertices, make_context, renorm_T,
    replicate, restrict_to_subset, solve_eigenform, symmetrize,
    verify_harmonic_structure,
)
from _oracles import family_eta, restriction_weights


def ms(n, m, theta, symmetrize=None):
    return build_structure(make_context(n, m, Fraction(theta)), symmetrize)


def boundary_form(structure, weight_fn):
    vs = structure.boundary
    edges = [(x, y, weight_fn(x, y)) for i, x in enumerate(vs)
             for y in vs[i + 1:]]
    return ConductanceForm.from_edges(vs, edges)


def complete_unit(structure):
    return boundary_form(structure, lambda x, y: 1.0)


def as_weight_array(structure, form):
    vs = structure.boundary
    return np.array([[form.weight(x, y) if x != y else 0.0 for y in vs]
                     for x in vs])


class TestReplicate:
    def test_gasket_counts(self):
        s = ms(2, 1, "1/6")
        rep = replicate(s, complete_unit(s))
        assert len(tuple(rep.vertices)) == 6
        pairs = list(rep.pairs())
        assert len(pairs) == 9
        assert all(w == pytest.approx(1.0) for _, _, w in pairs)

    def test_vertex_count_2_1_12(self):
        s = ms(2, 1, "1/12")
        assert len(tuple(replicate(s, complete_unit(s)).vertices)) == 15

    def test_zero_form(self):
        s = ms(2, 1, "1/6")
        rep = replicate(s, boundary_form(s, lambda x, y: 0.0))
        assert rep.mass() == 0.0

    def test_energy_identity(self):
        rng = np.random.default_rng(1)
        s = ms(2, 1, "1/12")
        form = boundary_form(s, lambda x, y: float(rng.uniform(0.5, 1.5)))
        rep = replicate(s, form)
        lv1 = level_vertices(s, 1)
        f1 = {v: float(rng.standard_normal()) for v in rep.vertices}
        total = 0.0
        for row in lv1.copy_map:
            pullback = {a: f1[row[s.index[a]]] for a in s.boundary}
            total += energy(form, pullback)
        assert energy(rep, f1) == pytest.approx(total)

    def test_vertex_mismatch(self):
        s = ms(2, 1, "1/6")
        wrong = ConductanceForm.from_edges("ab", [("a", "b", 1.0)])
        with pytest.raises(ValueError):
            replicate(s, wrong)


class TestRenormT:
    def test_gasket_reduction(self):
        s = ms(2, 1, "1/6")
        traced = renorm_T(s, complete_unit(s))
        for x, y, w in traced.pairs():
            assert w == pytest.approx(0.6)

    def test_homogeneity(self):
        s = ms(2, 1, "1/12")
        rng = np.random.default_rng(2)
        form = boundary_form(s, lambda x, y: float(rng.uniform(0.5, 1.5)))
        lhs = as_weight_array(s, renorm_T(s, form.scaled(7.0)))
        rhs = 7.0 * as_weight_array(s, renorm_T(s, form))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_monotone_in_weights(self):
        s = ms(2, 1, "1/12")
        rng = np.random.default_rng(4)
        for _ in range(5):
            form = boundary_form(s, lambda x, y: float(rng.uniform(0.5, 1.5)))
            vs = s.boundary
            x0, y0 = vs[0], vs[3]
            bumped = ConductanceForm.from_edges(
                vs, list(form.pairs()) + [(x0, y0, 0.5)])
            ta, tb = renorm_T(s, form), renorm_T(s, bumped)
            for _ in range(5):
                f = {v: float(rng.standard_normal()) for v in vs}
                assert energy(tb, f) >= energy(ta, f) - 1e-10

    def test_preserves_symmetry(self):
        s = ms(2, 2, "3/16")
        sym = symmetrize(s, complete_unit(s))
        traced = renorm_T(s, sym)
        again = symmetrize(s, traced)
        assert np.allclose(as_weight_array(s, traced),
                           as_weight_array(s, again), atol=1e-12)


class TestSymmetrize:
    def test_idempotent(self):
        s = ms(2, 1, "1/12")
        rng = np.random.default_rng(6)
        form = boundary_form(s, lambda x, y: float(rng.uniform(0.5, 1.5)))
        once = symmetrize(s, form)
        twice = symmetrize(s, once)
        assert np.allclose(as_weight_array(s, once),
                           as_weight_array(s, twice), atol=1e-13)

    def test_orbit_average(self):
        s = ms(2, 1, "1/6")
        vs = s.boundary
        perturbed = ConductanceForm.from_edges(
            vs, [(vs[0], vs[1], 4.0), (vs[1], vs[2], 1.0), (vs[0], vs[2], 1.0)])
        sym = symmetrize(s, perturbed)
        for x, y, w in sym.pairs():
            assert w == pytest.approx(2.0)

    def test_mass_preserved(self):
        s = ms(2, 2, "3/16")
        rng = np.random.default_rng(8)
        form = boundary_form(s, lambda x, y: float(rng.uniform(0.5, 1.5)))
        assert symmetrize(s, form).mass() == pytest.approx(form.mass())

    def test_requires_closed_boundary(self):
        s = ms(2, 2, "3/16", symmetrize=False)
        with pytest.raises(NotInvariantError):
            symmetrize(s, complete_unit(s))


class TestSolveEigenform:
    def test_gasket(self):
        hs = solve_eigenform(ms(2, 1, "1/6"))
        assert hs.eta == pytest.approx(5.0 / 3.0, abs=1e-9)
        weights = [w for _, _, w in hs.form.pairs()]
        assert len(weights) == 3
        assert max(weights) - min(weights) < 1e-9
        assert hs.normalization == "mass"
        assert hs.form.mass() == pytest.approx(1.0, abs=1e-12)

    def test_2_1_12_constant(self):
        hs = solve_eigenform(ms(2, 1, "1/12"))
        assert 1.0 / hs.eta == pytest.approx(0.64735, abs=1e-5)
        assert abs(hs.eta - hs.eta_rayleigh) <= 1e-9 * hs.eta

    def test_3_2_2_15_exact_constant(self):
        hs = solve_eigenform(ms(3, 2, "2/15"))
        assert hs.eta == pytest.approx(2.0, abs=1e-9)

    def test_closed_form_family(self):
        for n, m, l in [(2, 1, 1), (2, 3, 1), (3, 1, 1), (3, 1, 2)]:
            s = ms(n, m, Fraction(l, n * (m + n)))
            hs = solve_eigenform(s)
            assert hs.eta == pytest.approx(family_eta(n, m, l), abs=1e-9)

    def test_init_scale_invariance(self):
        s = ms(2, 1, "1/12")
        base = solve_eigenform(s)
        scaled = solve_eigenform(s, init=complete_unit(s).scaled(37.0))
        assert scaled.eta == pytest.approx(base.eta, abs=1e-10)
        assert np.allclose(as_weight_array(s, scaled.form),
                           as_weight_array(s, base.form), atol=1e-10)

    def test_eigen_equation_residual(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        traced = renorm_T(s, hs.form)
        dev = np.abs(hs.eta * as_weight_array(s, traced)
                     - as_weight_array(s, hs.form)).max()
        assert dev <= 1e-10

    def test_nonconvergence_diagnostics(self):
        with pytest.raises(NonConvergenceError) as err:
            solve_eigenform(ms(2, 1, "1/12"), max_iter=2)
        assert err.value.iterations == 2
        assert err.value.last_iterates


class TestVerify:
    def test_solved_structure_passes(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        report = verify_harmonic_structure(s, hs.form, hs.eta)
        assert report["ok"]
        assert report["eigen_residual"] <= 1e-10
        assert report["copy_consistency"] <= 1e-9

    def test_perturbation_detected(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        vs = s.boundary
        bumped = ConductanceForm.from_edges(
            vs, [(x, y, w * (1.01 if (x, y) == (vs[0], vs[1]) else 1.0))
                 for x, y, w in hs.form.pairs()])
        report = verify_harmonic_structure(s, bumped, hs.eta)
        assert not report["ok"]
        assert 1e-3 <= report["eigen_residual"] <= 1e-1

    def test_rescaled_fixed_point_unchanged(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        once = renorm_T(s, hs.form).scaled(hs.eta)
        report = verify_harmonic_structure(s, once, hs.eta)
        assert report["ok"]


class TestRestrict:
    def test_full_boundary_is_identity(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        back = restrict_to_subset(s, hs, s.boundary)
        assert np.allclose(as_weight_array(s, back),
                           as_weight_array(s, hs.form), atol=1e-12)

    def test_two_points_give_resistance(self):
        from fractal_renorm import effective_resistance
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        p, q = s.boundary[0], s.boundary[1]
        two = restrict_to_subset(s, hs, (p, q))
        assert two.weight(p, q) == pytest.approx(
            1.0 / effective_resistance(hs.form, p, q))

    def test_3_2_2_15_triangle_weights(self):
        s = ms(3, 2, "2/15")
        hs = solve_eigenform(s)
        pts = tuple(Angle.from_fraction(f, s.ctx.modulus)
                    for f in (Fraction(0), Fraction(2, 5), Fraction(4, 5)))
        tri = restrict_to_subset(s, hs, pts)
        got = np.array([tri.weight(pts[0], pts[1]),
                        tri.weight(pts[0], pts[2]),
                        tri.weight(pts[1], pts[2])])
        want = np.array(restriction_weights(3, 2, 2))
        scale = got[2] / want[2]
        assert np.allclose(got, scale * want, atol=1e-8 * scale)

    def test_bad_subset_rejected(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        with pytest.raises(ValueError):
            restrict_to_subset(s, hs, (s.boundary[0],))
        with pytest.raises(ValueError):
            restrict_to_subset(s, hs,
                               (Angle.from_fraction(Fraction(1, 6), 6),
                                s.boundary[0]))
