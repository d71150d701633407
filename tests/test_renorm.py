"""Gluing, the trace operator T, rotations, and the eigenform.

T is structure.scheme.T on boundary weight matrices, the operator the
solver iterates.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from fractal_renorm import (
    Angle, ConductanceForm, NonConvergenceError, build_structure,
    form_to_json, level_vertices, make_context, resistance_matrix,
    solve_eigenform, validate_report_details,
)
from fractal_renorm import renorm, structure
from fractal_renorm.cli import main
from fractal_renorm.gd import cell_graph, gd_solve
from fractal_renorm.reports import harmonic_results
from fractal_renorm.structure import GluingScheme, _copy_defects
from fractal_renorm.renorm import (_boundary_matrix, _newton_step,
                                   _pair_jacobian, _PairOrbits)
from _oracles import (SWEEP_FAMILIES, dense_copy_consistency, energy,
                      family_eta, gd_eta_m1, power_eigenform,
                      restriction_weights, rotation_average, rotation_perm,
                      valid_contexts)


def ms(n, m, theta, symmetrize=None):
    return build_structure(make_context(n, m, Fraction(theta)), symmetrize)


def boundary_form(structure, weight_fn):
    vs = structure.boundary
    edges = [(x, y, weight_fn(x, y)) for i, x in enumerate(vs)
             for y in vs[i + 1:]]
    return ConductanceForm.from_edges(vs, edges)


def complete_unit(structure):
    return boundary_form(structure, lambda x, y: 1.0)


def random_weights(structure, rng):
    return _boundary_matrix(structure, boundary_form(
        structure, lambda x, y: float(rng.uniform(0.5, 1.5))))


def as_weight_array(structure, form):
    vs = structure.boundary
    return np.array([[form.weight(x, y) if x != y else 0.0 for y in vs]
                     for x in vs])


def quadratic(w, f):
    """Energy of values f (in matrix order) under the weight matrix w."""
    return float(f @ (np.diag(w.sum(axis=1)) - w) @ f)


class TestReplicate:
    def test_gasket_counts(self):
        s = ms(2, 1, "1/6")
        rep = s.scheme.assemble(as_weight_array(s, complete_unit(s)))
        assert rep.shape == (6, 6)
        weights = [w for _, _, w in ConductanceForm.from_matrix(
            tuple(range(6)), rep).pairs()]
        assert len(weights) == 9
        assert all(w == pytest.approx(1.0) for w in weights)

    def test_vertex_count_2_1_12(self):
        s = ms(2, 1, "1/12")
        assert s.scheme.assemble(as_weight_array(
            s, complete_unit(s))).shape == (15, 15)

    def test_zero_form(self):
        s = ms(2, 1, "1/6")
        assert s.scheme.assemble(np.zeros((3, 3))).sum() == 0.0

    def test_energy_identity(self):
        rng = np.random.default_rng(1)
        s = ms(2, 1, "1/12")
        form = boundary_form(s, lambda x, y: float(rng.uniform(0.5, 1.5)))
        rep = ConductanceForm.from_matrix(
            tuple(range(s.scheme.num_ids)),
            s.scheme.assemble(_boundary_matrix(s, form)))
        lv1 = level_vertices(s, 1)
        f1 = {v: float(rng.standard_normal()) for v in rep.vertices}
        total = 0.0
        for row in lv1.rows:
            pullback = {a: f1[row[s.index[a]]] for a in s.boundary}
            total += energy(form, pullback)
        assert energy(rep, f1) == pytest.approx(total)

    def test_vertex_mismatch(self):
        s = ms(2, 1, "1/6")
        wrong = ConductanceForm.from_edges("ab", [("a", "b", 1.0)])
        with pytest.raises(ValueError):
            solve_eigenform(s, init=wrong)


class TestRenormT:
    def test_gasket_reduction(self):
        s = ms(2, 1, "1/6")
        traced = s.scheme.T(as_weight_array(s, complete_unit(s)))
        for i in range(3):
            for j in range(i + 1, 3):
                assert traced[i, j] == pytest.approx(0.6)

    def test_homogeneity(self):
        s = ms(2, 1, "1/12")
        w = random_weights(s, np.random.default_rng(2))
        assert np.allclose(s.scheme.T(7.0 * w), 7.0 * s.scheme.T(w),
                           rtol=1e-12, atol=1e-12)

    def test_monotone_in_weights(self):
        s = ms(2, 1, "1/12")
        rng = np.random.default_rng(4)
        for _ in range(5):
            w = random_weights(s, rng)
            bumped = w.copy()
            bumped[0, 3] += 0.5
            bumped[3, 0] += 0.5
            ta, tb = s.scheme.T(w), s.scheme.T(bumped)
            for _ in range(5):
                f = rng.standard_normal(len(s.boundary))
                assert quadratic(tb, f) >= quadratic(ta, f) - 1e-10

    def test_preserves_symmetry(self):
        s = ms(2, 2, "3/16")
        sym = rotation_average(s, as_weight_array(s, complete_unit(s)))
        traced = s.scheme.T(sym)
        assert np.allclose(traced, rotation_average(s, traced), atol=1e-12)

    @pytest.mark.parametrize("n,m,theta", [
        (2, 1, "1/12"), (2, 2, "3/16"), (3, 1, "1/9")])
    def test_rotation_equivariance(self, n, m, theta):
        # rotating the boundary by l/(m+n) shifts the copies by l and
        # rotates inside each copy by n*l, so T(P_nl w) = P_l T(w)
        s = ms(n, m, theta, symmetrize=True)
        w = random_weights(s, np.random.default_rng(5))
        for l in range(s.ctx.ring_size):
            inner = rotation_perm(s, s.ctx.n * l)
            rotated = np.zeros_like(w)
            rotated[np.ix_(inner, inner)] = w
            perm = rotation_perm(s, l)
            want = np.zeros_like(w)
            want[np.ix_(perm, perm)] = s.scheme.T(w)
            assert np.abs(s.scheme.T(rotated) - want).max() \
                <= 1e-12 * np.abs(want).max()


class TestSymmetrize:
    # rotation_average is the reference the symmetry tests above use
    def test_idempotent(self):
        s = ms(2, 1, "1/12")
        w = random_weights(s, np.random.default_rng(6))
        once = rotation_average(s, w)
        assert np.allclose(once, rotation_average(s, once), atol=1e-13)

    def test_orbit_average(self):
        s = ms(2, 1, "1/6")
        vs = s.boundary
        perturbed = ConductanceForm.from_edges(
            vs, [(vs[0], vs[1], 4.0), (vs[1], vs[2], 1.0), (vs[0], vs[2], 1.0)])
        sym = rotation_average(s, as_weight_array(s, perturbed))
        off = sym[~np.eye(3, dtype=bool)]
        assert off == pytest.approx(np.full(6, 2.0))

    def test_mass_preserved(self):
        s = ms(2, 2, "3/16")
        w = random_weights(s, np.random.default_rng(8))
        assert rotation_average(s, w).sum() == pytest.approx(w.sum())

    def test_requires_closed_boundary(self):
        s = ms(2, 2, "3/16", symmetrize=False)
        assert s.rotation is None
        with pytest.raises(KeyError):
            rotation_average(s, as_weight_array(s, complete_unit(s)))


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
        lower, upper = hs.eta_bounds
        assert lower <= hs.eta <= upper and upper - lower <= 1e-9 * hs.eta

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
        scaled = solve_eigenform(s, init=boundary_form(s, lambda x, y: 37.0))
        assert scaled.eta == pytest.approx(base.eta, abs=1e-10)
        assert np.allclose(as_weight_array(s, scaled.form),
                           as_weight_array(s, base.form), atol=1e-10)

    def test_eigen_equation_residual(self):
        s = ms(2, 1, "1/12")
        hs = solve_eigenform(s)
        w = as_weight_array(s, hs.form)
        dev = np.abs(hs.eta * s.scheme.T(w) - w).max()
        assert dev <= 1e-10

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            solve_eigenform(ms(2, 1, "1/12"), tol=tol, max_iter=50)

    def test_nonconvergence_diagnostics(self):
        with pytest.raises(NonConvergenceError) as err:
            solve_eigenform(ms(2, 1, "1/12"), max_iter=2)
        assert err.value.iterations == 2
        assert err.value.last_iterates


def pair_vector(w):
    return w[np.triu_indices(len(w), 1)]


def pair_matrix(x, nb):
    w = np.zeros((nb, nb))
    w[np.triu_indices(nb, 1)] = x
    return w + w.T


NEWTON_CASES = [("ms", 2, 1, "1/12"), ("ms", 2, 2, "3/16"), ("gd", 4, 3, None)]


def newton_case(kind, n, m, theta):
    return ms(n, m, theta) if kind == "ms" else cell_graph(n, m)


class TestNewton:
    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_jacobian_matches_central_differences(self, case):
        structure = newton_case(*case)
        scheme, nb = structure.scheme, len(structure.boundary)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.5, 1.5, nb * (nb - 1) // 2)
        jac = _pair_jacobian(scheme, _PairOrbits.build(scheme.pairs, None),
                             scheme.harmonic(pair_matrix(x, nb))[1])
        step = 1e-5
        numeric = np.empty_like(jac)
        for p in range(len(x)):
            up, down = x.copy(), x.copy()
            up[p] += step
            down[p] -= step
            numeric[:, p] = pair_vector(
                scheme.T(pair_matrix(up, nb))
                - scheme.T(pair_matrix(down, nb))) / (2 * step)
        assert np.abs(jac - numeric).max() <= 1e-6 * np.abs(jac).max()

    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_jacobian_euler_identity(self, case):
        # T is homogeneous of degree 1, so J(w) w = T(w)
        structure = newton_case(*case)
        scheme, nb = structure.scheme, len(structure.boundary)
        x = np.random.default_rng(12).uniform(0.5, 1.5, nb * (nb - 1) // 2)
        w = pair_matrix(x, nb)
        traced, ext = scheme.harmonic(w)
        jac = _pair_jacobian(scheme, _PairOrbits.build(scheme.pairs, None),
                             ext)
        traced = pair_vector(traced)
        assert np.abs(jac @ x - traced).max() <= 1e-12 * np.abs(traced).max()

    @pytest.mark.parametrize("n,m,theta", [
        (2, 1, "1/6"), (2, 3, "1/10"), (3, 1, "1/12"), (3, 1, "1/6"),
        (3, 2, "1/15"), (3, 2, "2/15"), (2, 1, "1/24"), (2, 1, "1/48"),
        (2, 1, "1/96"), (2, 1, "1/192")])
    def test_agrees_with_power_iteration(self, n, m, theta):
        s = ms(n, m, theta)
        w, eta = power_eigenform(s)
        hs = solve_eigenform(s)
        assert abs(hs.eta - eta) <= 1e-12 * eta
        assert np.abs(_boundary_matrix(s, hs.form) - w).max() <= 1e-10

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (4, 1), (4, 3)])
    def test_gd_agrees_with_power_iteration(self, n, m):
        w, eta = power_eigenform(cell_graph(n, m))
        hs = gd_solve(cell_graph(n, m))
        assert abs(hs.eta - eta) <= 1e-12 * eta
        assert np.abs(hs.form.matrix() - w).max() <= 1e-10

    def test_skewed_start_falls_back_and_converges(self):
        s = ms(2, 1, "1/12")
        scheme, nb = s.scheme, len(s.boundary)
        spread = np.geomspace(1e-6, 1e6, nb * (nb - 1) // 2)
        np.random.default_rng(0).shuffle(spread)
        start = pair_matrix(spread, nb)
        init = ConductanceForm.from_matrix(s.boundary, start)
        # the first Newton iterate from the normalized start breaks the
        # step rule, so the solve takes a cone step first
        w = start / pair_vector(start).sum()
        traced, ext = scheme.harmonic(w)
        eta = 2.0 / traced.sum()
        first = _newton_step(scheme, _PairOrbits.build(scheme.pairs, None),
                             w, traced, ext, eta)
        assert first is None or scheme.residual(
            first, 2.0 / scheme.T(first).sum()) >= scheme.residual(w, eta)
        hs = solve_eigenform(s, init=init)
        power, power_eta = power_eigenform(s)
        assert abs(hs.eta - power_eta) <= 1e-12 * power_eta
        assert np.abs(_boundary_matrix(s, hs.form) - power).max() <= 1e-10

    @pytest.mark.parametrize("theta,steps", [("1/12", 4), ("1/192", 5)])
    def test_one_interior_solve_per_step(self, theta, steps, monkeypatch):
        # a Newton step reads the extension its iterate's trace made, and
        # the pair indices are built once per scheme
        counts = {"interior": 0, "triu": 0}
        solve, triu = np.linalg.solve, np.triu_indices

        def counted_solve(a, b):
            # the kernel solves for the extension of the marked basis, a
            # 2-D right-hand side; a Newton system has a 1-D one
            counts["interior"] += b.ndim == 2
            return solve(a, b)

        def counted_triu(*args, **kwargs):
            counts["triu"] += 1
            return triu(*args, **kwargs)

        s = ms(2, 1, theta)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(np, "triu_indices", counted_triu)
        assert solve_eigenform(s).iterations == steps
        assert counts == {"interior": 1 + steps, "triu": 1}

    def test_large_boundary_takes_cone_steps(self, monkeypatch):
        # above NEWTON_MAX_PAIRS pairs no Newton system is formed, and the
        # stall stop is off: the residual of the cone steps here has a
        # stretch of 3 steps without a new lowest value
        def must_not_run(*args):
            raise AssertionError("Newton system formed")

        monkeypatch.setattr(renorm, "NEWTON_MAX_PAIRS", 0)
        monkeypatch.setattr(renorm, "STALL_STEPS", 2)
        monkeypatch.setattr(renorm, "_newton_step", must_not_run)
        s = ms(2, 1, "1/192")
        w, eta = power_eigenform(s)
        hs = solve_eigenform(s)
        assert hs.iterations > 100
        assert abs(hs.eta - eta) <= 1e-12 * eta
        assert np.abs(_boundary_matrix(s, hs.form) - w).max() <= 1e-10

    def test_few_steps_from_the_unit_form(self):
        # power iteration needs 157 steps at nb = 18 and 154 on GD (4,3)
        assert solve_eigenform(ms(2, 1, "1/192")).iterations <= 8
        assert gd_solve(cell_graph(4, 3)).iterations <= 8

    def test_converged_start_takes_no_step(self):
        # the unit form is the eigenform of the gasket
        hs = solve_eigenform(ms(2, 1, "1/6"))
        assert hs.iterations == 0

    def test_unreachable_tol_stalls(self):
        with pytest.raises(NonConvergenceError, match="lowest residual") \
                as err:
            solve_eigenform(ms(2, 1, "1/12"), tol=0.0)
        assert err.value.iterations < 100
        assert 0.0 < err.value.residual < 1e-14


# the nine solves of the benchmark's verdict workload (both members of
# each family pair), then two more, with their pinned step counts
ORBIT_CASES = [
    (2, 1, "1/6", 0), (3, 1, "1/12", 3), (3, 1, "1/6", 3), (3, 2, "1/15", 1),
    (3, 2, "2/15", 1), (2, 3, "1/10", 4), (2, 1, "1/24", 5),
    (2, 2, "3/16", 5), (2, 1, "1/48", 5), (2, 1, "1/96", 5),
    (2, 1, "1/192", 5), (2, 1, "1/12", 4), (3, 1, "1/9", 4)]


def newton_sizes(monkeypatch):
    """Record the size of every Newton system solved from here on: the
    solves with a 1-D right-hand side, where the trace kernel's have a 2-D
    one."""
    sizes, solve = [], np.linalg.solve

    def spy(a, b):
        if b.ndim == 1:
            sizes.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return sizes


class TestOrbitSolve:
    @pytest.mark.parametrize("n,m,theta,steps", ORBIT_CASES)
    def test_agrees_with_cone_steps(self, n, m, theta, steps):
        # the cone-only run forms no orbit table and no Newton system
        s = ms(n, m, theta)
        cone = renorm._normalized_iteration(s, 1e-14, 10_000, newton=False)
        assert cone.converged
        hs = solve_eigenform(s)
        assert hs.iterations == steps
        w = _boundary_matrix(s, hs.form)
        assert abs(hs.eta - cone.eta) <= 1e-12
        assert np.abs(w - cone.form).max() <= 1e-10
        rot = list(s.rotation)
        assert (w[np.ix_(rot, rot)] == w).all()

    @pytest.mark.parametrize("n,m,theta", [(2, 1, "1/12"), (2, 2, "3/16"),
                                           (3, 2, "1/15")])
    def test_orbit_jacobian_matches_central_differences(self, n, m, theta):
        s = ms(n, m, theta)
        scheme, nb = s.scheme, len(s.boundary)
        orbits = _PairOrbits.build(scheme.pairs, s.rotation)
        ra, rb = orbits.ra, orbits.rb
        x = np.random.default_rng(13).uniform(0.5, 1.5, len(ra))
        jac = _pair_jacobian(scheme, orbits,
                             scheme.harmonic(orbits.matrix(x, nb))[1])
        step = 1e-5
        numeric = np.empty_like(jac)
        for o in range(len(x)):
            up, down = x.copy(), x.copy()
            up[o] += step
            down[o] -= step
            numeric[:, o] = (scheme.T(orbits.matrix(up, nb))
                             - scheme.T(orbits.matrix(down, nb)))[ra, rb] \
                / (2 * step)
        assert np.abs(jac - numeric).max() <= 1e-6 * np.abs(jac).max()

    @pytest.mark.parametrize("n,m,theta", [(2, 1, "1/12"), (2, 2, "3/16"),
                                           (2, 1, "1/192")])
    def test_orbits_partition_the_pairs(self, n, m, theta):
        s = ms(n, m, theta)
        nb = len(s.boundary)
        orbits = _PairOrbits.build(s.scheme.pairs, s.rotation)
        found = set(zip(orbits.ia.tolist(), orbits.ib.tolist()))
        assert found == {(a, b) for a in range(nb) for b in range(a + 1, nb)}
        assert len(found) == len(orbits.ia) == orbits.sizes.sum()
        rot = s.rotation
        for start, size in zip(orbits.starts, orbits.sizes):
            orbit = {(a, b) for a, b in zip(orbits.ia[start:start + size],
                                            orbits.ib[start:start + size])}
            assert {tuple(sorted((rot[a], rot[b]))) for a, b in orbit} \
                == orbit
            assert (orbits.ia[start], orbits.ib[start]) == min(orbit)

    def test_system_size(self, monkeypatch):
        # one unknown per orbit plus eta: 153 pairs in 51 orbits at
        # nb = 18, and 6 singleton orbits on a cell, which has no rotation
        sizes = newton_sizes(monkeypatch)
        solve_eigenform(ms(2, 1, "1/192"))
        assert set(sizes) == {52}
        sizes.clear()
        gd_solve(cell_graph(4, 3))
        assert set(sizes) == {7}

    def test_asymmetric_start_solves_on_pairs(self, monkeypatch):
        s = ms(2, 1, "1/12")
        nb = len(s.boundary)
        start = pair_matrix(np.arange(1.0, 1.0 + nb * (nb - 1) // 2), nb)
        sizes = newton_sizes(monkeypatch)
        hs = solve_eigenform(s, init=ConductanceForm.from_matrix(s.boundary,
                                                                 start))
        assert sizes and set(sizes) == {nb * (nb - 1) // 2 + 1}
        w, eta = power_eigenform(s)
        assert abs(hs.eta - eta) <= 1e-12 * eta
        assert np.abs(_boundary_matrix(s, hs.form) - w).max() <= 1e-10


class TestEtaEnclosure:
    """eta_bounds against closed forms, which share no code with the
    solver, and the Collatz-Wielandt property away from the eigenform."""

    @pytest.mark.parametrize("n,m,l", [(2, 1, 1), (2, 3, 1), (3, 1, 1),
                                       (3, 1, 2), (3, 2, 1), (3, 2, 2)])
    def test_family_eta_inside(self, n, m, l):
        s = ms(n, m, Fraction(l, n * (m + n)))
        lower, upper = solve_eigenform(s).eta_bounds
        assert lower <= family_eta(n, m, l) <= upper

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gd_m1_eta_inside(self, n):
        lower, upper = gd_solve(cell_graph(n, 1)).eta_bounds
        assert lower <= gd_eta_m1(n) <= upper

    def test_3_2_1_15_eta_is_two(self):
        lower, upper = solve_eigenform(ms(3, 2, "1/15")).eta_bounds
        assert lower <= 2.0 <= upper

    @pytest.mark.parametrize("n,m,theta,steps", ORBIT_CASES[:11])
    def test_width_at_the_default_tol(self, n, m, theta, steps):
        hs = solve_eigenform(ms(n, m, theta))
        lower, upper = hs.eta_bounds
        assert lower <= hs.eta <= upper
        assert upper - lower <= 1e-12 * hs.eta

    @pytest.mark.parametrize("kind,n,m,theta", NEWTON_CASES)
    def test_any_positive_form_encloses_eta(self, kind, n, m, theta):
        # far from the eigenform too: weights spread over four decades
        s = newton_case(kind, n, m, theta)
        eta = solve_eigenform(s).eta
        rng = np.random.default_rng(17)
        nb = len(s.boundary)
        for _ in range(20):
            w = np.triu(np.exp(rng.uniform(-4.6, 4.6, (nb, nb))), 1)
            w = w + w.T
            lower, upper = renorm._eta_bounds(s.scheme, w, s.scheme.T(w))
            assert lower <= eta <= upper

    def test_no_enclosure_without_positive_ratios(self):
        s = ms(2, 1, "1/12")
        unit = 1.0 - np.eye(len(s.boundary))
        traced = s.scheme.T(unit)
        assert renorm._eta_bounds(s.scheme, unit, traced) is not None
        w, t = unit.copy(), traced.copy()
        w[0, 1] = w[1, 0] = t[0, 1] = t[1, 0] = 0.0
        assert renorm._eta_bounds(s.scheme, w, traced) is None  # r = inf
        assert renorm._eta_bounds(s.scheme, unit, t) is None  # r = 0

    def test_collapsed_gd_run_has_no_enclosure(self):
        # the none regime: the exploratory iterate collapses the four
        # cross pairs
        hs = gd_solve(cell_graph(5, 5))
        assert hs.existence == "none" and hs.eta_bounds is None
        assert {frozenset(p) for p in hs.diagnostics["collapsed_pairs"]} \
            == {frozenset(p) for p in [("p0", "p1"), ("p0", "q1"),
                                       ("q0", "p1"), ("q0", "q1")]}


class TestVerify:
    # the checks block of a harmonic report: the solve's own residual and
    # mass, and the exact count of level-2 copy defects

    @staticmethod
    def results(s):
        return harmonic_results(s, {"max_iter": renorm.DEFAULT_MAX_ITER},
                                renorm.DEFAULT_TOL)[0]

    def test_solved_structure_passes(self):
        checks = self.results(ms(2, 1, "1/6"))["checks"]
        assert checks["ok"] is True
        assert checks["eigen_residual"]["value"] <= 1e-10
        assert checks["copy_consistency"] == {"value": 0.0, "tol": 0.0}

    @pytest.mark.parametrize("theta", ["1/6", "1/12"])
    def test_report_traces_the_solved_form_once(self, monkeypatch, theta):
        # the checks restate the solve's residual: one trace per iterate
        # and one of the start, none more
        s = ms(2, 1, theta)
        calls = []
        real = GluingScheme.harmonic

        def counted(self, w):
            calls.append(w)
            return real(self, w)

        monkeypatch.setattr(GluingScheme, "harmonic", counted)
        iterations = self.results(s)["harmonic"]["iterations"]
        assert len(calls) == iterations + 1

    def test_solve_residual_is_the_form_s_own(self):
        # the report states hs.residual as the eigen residual of hs.form:
        # an independent trace of the returned form gives the same bits
        contexts = valid_contexts(SWEEP_FAMILIES, 60, 12)
        assert len(contexts) == 104
        for n, m, theta in contexts:
            s = ms(n, m, theta)
            hs = solve_eigenform(s)
            assert s.scheme.residual(_boundary_matrix(s, hs.form),
                                     hs.eta) == hs.residual, (n, m, theta)

    def test_perturbation_detected(self, tmp_path):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        vs = s.boundary
        bumped = ConductanceForm.from_edges(
            vs, [(x, y, w * (1.01 if (x, y) == (vs[0], vs[1]) else 1.0))
                 for x, y, w in hs.form.pairs()])
        defect = s.scheme.residual(_boundary_matrix(s, bumped), hs.eta)
        assert 1e-3 <= defect <= 1e-1
        path = tmp_path / "h.json"
        assert main(["solve", "--n", "2", "--m", "1", "--theta", "1/6",
                     "--out", str(path)]) == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        report["results"]["harmonic"]["form"] = form_to_json(bumped)
        path.write_text(json.dumps(report), encoding="utf-8")
        assert any("residual" in line
                   for line in validate_report_details(str(path)))

    def test_rescaled_fixed_point_unchanged(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        once = hs.eta * s.scheme.T(as_weight_array(s, hs.form))
        assert s.scheme.residual(once, hs.eta) <= renorm.DEFAULT_TOL

    @pytest.mark.parametrize("n,m,theta", [
        (2, 1, "1/12"), (2, 1, "1/192"), (3, 1, "1/9"), (3, 2, "1/15"),
        (2, 2, "3/16")])
    def test_exact_check_agrees_with_dense_level_2(self, n, m, theta):
        s = ms(n, m, theta)
        hs = solve_eigenform(s)
        assert _copy_defects(s.scheme, level_vertices(s, 2)) == 0
        assert dense_copy_consistency(
            s, _boundary_matrix(s, hs.form)) <= 1e-9

    def test_level_two_glues_the_structure_s_level_one(self, monkeypatch):
        s = ms(2, 1, "1/12")
        s.scheme  # built before counting
        glued = []
        real = structure._next_level

        def counted(structure_, prev, boundary):
            glued.append(prev)
            return real(structure_, prev, boundary)

        monkeypatch.setattr(structure, "_next_level", counted)
        assert self.results(s)["checks"]["ok"]
        assert len(glued) == 1 and glued[0] is s.scheme

    @staticmethod
    def corrupted_defects(corrupt):
        # the defects of a level 2 whose rows corrupt(rows) rewrites
        s = ms(2, 1, "1/12")
        level2 = level_vertices(s, 2)
        rows = [list(row) for row in level2.rows]
        corrupt(rows, s.scheme.marked, level2.marked)
        bad = GluingScheme(tuple(map(tuple, rows)), level2.marked,
                           level2.num_ids)
        return _copy_defects(s.scheme, bad)

    def test_misplaced_copy_detected(self):
        def swap(rows, marked1, marked2):
            # copy 0 takes two boundary images in the wrong order
            a, b = marked1[0], marked1[1]
            rows[0][a], rows[0][b] = rows[0][b], rows[0][a]

        assert self.corrupted_defects(swap) == 2

    def test_shared_interior_id_detected(self):
        def share(rows, marked1, marked2):
            # copy 1 takes an interior id of copy 0 in place of its own
            own = [u for u in range(len(rows[1]))
                   if u not in marked1 and rows[1][u] not in marked2]
            other = [x for x in rows[0] if x not in marked2]
            rows[1][own[0]] = other[0]

        # one id now lies in two copies and the one it replaced in none
        assert self.corrupted_defects(share) == 2


def restrict(structure, hs, subset):
    """The trace kernel on the eigenform onto a subset of boundary angles."""
    nb = len(structure.boundary)
    scheme = GluingScheme((tuple(range(nb)),),
                          tuple(structure.index[a] for a in subset), nb)
    return ConductanceForm.from_matrix(
        tuple(subset), scheme.T(_boundary_matrix(structure, hs.form)))


class TestRestrict:
    def test_full_boundary_is_identity(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        back = restrict(s, hs, s.boundary)
        assert np.allclose(as_weight_array(s, back),
                           as_weight_array(s, hs.form), atol=1e-12)

    def test_two_points_give_resistance(self):
        s = ms(2, 1, "1/6")
        hs = solve_eigenform(s)
        p, q = s.boundary[0], s.boundary[1]
        two = restrict(s, hs, (p, q))
        assert two.weight(p, q) == pytest.approx(
            1.0 / resistance_matrix(hs.form, (p, q))[0, 1])

    def test_3_2_2_15_triangle_weights(self):
        s = ms(3, 2, "2/15")
        hs = solve_eigenform(s)
        pts = tuple(Angle.from_fraction(f, s.ctx.modulus)
                    for f in (Fraction(0), Fraction(2, 5), Fraction(4, 5)))
        tri = restrict(s, hs, pts)
        got = np.array([tri.weight(pts[0], pts[1]),
                        tri.weight(pts[0], pts[2]),
                        tri.weight(pts[1], pts[2])])
        want = np.array(restriction_weights(3, 2, 2))
        scale = got[2] / want[2]
        assert np.allclose(got, scale * want, atol=1e-8 * scale)
