"""Resistance forms: energy, trace, extension, resistance, flows.

Traces and extensions are the two halves of the package's matrix kernel,
_harmonic_split, read back as forms and values by the adapters below.
"""

from fractions import Fraction

import numpy as np
import pytest

from fractal_renorm import (
    ConductanceForm, DisconnectedError, build_structure, enumerate_preserved,
    make_context, networks, resistance_matrix, solve_eigenform,
)
from fractal_renorm.networks import (INVERSE_COND_BOUND, _harmonic_split,
                                     _interior_inverse, _laplacian,
                                     _split_ids, _support_labels)
from fractal_renorm.relations import _block_traces
from fractal_renorm.renorm import _boundary_matrix
from _oracles import (energy, pinv_schur_trace, relaxed_trace_weights,
                      support_components)


def kernel(form, boundary):
    """_harmonic_split of the form's matrix onto boundary: (trace, X)."""
    split = _split_ids(len(form.vertices), [form.index[v] for v in boundary])
    return _harmonic_split(form.matrix(), split)


def trace(form, boundary):
    """The trace half of the kernel, as a form."""
    return ConductanceForm.from_matrix(tuple(boundary),
                                       kernel(form, boundary)[0])


def extension(form, boundary, data):
    """X @ data for the kernel's extension X, as a value per vertex."""
    values = kernel(form, boundary)[1] @ np.array([data[v] for v in boundary])
    return dict(zip(form.vertices, values.tolist()))


def flows(form, h):
    """Net current out of each vertex, _laplacian(form.matrix()) @ h."""
    values = np.array([h[v] for v in form.vertices], dtype=float)
    return dict(zip(form.vertices,
                    (_laplacian(form.matrix()) @ values).tolist()))


def unit_triangle():
    return ConductanceForm.from_edges(
        "abc", [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)])


def gasket_level1():
    """Two-level triangle: corners a,b,c and edge midpoints ab,bc,ca."""
    edges = [("a", "ab", 1.0), ("a", "ca", 1.0), ("b", "ab", 1.0),
             ("b", "bc", 1.0), ("c", "bc", 1.0), ("c", "ca", 1.0),
             ("ab", "bc", 1.0), ("bc", "ca", 1.0), ("ab", "ca", 1.0)]
    return ConductanceForm.from_edges(["a", "b", "c", "ab", "bc", "ca"], edges)


def random_form(rng, nv, zero_fraction=0.0):
    vertices = list(range(nv))
    edges = []
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < zero_fraction:
                continue
            edges.append((i, j, float(rng.uniform(0.1, 2.0))))
    return ConductanceForm.from_edges(vertices, edges)


class TestForm:
    def test_duplicate_edges_accumulate(self):
        f = ConductanceForm.from_edges("ab", [("a", "b", 1.0), ("b", "a", 2.0)])
        assert f.weight("a", "b") == pytest.approx(3.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ConductanceForm.from_edges("ab", [("a", "b", -1.0)])

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            ConductanceForm.from_edges("ab", [("a", "a", 1.0)])

    def test_nan_weight_is_an_absent_pair(self):
        f = ConductanceForm.from_edges("ab", [("a", "b", float("nan"))])
        assert list(f.pairs()) == [] and f.weight("a", "b") == 0.0

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="not a listed vertex"):
            ConductanceForm.from_edges("ab", [("a", "c", 1.0)])

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConductanceForm.from_edges("aba", [("a", "b", 1.0)])

    def test_matrix_is_read_only(self):
        mat = unit_triangle().matrix()
        with pytest.raises(ValueError):
            mat[0, 1] = 2.0

    def test_from_matrix_keeps_no_diagonal(self):
        f = ConductanceForm.from_matrix("ab", [[5.0, 1.0], [3.0, np.nan]])
        assert f.matrix().tolist() == [[0.0, 2.0], [2.0, 0.0]]
        assert f.mass() == 2.0

    def test_matrix_round_trip(self):
        f = unit_triangle()
        g = ConductanceForm.from_matrix(tuple(f.vertices), f.matrix())
        assert np.array_equal(g.matrix(), f.matrix())
        assert list(g.pairs()) == list(f.pairs())

    def test_from_matrix_matches_pair_loop(self):
        # symmetrized upper-triangle weights, positive ones only, in
        # row-major order, whatever the input's asymmetry or sign
        rng = np.random.default_rng(13)
        for nv in (1, 2, 5, 12):
            mat = rng.uniform(-0.5, 2.0, (nv, nv))
            mat[rng.random((nv, nv)) < 0.3] = 0.0
            want = []
            for i in range(nv):
                for j in range(i + 1, nv):
                    w = 0.5 * (mat[i, j] + mat[j, i])
                    if w > 0.0:
                        want.append((i, j, w))
            got = ConductanceForm.from_matrix(tuple(range(nv)), mat)
            assert list(got.pairs()) == want

    def test_support_components(self):
        f = ConductanceForm.from_edges(
            "abcd", [("a", "b", 1.0), ("c", "d", 0.0)])
        labels = _support_labels(f.matrix()).tolist()
        comps = {frozenset(v for v, c in zip(f.vertices, labels) if c == label)
                 for label in labels}
        assert comps == {frozenset("ab"), frozenset("c"), frozenset("d")}

    def test_support_labels_match_oracle(self):
        # each vertex is labelled by the least index of its component
        rng = np.random.default_rng(19)
        for nv in (1, 4, 9, 16):
            for density in (0.05, 0.15, 0.4):
                w = np.triu(rng.random((nv, nv)) < density, 1) * 1.0
                w = w + w.T
                labels = _support_labels(w).tolist()
                got = {frozenset(i for i, c in enumerate(labels) if c == label)
                       for label in labels}
                assert got == support_components(range(nv), w)
                assert all(labels[i] == min(c) for c in got for i in c)


class TestEnergy:
    def test_unit_triangle_indicator(self):
        assert energy(unit_triangle(), {"a": 1, "b": 0, "c": 0}) \
            == pytest.approx(2.0)

    def test_constant_is_zero(self):
        assert energy(unit_triangle(), {"a": 5, "b": 5, "c": 5}) == 0.0

    def test_single_edge(self):
        f = ConductanceForm.from_edges("xy", [("x", "y", 3.0)])
        assert energy(f, {"x": 2, "y": 0}) == pytest.approx(12.0)

    def test_bilinear_polarization(self):
        rng = np.random.default_rng(7)
        f = random_form(rng, 5)
        u = {v: float(rng.standard_normal()) for v in f.vertices}
        w = {v: float(rng.standard_normal()) for v in f.vertices}
        upw = {v: u[v] + w[v] for v in f.vertices}
        pair = energy(f, u, w)
        assert pair == pytest.approx(
            (energy(f, upw) - energy(f, u) - energy(f, w)) / 2.0)

    def test_missing_value_rejected(self):
        with pytest.raises(KeyError):
            energy(unit_triangle(), {"a": 1, "b": 0})


class TestTrace:
    def test_series_law(self):
        path = ConductanceForm.from_edges(
            "xzy", [("x", "z", 1.0), ("z", "y", 1.0)])
        t = trace(path, ("x", "y"))
        assert t.weight("x", "y") == pytest.approx(0.5)

    def test_star_mesh(self):
        star = ConductanceForm.from_edges(
            "cxyz", [("c", "x", 3.0), ("c", "y", 3.0), ("c", "z", 3.0)])
        t = trace(star, ("x", "y", "z"))
        for p, q in [("x", "y"), ("y", "z"), ("x", "z")]:
            assert t.weight(p, q) == pytest.approx(1.0)

    def test_gasket_reduction(self):
        t = trace(gasket_level1(), ("a", "b", "c"))
        for p, q in [("a", "b"), ("b", "c"), ("a", "c")]:
            assert t.weight(p, q) == pytest.approx(0.6)

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_form(rng, 7, zero_fraction=0.3)
            big = trace(f, tuple(range(5)))
            small_direct = trace(f, tuple(range(3)))
            small_nested = trace(big, tuple(range(3)))
            for x, y, w in small_direct.pairs():
                assert small_nested.weight(x, y) == pytest.approx(w, abs=1e-11)

    def test_markov_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_form(rng, 6, zero_fraction=0.4)
            t = trace(f, tuple(range(3)))
            for _, _, w in t.pairs():
                assert w >= 0.0

    def test_energy_identity_with_extension(self):
        rng = np.random.default_rng(5)
        f = random_form(rng, 6)
        boundary = (0, 1, 2)
        data = {0: 1.0, 1: -0.5, 2: 0.25}
        assert energy(f, extension(f, boundary, data)) == pytest.approx(
            energy(trace(f, boundary), data))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2024)
        for nv in (4, 5, 6):
            for _ in range(4):
                f = random_form(rng, nv, zero_fraction=0.2)
                boundary = tuple(range(3))
                t = trace(f, boundary)
                expected = relaxed_trace_weights(
                    list(f.vertices),
                    {frozenset({x, y}): w for x, y, w in f.pairs()},
                    boundary)
                scale = max(w for w in expected.values())
                for (x, y), w in expected.items():
                    assert abs(t.weight(x, y) - w) <= 1e-8 * max(scale, 1.0)

    def test_degenerate_interior_handled(self):
        # interior vertex attached by zero weight only; least squares rules
        f = ConductanceForm.from_edges(
            "xyz", [("x", "y", 1.0), ("y", "z", 0.0)])
        t = trace(f, ("x", "y"))
        assert t.weight("x", "y") == pytest.approx(1.0)


@pytest.fixture
def pinv_calls(monkeypatch):
    """Shapes of the blocks passed to the pseudo-inverse fallback."""
    calls = []
    original = networks._psd_pinv

    def counted(mat):
        calls.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(networks, "_psd_pinv", counted)
    return calls


def connected_weights(rng, nv, zero_fraction=0.3):
    """Random symmetric weights with a path through all vertices."""
    w = rng.uniform(0.1, 2.0, (nv, nv))
    w[rng.random((nv, nv)) < zero_fraction] = 0.0
    w = np.triu(w, 1)
    w[np.arange(nv - 1), np.arange(1, nv)] += 0.5
    return w + w.T


def assert_matches_oracle(matrix, boundary):
    got = _harmonic_split(matrix, _split_ids(len(matrix), boundary))[0]
    want = pinv_schur_trace(matrix, boundary)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestTraceKernel:
    def test_direct_inverse_matches_pseudo_inverse(self, pinv_calls):
        rng = np.random.default_rng(41)
        for nv in range(3, 40, 3):
            for _ in range(4):
                nb = int(rng.integers(2, nv))
                boundary = [int(v) for v in rng.permutation(nv)[:nb]]
                assert_matches_oracle(connected_weights(rng, nv), boundary)
        assert pinv_calls == []

    @pytest.mark.parametrize("nv,edges", [
        # vertices 3 and 4 form a component that touches no boundary
        (5, [(0, 2, 1.0), (1, 2, 2.0), (3, 4, 1.5)]),
        # interior vertex 4 has no edge at all
        (5, [(0, 2, 1.0), (2, 3, 0.5), (1, 3, 2.0)]),
        # two interior pieces, one of them floating
        (6, [(0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 2.0),
             (3, 5, 1.0)]),
    ], ids=["floating", "isolated", "split"])
    def test_singular_interior_falls_back(self, nv, edges, pinv_calls):
        w = np.zeros((nv, nv))
        for i, j, x in edges:
            w[i, j] = w[j, i] = x
        assert_matches_oracle(w, [0, 1])
        assert len(pinv_calls) == 1

    def test_relation_cone_step_falls_back(self, pinv_calls):
        s = build_structure(make_context(2, 1, Fraction(1, 12)))
        hs = solve_eigenform(s)
        rel = next(r for r in enumerate_preserved(s, True)
                   if not r.is_trivial)
        w = _block_traces(s, _boundary_matrix(s, hs.form), rel)
        pinv_calls.clear()
        got = s.scheme.T(w)
        assert pinv_calls
        want = pinv_schur_trace(s.scheme.assemble(w), s.scheme.marked)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_ill_conditioned_interior_trips_guard(self, pinv_calls):
        # eps - 1 - eps in series between the boundary vertices 0 and 1
        eps = 1e-7
        w = np.zeros((4, 4))
        w[0, 2] = w[2, 0] = w[1, 3] = w[3, 1] = eps
        w[2, 3] = w[3, 2] = 1.0
        lii = (np.diag(w.sum(axis=1)) - w)[2:, 2:]
        assert np.linalg.cond(lii) > INVERSE_COND_BOUND
        _interior_inverse(lii)
        assert pinv_calls == [(2, 2)]
        assert_matches_oracle(w, [0, 1])
        got = _harmonic_split(w, _split_ids(4, [0, 1]))[0][0, 1]
        assert got == pytest.approx(1.0 / (2.0 / eps + 1.0), rel=1e-9)

    def test_eigenform_solve_takes_no_pseudo_inverse(self, pinv_calls):
        s = build_structure(make_context(2, 1, Fraction(1, 192)))
        assert solve_eigenform(s).iterations > 0
        assert pinv_calls == []


class TestHarmonicExtension:
    def test_gasket_midpoints(self):
        ext = extension(gasket_level1(), ("a", "b", "c"),
                        {"a": 1.0, "b": 0.0, "c": 0.0})
        assert ext["ab"] == pytest.approx(0.4)
        assert ext["ca"] == pytest.approx(0.4)
        assert ext["bc"] == pytest.approx(0.2)

    def test_constant_data(self):
        ext = extension(gasket_level1(), ("a", "b", "c"),
                        {"a": 2.0, "b": 2.0, "c": 2.0})
        assert all(v == pytest.approx(2.0) for v in ext.values())

    def test_series_midpoint(self):
        path = ConductanceForm.from_edges(
            "xzy", [("x", "z", 1.0), ("z", "y", 1.0)])
        ext = extension(path, ("x", "y"), {"x": 0.0, "y": 1.0})
        assert ext["z"] == pytest.approx(0.5)

    def test_floating_component_flagged(self, pinv_calls):
        # {c, d} touches no boundary vertex: its interior block is singular
        # and the pseudo-inverse leaves it at 0
        f = ConductanceForm.from_edges(
            "abcd", [("a", "b", 1.0), ("c", "d", 1.0)])
        ext = extension(f, ("a", "b"), {"a": 0.0, "b": 1.0})
        assert pinv_calls == [(2, 2)]
        assert ext["c"] == 0.0 and ext["d"] == 0.0

    def test_two_dimensional_data_extends_columnwise(self):
        # X extends the boundary basis, so X @ data extends each column
        f = gasket_level1()
        ext = _harmonic_split(f.matrix(), _split_ids(6, [0, 1, 2]))[1]
        assert np.array_equal(ext[:3], np.eye(3))
        data = np.array([[1.0, 2.0], [0.0, 2.0], [0.0, 2.0]])
        both = ext @ data
        assert np.array_equal(both[:3], data)
        # midpoints ab, bc, ca of the two data sets
        assert both[3:, 0].tolist() == pytest.approx([0.4, 0.2, 0.4])
        assert both[3:, 1].tolist() == pytest.approx([2.0] * 3)

    def test_interior_vertices_have_zero_flow(self):
        rng = np.random.default_rng(9)
        f = random_form(rng, 6)
        boundary = (0, 1)
        fl = flows(f, extension(f, boundary, {0: 0.0, 1: 1.0}))
        for v in f.vertices:
            if v not in boundary:
                assert abs(fl[v]) < 1e-10


def pair_resistance(form, p, q):
    """1 over the conductance of the pinv_schur_trace of the form onto p, q."""
    traced = pinv_schur_trace(form.matrix(), [form.index[p], form.index[q]])
    return 1.0 / traced[0, 1]


class TestEffectiveResistance:
    def test_unit_triangle(self):
        mat = resistance_matrix(unit_triangle(), tuple("abc"))
        for i, j in [(0, 1), (1, 2), (0, 2)]:
            assert mat[i, j] == pytest.approx(2.0 / 3.0)

    def test_single_edge(self):
        f = ConductanceForm.from_edges("xy", [("x", "y", 4.0)])
        assert resistance_matrix(f, ("x", "y"))[0, 1] == pytest.approx(0.25)

    def test_series(self):
        path = ConductanceForm.from_edges(
            "xzy", [("x", "z", 1.0), ("z", "y", 1.0)])
        assert resistance_matrix(path, ("x", "y"))[0, 1] == \
            pytest.approx(2.0)

    def test_disconnected(self):
        f = ConductanceForm.from_edges(
            "abcd", [("a", "b", 1.0), ("c", "d", 1.0)])
        with pytest.raises(DisconnectedError):
            resistance_matrix(f, ("a", "c"))

    def test_metric_axioms(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            f = random_form(rng, 6)
            vs = list(f.vertices)
            mat = resistance_matrix(f, vs)
            r = {(p, q): mat[i, j]
                 for i, p in enumerate(vs) for j, q in enumerate(vs) if i < j}
            for (p, q), v in r.items():
                assert v > 0
                assert v == pytest.approx(mat[vs.index(q), vs.index(p)])
            for i, p in enumerate(vs):
                for j, q in enumerate(vs[i + 1:], start=i + 1):
                    for s in vs[j + 1:]:
                        dpq = r[(p, q)]
                        dqs = r[(q, s)]
                        dps = r[(p, s)]
                        assert dps <= dpq + dqs + 1e-10

    def test_matrix_agrees_with_pairs(self):
        rng = np.random.default_rng(23)
        f = random_form(rng, 5)
        vs = tuple(f.vertices)
        mat = resistance_matrix(f, vs)
        for i, p in enumerate(vs):
            assert mat[i][i] == pytest.approx(0.0, abs=1e-12)
            for j, q in enumerate(vs):
                if i < j:
                    assert mat[i][j] == pytest.approx(
                        pair_resistance(f, p, q))
                    assert mat[i][j] == pytest.approx(mat[j][i])


class TestFlows:
    def test_unit_triangle_indicator(self):
        fl = flows(unit_triangle(), {"a": 1.0, "b": 0.0, "c": 0.0})
        assert fl["a"] == pytest.approx(2.0)
        assert fl["b"] == pytest.approx(-1.0)
        assert fl["c"] == pytest.approx(-1.0)
        assert sum(fl.values()) == pytest.approx(0.0)

    def test_constant(self):
        fl = flows(unit_triangle(), {"a": 3.0, "b": 3.0, "c": 3.0})
        assert all(v == 0.0 for v in fl.values())

    def test_series_harmonic(self):
        path = ConductanceForm.from_edges(
            "xzy", [("x", "z", 1.0), ("z", "y", 1.0)])
        fl = flows(path, {"x": 0.0, "z": 0.5, "y": 1.0})
        assert fl["x"] == pytest.approx(-0.5)
        assert fl["z"] == pytest.approx(0.0)
        assert fl["y"] == pytest.approx(0.5)

    def test_pairing_with_indicator(self):
        rng = np.random.default_rng(31)
        f = random_form(rng, 5)
        h = {v: float(rng.standard_normal()) for v in f.vertices}
        fl = flows(f, h)
        for v in f.vertices:
            ind = {u: 1.0 if u == v else 0.0 for u in f.vertices}
            assert fl[v] == pytest.approx(energy(f, h, ind))
