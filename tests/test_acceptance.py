"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints the measured values next to the demanded tolerances, so a
verbose run doubles as a numeric report.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from fractal_renorm import (
    Angle, GluingScheme, Partition, RELATION_PQ, RELATION_SIDES,
    build_J_plus_minus, build_gd_structure, build_structure, cell_graph,
    enumerate_preserved, existence_verdict, gd_solve, is_preserved,
    level_vertices, make_context, per_cell_flows, rho_search,
    sabot_verdict, solve_eigenform, uniqueness_certificate,
)
from fractal_renorm.relations import (DEFAULT_ENUM_CAP, RATIO_TOL,
                                      _block_traces, _ratio_bounds, _side)
from fractal_renorm.renorm import _boundary_matrix

from _oracles import (block_cycle_form, block_star_form, circle_distance,
                      family_eta, restriction_weights, gd_eta_m1,
                      gd_rho_values, phi_n, quotient_weights,
                      relaxed_trace_weights, valid_contexts)


def ms(n, m, theta, symmetrize=None):
    return build_structure(make_context(n, m, Fraction(theta)), symmetrize)


def trace(w, boundary):
    """The trace kernel onto the listed indices of a weight matrix, by a
    one-copy scheme whose marked ids are those indices."""
    return GluingScheme((tuple(range(len(w))),), tuple(boundary),
                        len(w)).T(w)


def side_ratios(structure, relation, side, w):
    """Extreme ratios of one step of a side's operator against w."""
    plan = _side(structure, relation, side)
    return _ratio_bounds(plan.op(w), w, plan.comp)


def boundary_angle(structure, fraction):
    for a in structure.boundary:
        if a.as_fraction() == Fraction(fraction):
            return a
    raise AssertionError(f"{fraction} not on the boundary")


def test_01_gasket_eta_and_equal_weights():
    hs = solve_eigenform(ms(2, 1, "1/6"))
    weights = sorted(w for _, _, w in hs.form.pairs())
    print(f"gasket eta = {hs.eta!r} (want 5/3 +- 1e-9), "
          f"weight spread = {weights[-1] - weights[0]:.3e}")
    assert hs.eta == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert len(weights) == 3
    assert weights[-1] - weights[0] <= 1e-9


def test_02_family_eta_and_triangle_weights():
    cases = [(2, 1, 1), (2, 3, 1), (3, 2, 2), (3, 1, 1), (3, 1, 2)]
    for n, m, l in cases:
        theta = Fraction(l, n * (m + n))
        s = ms(n, m, theta)
        hs = solve_eigenform(s)
        expected_eta = family_eta(n, m, l)
        print(f"(n={n}, m={m}, l={l}): eta = {hs.eta!r} "
              f"(want {expected_eta!r} +- 1e-9)")
        assert hs.eta == pytest.approx(expected_eta, abs=1e-9)

        corners = [s.index[boundary_angle(s, f)]
                   for f in (Fraction(0), Fraction(l, m + n),
                             Fraction(m + l, m + n))]
        tri = trace(_boundary_matrix(s, hs.form), corners)
        got = np.array([tri[0, 1], tri[0, 2], tri[1, 2]])
        want = np.array(restriction_weights(n, m, l), dtype=float)
        scale = got[2] / want[2]
        err = np.abs(got / scale - want).max()
        print(f"  triangle weights/scale = {list(got / scale)} "
              f"(want {list(want)}), max err = {err:.3e}")
        assert err <= 1e-8


def test_03_eta_inverse_and_halving_relation():
    s = ms(2, 1, "1/12")
    hs = solve_eigenform(s)
    print(f"eta_inverse = {1.0 / hs.eta!r} (want 0.64735 +- 1e-5)")
    assert 1.0 / hs.eta == pytest.approx(0.64735, abs=1e-5)

    opposite = Partition.from_blocks(
        [[boundary_angle(s, f), boundary_angle(s, f + Fraction(1, 2))]
         for f in (Fraction(0), Fraction(1, 6), Fraction(1, 3))])
    assert is_preserved(s, opposite, require_g=True)
    assert opposite in enumerate_preserved(s, require_g=True)

    dj = _block_traces(s, _boundary_matrix(s, hs.form), opposite)
    lo, hi = side_ratios(s, opposite, "relation", dj)
    print(f"stationary ratios of the halving relation: ({lo!r}, {hi!r}) "
          f"(want 1/2 +- 1e-9)")
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(0.5, abs=1e-9)


def test_04_no_nontrivial_relations_at_m_ge_2():
    for n, m, theta in [(2, 2, "3/16"), (2, 3, "1/10")]:
        s = ms(n, m, theta, symmetrize=True)
        found = enumerate_preserved(s, require_g=True)
        nontrivial = [p for p in found if not p.is_trivial]
        print(f"(n={n}, m={m}, theta={theta}): "
              f"{len(found)} preserved, {len(nontrivial)} nontrivial "
              f"(want 0 nontrivial)")
        assert nontrivial == []


def test_05_candidate_relations_and_constructed_form_bounds():
    for n in (2, 3):
        s = ms(n, 1, "1/12")
        plus, minus = build_J_plus_minus(s)
        candidates = {plus, minus}
        nontrivial = [p for p in enumerate_preserved(s, require_g=True)
                      if not p.is_trivial]
        print(f"(n={n}, m=1, theta=1/12): nontrivial G-relations = "
              f"{len(nontrivial)}, all from candidates: "
              f"{all(p in candidates for p in nontrivial)}")
        assert all(p in candidates for p in nontrivial)

        for rel in nontrivial:
            star = _boundary_matrix(s, block_star_form(s, rel))
            _, hi = side_ratios(s, rel, "relation", star)
            cycle = block_cycle_form(s, rel).matrix()
            lo, _ = side_ratios(s, rel, "quotient", cycle)
            print(f"  star max ratio = {hi!r} (want <= 1 + 1e-10), "
                  f"cycle min ratio = {lo!r} "
                  f"(want >= 1 + 1/{n} - 1e-10)")
            assert hi <= 1.0 + 1e-10
            assert lo >= 1.0 + 1.0 / n - 1e-10
    # the n=2 instance must actually exercise the bounds
    s2 = ms(2, 1, "1/12")
    assert any(not p.is_trivial
               for p in enumerate_preserved(s2, require_g=True))


def test_06_uniqueness_certificates_all_partitions():
    s = ms(2, 1, "1/12")
    hs = solve_eigenform(s)
    everything = enumerate_preserved(s)
    nontrivial = [p for p in everything if not p.is_trivial]
    print(f"full enumeration: {len(nontrivial)} nontrivial preserved "
          f"relations out of 203 partitions")
    assert nontrivial
    for rel in nontrivial:
        cert = uniqueness_certificate(s, hs, rel, k_max=8)
        final = cert.trajectory[cert.k - 1]
        print(f"  blocks={rel.block_count()}: k={cert.k}, "
              f"final={final!r} (want < 1 - 1e-6), "
              f"monotone={cert.monotone}")
        assert cert.certified
        assert cert.k <= 8
        assert final < 1.0 - 1e-6
        assert cert.monotone


def test_07_graph_directed_model():
    for n in range(2, 7):
        for m in range(1, 7):
            assert build_gd_structure(n, m).num_vertices == 2 * (m + n) ** 2
            crit = Fraction(1, m) + Fraction(1, n) - Fraction(1, 2)
            expected = ("exists_unique" if crit > 0
                        else "critical_undetermined" if crit == 0
                        else "none")
            assert existence_verdict(n, m) == expected
    assert existence_verdict(3, 6) == "critical_undetermined"
    assert existence_verdict(6, 3) == "critical_undetermined"
    assert existence_verdict(4, 4) == "critical_undetermined"

    for n in (2, 3, 4, 5):
        hs = gd_solve(cell_graph(n, 1))
        print(f"gd (n={n}, m=1): eta = {hs.eta!r} "
              f"(want {gd_eta_m1(n)!r} +- 1e-9)")
        assert hs.eta == pytest.approx(gd_eta_m1(n), abs=1e-9)

    for n, m in [(2, 1), (3, 2), (2, 3)]:
        cell = cell_graph(n, m)
        got = [rho_search(cell, relation, side).rho_over
               for relation in (RELATION_PQ, RELATION_SIDES)
               for side in ("relation", "quotient")]
        want = gd_rho_values(n, m)
        print(f"gd rhos (n={n}, m={m}): {[f'{v:.4f}' for v in got]} "
              f"(want {[f'{v:.4f}' for v in want]} +- {RATIO_TOL})")
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=RATIO_TOL)


def test_08_property_suites():
    rng = np.random.default_rng(2024)

    # trace idempotence and the Markov property on random networks
    for trial in range(8):
        nv = int(rng.integers(5, 8))
        verts = list(range(nv))
        w = np.zeros((nv, nv))
        for i, j in combinations(verts, 2):
            w[i, j] = w[j, i] = float(rng.uniform(0.1, 2.0))
        nested = trace(trace(w, verts[:4]), verts[:3])
        direct = trace(w, verts[:3])
        assert np.abs(nested - direct).max() <= 1e-10
        assert direct.min() >= 0.0

    # brute-force trace oracle on small instances
    worst = 0.0
    for nv in (4, 5, 6):
        for _ in range(3):
            verts = list(range(nv))
            edges = [(i, j, float(rng.uniform(0.2, 3.0)))
                     for i, j in combinations(verts, 2)]
            w = np.zeros((nv, nv))
            for i, j, x in edges:
                w[i, j] = w[j, i] = x
            boundary = verts[:3]
            got = trace(w, boundary)
            want = relaxed_trace_weights(
                verts, {frozenset((i, j)): w for i, j, w in edges}, boundary)
            scale = max(abs(w) for w in want.values())
            for x, y in combinations(boundary, 2):
                err = abs(got[x, y] - want[frozenset((x, y))])
                worst = max(worst, err / scale)
    print(f"trace vs relaxation oracle: worst relative error = {worst:.3e} "
          f"(want <= 1e-8)")
    assert worst <= 1e-8

    # flow properties on 100 random harmonic functions
    structures = [ms(2, 1, "1/12"), ms(2, 2, "3/16"), ms(3, 2, "2/15")]
    solved = [(s, solve_eigenform(s)) for s in structures]
    worst_defect = 0.0
    for trial in range(100):
        s, hs = solved[trial % len(solved)]
        report = per_cell_flows(s, hs, rng.standard_normal(len(s.boundary)))
        worst_defect = max(worst_defect, report.conservation_defect,
                           report.matching_defect, report.scaling_defect)
    print(f"flow conservation/matching/scaling over 100 harmonics: "
          f"worst defect = {worst_defect:.3e} (want <= 1e-9)")
    assert worst_defect <= 1e-9

    # refined vertex count across 20 valid parameter choices
    contexts = []
    for n in (2, 3, 4, 5):
        for m in (1, 2, 3):
            for l in range(1, n):
                contexts.append((n, m, Fraction(l, n * (m + n))))
    checked = 0
    for n, m, theta in contexts:
        if checked == 20:
            break
        s = ms(n, m, theta)
        lv1 = level_vertices(s, 1)
        assert lv1.num_ids == (m + n) * (len(s.boundary) - 1)
        checked += 1
    print(f"refined vertex count formula checked on {checked} contexts "
          f"(want 20)")
    assert checked == 20

    # exact distance-doubling identity for every residue class
    checked_pairs = 0
    for modulus in range(2, 241):
        zero = Angle(0, modulus)
        for k in range(1, modulus):
            x = Angle(k, modulus)
            d = circle_distance(x, zero)
            for n in range(2, 7):
                if d < Fraction(1, n):
                    image = circle_distance(phi_n(x, n), phi_n(zero, n))
                    assert image == min(n * d, 1 - n * d)
                    checked_pairs += 1
    print(f"distance-doubling identity verified on {checked_pairs} "
          f"residue classes at modulus <= 240")
    assert checked_pairs > 0

    # quotient ratios dominate the inverse eigenvalue
    s = ms(2, 1, "1/12")
    hs = solve_eigenform(s)
    bound = 1.0 / hs.eta - 1e-9
    w = _boundary_matrix(s, hs.form)
    for rel in enumerate_preserved(s):
        if rel.block_count() < 2:
            continue
        q = quotient_weights(rel, s.boundary, w)
        lo, _ = side_ratios(s, rel, "quotient", q)
        assert lo >= bound
    print(f"quotient ratio lower bound {bound!r} holds for every "
          f"preserved relation")


def test_09_g_verdict_table():
    # the paper's theorem over every valid theta with q <= 40 and at most
    # 9 boundary points: each G-verdict is an exists-unique verdict
    table = {}
    for n, m, theta in valid_contexts([(2, 1), (3, 1), (2, 2), (3, 2)], 40,
                                      9):
        s = ms(n, m, theta)
        verdict = sabot_verdict(
            s, enumerate_preserved(s, require_g=True)).verdict
        print(f"(n={n}, m={m}, theta={theta}): {verdict}")
        assert verdict.endswith("_exists_unique"), (n, m, theta)
        table.setdefault(verdict, []).append((n, m, theta))
    counts = {verdict: len(cases) for verdict, cases in table.items()}
    print(f"G-verdicts over {sum(counts.values())} theta: {counts}")
    assert counts == {"criteria_hold_exists_unique": 4,
                      "no_nontrivial_relations_exists_unique": 30}


def test_10_g_verdict_table_above_the_old_cap():
    # every valid (2,1) theta with q <= 100 and 10 to 42 boundary points:
    # each G-verdict is an exists-unique verdict. Up to the default
    # enumeration cap the search runs with its default cap; above it the
    # cap is raised to 42, where the G-search still takes under 0.05 s
    counts = Counter()
    for n, m, theta in valid_contexts([(2, 1)], 100, 42):
        s = ms(n, m, theta)
        nb = len(s.boundary)
        if nb < 10:
            continue
        if nb <= DEFAULT_ENUM_CAP:
            part, found = "default cap", enumerate_preserved(s, True)
        else:
            part, found = "cap 42", enumerate_preserved(s, True, cap=42)
        verdict = sabot_verdict(s, found).verdict
        print(f"(n={n}, m={m}, theta={theta}, nb={nb}): {verdict}")
        assert verdict.endswith("_exists_unique"), (n, m, theta)
        counts[part, verdict] += 1
    print(f"G-verdicts over {sum(counts.values())} theta: {dict(counts)}")
    assert counts == {
        ("default cap", "criteria_hold_exists_unique"): 15,
        ("default cap", "no_nontrivial_relations_exists_unique"): 100,
        ("cap 42", "no_nontrivial_relations_exists_unique"): 110}
