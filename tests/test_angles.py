"""Exact circle arithmetic: contexts, orbits, cells, kappa."""

import copy
from fractions import Fraction
import pickle
import warnings

import pytest

from fractal_renorm import (
    Angle, CriticalAngleError, NotAPermutationError, cell_index,
    circle_distance, critical_angles, kappa, make_context, parse_angle,
    phi_n, post_critical_set, rotate, symmetrized_set, validate_ms,
)


def angles_of(ctx, *fracs):
    return tuple(Angle.from_fraction(Fraction(f), ctx.modulus) for f in fracs)


def fractions_of(angles):
    return sorted(a.as_fraction() for a in angles)


class TestAngleBasics:
    def test_round_trip_string(self):
        a = parse_angle("5/6", 12)
        assert a.residue == 10 and a.modulus == 12
        assert str(a) == "5/6"
        assert Angle.from_fraction(str(a), 12) == a

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            Angle.from_fraction(Fraction(1, 7), 12)

    def test_ordering_matches_circle_position(self):
        a = Angle.from_fraction(Fraction(1, 6), 12)
        b = Angle.from_fraction(Fraction(1, 2), 12)
        assert a < b

    @pytest.mark.parametrize("residue,modulus", [(6, 6), (-1, 6), (0, 0)])
    def test_out_of_range_rejected(self, residue, modulus):
        with pytest.raises(ValueError):
            Angle(residue, modulus)

    def test_is_the_plain_tuple(self):
        a = Angle(5, 12)
        assert a == (5, 12) and hash(a) == hash((5, 12))
        assert sorted([Angle(7, 12), a, Angle(5, 10)]) == \
            [(5, 10), (5, 12), (7, 12)]
        assert repr(a) == "Angle(residue=5, modulus=12)"
        assert (a.residue, a.modulus) == (5, 12)

    def test_copy_round_trip(self):
        a = Angle(5, 12)
        for b in (copy.copy(a), copy.deepcopy(a),
                  pickle.loads(pickle.dumps(a))):
            assert type(b) is Angle and b == a and str(b) == "5/12"

    def test_wraparound_normalized(self):
        assert Angle.from_fraction(Fraction(13, 12), 12).residue == 1
        assert Angle.from_fraction(Fraction(-1, 12), 12).residue == 11


class TestContext:
    def test_standard_context(self):
        ctx = make_context(2, 1, Fraction(1, 12))
        assert ctx.modulus == 12
        assert ctx.ring_size == 3
        assert ctx.step == 4
        assert ctx.theta.as_fraction() == Fraction(1, 12)

    def test_theta_reduced_with_warning(self):
        with pytest.warns(UserWarning):
            ctx = make_context(2, 1, Fraction(5, 12))
        assert ctx.theta.as_fraction() == Fraction(1, 12)

    def test_theta_mod_one_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctx = make_context(2, 1, Fraction(1, 12) + 3)
        assert ctx.theta.as_fraction() == Fraction(1, 12)

    def test_theta_text(self):
        assert make_context(2, 1, "1/12") == make_context(2, 1, Fraction(1, 12))
        with pytest.raises(ValueError, match="zero denominator"):
            make_context(2, 1, "1/0")

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            make_context(1, 1, Fraction(1, 12))
        with pytest.raises(ValueError):
            make_context(2, 0, Fraction(1, 12))

    def test_modulus_is_lcm(self):
        # denominator 16 and ring 4 share a factor
        ctx = make_context(2, 2, Fraction(3, 16))
        assert ctx.modulus == 16


class TestPhiAndDistance:
    def test_values(self):
        assert phi_n(Angle.from_fraction(Fraction(1, 12), 12), 2) \
            == Angle.from_fraction(Fraction(1, 6), 12)
        assert phi_n(Angle.from_fraction(Fraction(3, 16), 16), 2) \
            == Angle.from_fraction(Fraction(3, 8), 16)

    def test_semigroup(self):
        a = Angle.from_fraction(Fraction(7, 60), 60)
        assert phi_n(phi_n(a, 2), 3) == phi_n(a, 6)
        assert phi_n(phi_n(a, 3), 2) == phi_n(a, 6)

    def test_rotation_compatibility(self):
        # phi_n(a + l/(m+n)) = phi_n(a) + n*l/(m+n)
        ctx = make_context(3, 2, Fraction(2, 15))
        for res in range(ctx.modulus):
            a = Angle(res, ctx.modulus)
            for l in range(ctx.ring_size):
                lhs = phi_n(rotate(ctx, a, l), ctx.n)
                rhs = rotate(ctx, phi_n(a, ctx.n), ctx.n * l)
                assert lhs == rhs

    def test_distance_values(self):
        a = Angle.from_fraction(Fraction(1, 12), 12)
        b = Angle.from_fraction(Fraction(11, 12), 12)
        assert circle_distance(a, b) == Fraction(1, 6)
        assert circle_distance(a, a) == 0

    def test_distance_modulus_mismatch(self):
        with pytest.raises(ValueError):
            circle_distance(Angle(1, 12), Angle(1, 10))


class TestCriticalOrbit:
    def test_critical_angles_end_with_theta(self):
        ctx = make_context(2, 1, Fraction(1, 12))
        assert fractions_of(critical_angles(ctx)) == \
            [Fraction(1, 12), Fraction(5, 12), Fraction(3, 4)]
        assert critical_angles(ctx)[-1] == ctx.theta

    def test_post_critical_2_1_12(self):
        ctx = make_context(2, 1, Fraction(1, 12))
        assert fractions_of(post_critical_set(ctx)) == [
            Fraction(0), Fraction(1, 6), Fraction(1, 3),
            Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)]

    def test_post_critical_2_2_316(self):
        ctx = make_context(2, 2, Fraction(3, 16))
        assert fractions_of(post_critical_set(ctx)) == [
            Fraction(0), Fraction(3, 8), Fraction(1, 2),
            Fraction(3, 4), Fraction(7, 8)]

    def test_validity(self):
        assert validate_ms(make_context(2, 1, Fraction(1, 12)))
        with pytest.warns(UserWarning):
            # 1/3 reduces to the canonical representative 0, which is invalid
            ctx = make_context(2, 1, Fraction(1, 3))
        report = validate_ms(ctx)
        assert not report.valid
        assert report.violations
        i, k, j = report.violations[0]
        crits = critical_angles(ctx)
        a = crits[i - 1]
        for _ in range(k):
            a = phi_n(a, ctx.n)
        assert a == crits[j - 1]

    def test_family_post_critical_sets(self):
        # theta = l/(n(m+n)) puts the whole orbit on multiples of 1/(m+n)
        for n, m, l in [(2, 1, 1), (2, 3, 1), (3, 2, 2), (3, 1, 1), (3, 1, 2)]:
            ctx = make_context(n, m, Fraction(l, n * (m + n)))
            ring = m + n
            assert fractions_of(post_critical_set(ctx)) == \
                [Fraction(k, ring) for k in range(ring)]


class TestCellsAndKappa:
    def test_cell_index_2_1_12(self):
        ctx = make_context(2, 1, Fraction(1, 12))
        zero, sixth, half = angles_of(ctx, 0, Fraction(1, 6), Fraction(1, 2))
        assert cell_index(ctx, zero) == 3
        assert cell_index(ctx, sixth) == 1
        assert cell_index(ctx, half) == 2

    def test_cell_index_rejects_critical(self):
        ctx = make_context(2, 1, Fraction(1, 12))
        with pytest.raises(CriticalAngleError):
            cell_index(ctx, Angle.from_fraction(Fraction(5, 12), 12))

    def test_kappa_2_1_12(self):
        assert kappa(make_context(2, 1, Fraction(1, 12))) == (3, 2, 1)

    def test_kappa_3_1_12(self):
        assert kappa(make_context(3, 1, Fraction(1, 12))) == (4, 3, 2, 1)

    def test_kappa_defining_property(self):
        for n, m, theta in [(2, 1, Fraction(1, 12)), (3, 1, Fraction(1, 12)),
                            (4, 1, Fraction(1, 30)), (2, 1, Fraction(1, 6))]:
            ctx = make_context(n, m, theta)
            crits = critical_angles(ctx)
            k = kappa(ctx)
            for i in range(1, ctx.ring_size + 1):
                assert cell_index(ctx, phi_n(crits[k[i - 1] - 1], n)) == i

    def test_kappa_inverse_adjacent_cells(self):
        # m = 1: kappa^{-1}(i-1) - 1 = kappa^{-1}(i) mod (m+n)
        for n, theta in [(2, Fraction(1, 12)), (3, Fraction(1, 12)),
                         (4, Fraction(1, 30))]:
            ctx = make_context(n, 1, theta)
            ring = ctx.ring_size
            k = kappa(ctx)
            inv = {k[i - 1]: i for i in range(1, ring + 1)}
            for i in range(1, ring + 1):
                prev = (i - 2) % ring + 1
                assert (inv[prev] - 1 - inv[i]) % ring == 0

    def test_kappa_undefined_when_image_critical(self):
        # theta = 0 sends the critical angle at 0 to itself
        ctx = make_context(2, 1, 0)
        with pytest.raises(NotAPermutationError):
            kappa(ctx)


class TestSymmetrizedSet:
    def test_rotation_closure(self):
        ctx = make_context(2, 2, Fraction(3, 16))
        closed = symmetrized_set(ctx, post_critical_set(ctx))
        assert fractions_of(closed) == [Fraction(k, 8) for k in range(8)]

    def test_already_closed_fixed_point(self):
        ctx = make_context(2, 1, Fraction(1, 12))
        base = post_critical_set(ctx)
        assert set(symmetrized_set(ctx, base)) == set(base)
