"""Exact circle arithmetic: contexts, orbits, cells, kappa."""

import copy
from fractions import Fraction
import pickle
import warnings

import pytest

from _oracles import circle_distance, fraction_context, phi_n, rotate
from fractal_renorm import (Angle, KappaUndefinedError, build_structure,
                            kappa, make_context)
from fractal_renorm.angles import (cell_of, critical_orbits,
                                   critical_residues, rotation_closure)


def residues_of(ctx, *fracs):
    return [Angle.from_fraction(Fraction(f), ctx.modulus)[0] for f in fracs]


def fractions_of(ctx, residues):
    return sorted(Fraction(r, ctx.modulus) for r in residues)


class TestAngleBasics:
    def test_round_trip_string(self):
        a = Angle.from_fraction("5/6", 12)
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


class TestContextParity:
    """make_context on numerator and denominator against Fraction
    arithmetic, warning text included."""

    @staticmethod
    def inputs(q):
        # theta from -1 to 2 in steps of 1/q, in every accepted form
        for p in range(-q, 2 * q + 1):
            yield from (Fraction(p, q), f"{p}/{q}", Angle(p % q, q))
            if p % q == 0:
                yield p // q
        yield from ("0.25", "-0.125", "1.5", "0.3", f"{1 / q:.6f}")

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (2, 2), (3, 2),
                                     (2, 3), (4, 1)])
    def test_matches_fraction_arithmetic(self, n, m):
        for q in range(1, 25):
            for theta in self.inputs(q):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    ctx = make_context(n, m, theta)
                want, message = fraction_context(n, m, theta)
                assert (ctx.n, ctx.m, ctx.theta, ctx.modulus) == want, theta
                assert type(ctx.theta) is Angle
                assert [str(w.message) for w in caught] == \
                    ([message] if message else []), theta

    def test_warning_text(self):
        with pytest.warns(UserWarning) as caught:
            make_context(2, 1, "-1/12")
        assert str(caught[0].message) == ("theta 11/12 reduced to canonical "
                                          "representative 1/4 in [0, 1/3)")


class TestPhiAndDistance:
    """The circle map in the package is the images of the critical angles,
    the glue points; phi_n, rotate and circle_distance are the Angle-route
    references of the oracles."""

    def test_values(self):
        # glue point i is the image of critical angle i
        for theta, images in [("1/12", ["5/6", "1/2", "1/6"]),
                              ("3/16", ["7/8", "3/8", "7/8", "3/8"])]:
            ctx = make_context(2, len(images) - 2, theta)
            assert [str(a) for a in build_structure(ctx).glue_points] \
                == images
        assert phi_n(Angle.from_fraction(Fraction(1, 12), 12), 2) \
            == Angle.from_fraction(Fraction(1, 6), 12)

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
        assert fractions_of(ctx, critical_residues(ctx)) == \
            [Fraction(1, 12), Fraction(5, 12), Fraction(3, 4)]
        assert critical_residues(ctx)[-1] == ctx.theta.residue

    def test_post_critical_2_1_12(self):
        ctx = make_context(2, 1, Fraction(1, 12))
        assert fractions_of(ctx, critical_orbits(ctx)[1]) == [
            Fraction(0), Fraction(1, 6), Fraction(1, 3),
            Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)]

    def test_post_critical_2_2_316(self):
        ctx = make_context(2, 2, Fraction(3, 16))
        assert fractions_of(ctx, critical_orbits(ctx)[1]) == [
            Fraction(0), Fraction(3, 8), Fraction(1, 2),
            Fraction(3, 4), Fraction(7, 8)]

    def test_validity(self):
        assert critical_orbits(make_context(2, 1, Fraction(1, 12)))[0]
        with pytest.warns(UserWarning):
            # 1/3 reduces to the canonical representative 0, which is invalid
            ctx = make_context(2, 1, Fraction(1, 3))
        report = critical_orbits(ctx)[0]
        assert not report.valid
        assert report.violations
        i, k, j = report.violations[0]
        crits = critical_residues(ctx)
        a = crits[i - 1]
        for _ in range(k):
            a = a * ctx.n % ctx.modulus
        assert a == crits[j - 1]

    def test_family_post_critical_sets(self):
        # theta = l/(n(m+n)) puts the whole orbit on multiples of 1/(m+n)
        for n, m, l in [(2, 1, 1), (2, 3, 1), (3, 2, 2), (3, 1, 1), (3, 1, 2)]:
            ctx = make_context(n, m, Fraction(l, n * (m + n)))
            ring = m + n
            assert fractions_of(ctx, critical_orbits(ctx)[1]) == \
                [Fraction(k, ring) for k in range(ring)]


class TestCellsAndKappa:
    def test_cell_index_2_1_12(self):
        ctx = make_context(2, 1, Fraction(1, 12))
        zero, sixth, half = residues_of(ctx, 0, Fraction(1, 6), Fraction(1, 2))
        assert cell_of(ctx, zero) == 3
        assert cell_of(ctx, sixth) == 1
        assert cell_of(ctx, half) == 2

    def test_kappa_2_1_12(self):
        assert kappa(make_context(2, 1, Fraction(1, 12))) == (3, 2, 1)

    def test_kappa_3_1_12(self):
        assert kappa(make_context(3, 1, Fraction(1, 12))) == (4, 3, 2, 1)

    def test_kappa_defining_property(self):
        for n, m, theta in [(2, 1, Fraction(1, 12)), (3, 1, Fraction(1, 12)),
                            (4, 1, Fraction(1, 30)), (2, 1, Fraction(1, 6))]:
            ctx = make_context(n, m, theta)
            crits = critical_residues(ctx)
            k = kappa(ctx)
            for i in range(1, ctx.ring_size + 1):
                image = crits[k[i - 1] - 1] * n % ctx.modulus
                assert cell_of(ctx, image) == i

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
        with pytest.raises(KappaUndefinedError, match="is itself critical"):
            kappa(ctx)


class TestSymmetrizedSet:
    def test_rotation_closure(self):
        ctx = make_context(2, 2, Fraction(3, 16))
        closed = rotation_closure(ctx, critical_orbits(ctx)[1])
        assert fractions_of(ctx, closed) == [Fraction(k, 8) for k in range(8)]

    def test_already_closed_fixed_point(self):
        ctx = make_context(2, 1, Fraction(1, 12))
        base = critical_orbits(ctx)[1]
        assert rotation_closure(ctx, base) == base
