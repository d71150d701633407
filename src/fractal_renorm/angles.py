"""Exact arithmetic for rational circle angles under the degree-n doubling map.

Angles live on the circle R/Z. For a parameter pair (n, m) with base angle
theta, every set this package cares about stays on the finite lattice
{0, 1/M, ..., (M-1)/M} where M = lcm(den(theta), m + n), so angles are stored
as integer residues modulo M and all dynamics is integer arithmetic. No
floating point enters before network computations.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, Union

from .errors import CriticalAngleError, NotAPermutationError

AngleLike = Union["Angle", Fraction, int, str]


class Angle(tuple):
    """A point residue/modulus of the circle R/Z.

    An Angle is the tuple (residue, modulus): it equals the plain tuple
    (residue, modulus), and hashes and sorts as that tuple does. Ordering
    is by residue, which matches circular order on [0, 1) when the moduli
    agree. Equality is exact: the same point represented at two different
    moduli compares unequal, and mixing moduli in arithmetic is an error
    rather than an implicit rescale.
    """

    __slots__ = ()

    def __new__(cls, residue: int, modulus: int) -> "Angle":
        if modulus <= 0:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if not 0 <= residue < modulus:
            raise ValueError(
                f"residue {residue} out of range for modulus {modulus}")
        return tuple.__new__(cls, (residue, modulus))

    residue = property(itemgetter(0))
    modulus = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Angle(residue={self[0]!r}, modulus={self[1]!r})"

    @classmethod
    def from_fraction(cls, value: Union[Fraction, int, str], modulus: int) -> "Angle":
        frac = Fraction(value) % 1
        scaled = frac * modulus
        if scaled.denominator != 1:
            raise ValueError(f"{value} is not a multiple of 1/{modulus}")
        return cls(int(scaled), modulus)

    def as_fraction(self) -> Fraction:
        return Fraction(self.residue, self.modulus)

    def __str__(self) -> str:
        frac = self.as_fraction()
        return f"{frac.numerator}/{frac.denominator}"


def parse_angle(text: str, modulus: int) -> Angle:
    """Parse "p/q" (lowest terms or not) onto the lattice of a given modulus."""
    return Angle.from_fraction(Fraction(text), modulus)


@dataclass(frozen=True)
class AngleContext:
    """Parameters (n, m, theta) together with the working modulus.

    theta is canonical, meaning 0 <= theta < 1/(m+n). Build instances with
    make_context, which reduces theta into that window and chooses the
    modulus.
    """

    n: int
    m: int
    theta: Angle
    modulus: int

    @property
    def ring_size(self) -> int:
        return self.m + self.n

    @property
    def step(self) -> int:
        # residue increment of 1/(m+n); integral by choice of modulus
        return self.modulus // self.ring_size


def make_context(n: int, m: int, theta: AngleLike) -> AngleContext:
    """Build the working context for parameters (n, m, theta).

    theta may be a Fraction, an int, a "p/q" string, or an Angle. Values
    outside [0, 1/(m+n)) are reduced into that window, with a warning: the
    reduction does not change any construction downstream, it only fixes a
    canonical representative.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if isinstance(theta, Angle):
        frac = theta.as_fraction()
    else:
        try:
            frac = Fraction(theta)
        except ZeroDivisionError:
            raise ValueError(f"theta {theta}: zero denominator") from None
    frac %= 1
    ring = m + n
    window = Fraction(1, ring)
    if frac >= window:
        reduced = frac % window
        warnings.warn(
            f"theta {frac} reduced to canonical representative {reduced} "
            f"in [0, 1/{ring})")
        frac = reduced
    modulus = lcm(frac.denominator, ring)
    return AngleContext(n=n, m=m, theta=Angle(int(frac * modulus), modulus),
                        modulus=modulus)


def phi_n(a: Angle, n: int) -> Angle:
    """Apply the degree-n circle map [x] -> [n x]."""
    return Angle((a.residue * n) % a.modulus, a.modulus)


def circle_distance(a: Angle, b: Angle) -> Fraction:
    """Shorter arc length between two lattice points, as an exact Fraction."""
    if a.modulus != b.modulus:
        raise ValueError(
            f"modulus mismatch: {a.modulus} != {b.modulus}; "
            "re-lattice one side before comparing")
    diff = (a.residue - b.residue) % a.modulus
    return Fraction(min(diff, a.modulus - diff), a.modulus)


def rotate(ctx: AngleContext, a: Angle, l: int) -> Angle:
    """Rotate by l/(m+n); these rotations generate the symmetry group."""
    return Angle((a.residue + l * ctx.step) % ctx.modulus, ctx.modulus)


def critical_angles(ctx: AngleContext) -> tuple[Angle, ...]:
    """The m+n critical angles c_i = theta + i/(m+n), i = 1..m+n.

    Index m+n wraps to theta itself, so the tuple ends with theta.
    """
    return tuple(rotate(ctx, ctx.theta, i) for i in range(1, ctx.ring_size + 1))


def post_critical_set(ctx: AngleContext) -> tuple[Angle, ...]:
    """Forward orbit of the images of the critical angles, sorted.

    The orbit is finite because everything lives on the modulus lattice.
    """
    frontier = {phi_n(c, ctx.n) for c in critical_angles(ctx)}
    seen: set[Angle] = set()
    while frontier:
        seen |= frontier
        frontier = {phi_n(a, ctx.n) for a in frontier} - seen
    return tuple(sorted(seen))


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the separation check between orbit and critical angles.

    violations lists triples (i, k, j): the k-th image of critical angle i
    lands on critical angle j (indices 1-based, first hit per orbit).
    """

    valid: bool
    violations: tuple[tuple[int, int, int], ...]

    def __bool__(self) -> bool:
        return self.valid


def validate_ms(ctx: AngleContext) -> ValidityReport:
    """Check that the forward orbit never returns to a critical angle.

    Always returns a report; an invalid context is a result, not an error.
    """
    crits = critical_angles(ctx)
    crit_index = {c: i + 1 for i, c in enumerate(crits)}
    violations = []
    for i, c in enumerate(crits, start=1):
        a = c
        seen = set()
        for k in range(1, ctx.modulus + 1):
            a = phi_n(a, ctx.n)
            if a in crit_index:
                violations.append((i, k, crit_index[a]))
                break
            if a in seen:
                break
            seen.add(a)
    return ValidityReport(valid=not violations, violations=tuple(violations))


def cell_index(ctx: AngleContext, a: Angle) -> int:
    """Index in 1..m+n of the open arc (c_{i-1}, c_i) containing a."""
    if a.modulus != ctx.modulus:
        raise ValueError(f"angle modulus {a.modulus} differs from context "
                         f"modulus {ctx.modulus}")
    offset = (a.residue - ctx.theta.residue) % ctx.modulus
    if offset % ctx.step == 0:
        raise CriticalAngleError(
            f"angle {a} is a critical angle; it lies on a cell boundary")
    return offset // ctx.step + 1


def kappa(ctx: AngleContext) -> tuple[int, ...]:
    """The permutation kappa with cell_index(phi_n(c_kappa(i))) == i.

    Returned as a tuple K with K[i-1] = kappa(i), 1-based values.
    """
    ring = ctx.ring_size
    crits = critical_angles(ctx)
    inverse: dict[int, int] = {}
    for j, c in enumerate(crits, start=1):
        image = phi_n(c, ctx.n)
        try:
            cell = cell_index(ctx, image)
        except CriticalAngleError as exc:
            raise NotAPermutationError(
                f"image of critical angle {j} is itself critical; "
                "no containing cell") from exc
        if cell in inverse:
            raise NotAPermutationError(
                f"critical angles {inverse[cell]} and {j} both map into "
                f"cell {cell}")
        inverse[cell] = j
    return tuple(inverse[i] for i in range(1, ring + 1))


def symmetrized_set(ctx: AngleContext, angles: Iterable[Angle]) -> tuple[Angle, ...]:
    """Closure of a set of angles under all rotations by l/(m+n), sorted."""
    out: set[Angle] = set()
    for a in angles:
        for l in range(ctx.ring_size):
            out.add(rotate(ctx, a, l))
    return tuple(sorted(out))
