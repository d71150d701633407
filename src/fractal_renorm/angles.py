"""Exact arithmetic for rational circle angles under the degree-n doubling map.

Angles live on the circle R/Z. For a parameter pair (n, m) with base angle
theta, every set this package cares about stays on the finite lattice
{0, 1/M, ..., (M-1)/M} where M = lcm(den(theta), m + n), so angles are stored
as integer residues modulo M; all dynamics is integer arithmetic, Angles are
made only for results, and floats enter only in network computations.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Union

from .errors import KappaUndefinedError

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
        g = gcd(self[0], self[1])  # gcd(0, M) is M: zero prints 0/1
        return f"{self[0] // g}/{self[1] // g}"


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
        num, den = theta
    else:
        try:  # only text and other numbers are parsed
            frac = (theta if isinstance(theta, (int, Fraction))
                    else Fraction(theta))
        except ZeroDivisionError:
            raise ValueError(f"theta {theta}: zero denominator") from None
        num, den = frac.numerator, frac.denominator
    ring = m + n
    num %= den
    if num * ring >= den:  # theta mod 1/ring is (num*ring mod den)/(den*ring)
        reduced = num * ring % den
        warnings.warn(
            f"theta {Fraction(num, den)} reduced to canonical representative "
            f"{Fraction(reduced, den * ring)} in [0, 1/{ring})")
        num, den = reduced, den * ring
    modulus = lcm(den // gcd(num, den), ring)
    return AngleContext(n=n, m=m, theta=Angle(num * modulus // den, modulus),
                        modulus=modulus)


def critical_residues(ctx: AngleContext) -> list[int]:
    """The residues of the m+n critical angles c_i = theta + i/(m+n),
    i = 1..m+n. Index m+n wraps to theta itself, so the list ends with
    theta's residue."""
    return [(ctx.theta[0] + i * ctx.step) % ctx.modulus
            for i in range(1, ctx.ring_size + 1)]


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


def critical_orbits(ctx: AngleContext) -> tuple[ValidityReport, list[int]]:
    """Whether the forward orbits of the critical angles avoid them (an
    invalid context is a report, not an error), and the sorted
    post-critical residues, from one walk of the critical orbits. Orbit i
    stops where it repeats or, while no orbit has met a critical angle,
    where it joins an earlier orbit; its first critical hit is the
    violation (i, k, j)."""
    modulus, n = ctx.modulus, ctx.n
    crit = {r: i for i, r in enumerate(critical_residues(ctx), start=1)}
    post: set[int] = set()
    violations = []
    for a, i in crit.items():
        seen: set[int] = set()
        for k in count(1):
            a = a * n % modulus
            if a in seen or not violations and a in post:
                break
            if a in crit and (not violations or violations[-1][0] != i):
                violations.append((i, k, crit[a]))
            seen.add(a)
        post |= seen
    return ValidityReport(not violations, tuple(violations)), sorted(post)


def cell_of(ctx: AngleContext, residue: int) -> int:
    """Index in 1..m+n of the open arc (c_{i-1}, c_i) that holds the
    angle with this residue, which is not critical."""
    return (residue - ctx.theta[0]) % ctx.modulus // ctx.step + 1


def kappa(ctx: AngleContext) -> tuple[int, ...]:
    """The permutation kappa: the image of c_kappa(i) under the angle map
    lies in cell i. Returned as a tuple K with K[i-1] = kappa(i), 1-based
    values; KappaUndefined when an image is critical or two images share
    a cell.
    """
    inverse: dict[int, int] = {}
    for j, c in enumerate(critical_residues(ctx), start=1):
        image = c * ctx.n % ctx.modulus
        if (image - ctx.theta[0]) % ctx.step == 0:
            raise KappaUndefinedError(
                f"image of critical angle {j} is itself critical; "
                "no containing cell")
        cell = cell_of(ctx, image)
        if cell in inverse:
            raise KappaUndefinedError(
                f"critical angles {inverse[cell]} and {j} both map into "
                f"cell {cell}")
        inverse[cell] = j
    return tuple(inverse[i] for i in range(1, ctx.ring_size + 1))


def rotation_closure(ctx: AngleContext, residues: Iterable[int]) -> list[int]:
    """Closure of a set of residues under all rotations by l/(m+n), sorted."""
    return sorted({(r + l * ctx.step) % ctx.modulus
                   for r in residues for l in range(ctx.ring_size)})
