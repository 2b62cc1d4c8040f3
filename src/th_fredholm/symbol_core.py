"""Canonical piecewise-continuous symbols on the unit circle.

A symbol is stored in product form

    phi(t) = scale * t**kappa * exp(sum_k gamma_k t**k) * prod_j u(tau_j, beta_j)(t)

where u(tau, beta) is the canonical unit with a single jump at tau,
defined on t = tau*exp(i*x), x in (0, 2*pi), by u = exp(i*beta*(x - pi)).
Jump locations are exact rational multiples of 2*pi and jump exponents keep
an exact rational real part, so conjugate pairing of jump points and all
mod-1 arithmetic downstream are free of floating error.

A symbol's value is exp of one exponent, written once in _exponent: on a
numpy array of angles (eval_many), angle by angle in cmath (eval_each), and
at a jump point, where it gives the limit from after and adding 2*pi*i*beta
gives the limit from before (one_sided_limits).
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

TWO_PI = 2.0 * math.pi
# validate_pair's bound on |a*a~ / (b*b~) - 1| over the circle
STRUCTURAL_TOL = 1e-9
# symbols_equal's tolerance on float data
EQUAL_TOL = 1e-12

ExponentLike = Union["Exponent", Fraction, int, float, complex, str]


class EvalAtJump(ValueError):
    """Raised when a symbol is evaluated exactly at one of its jump angles."""


class ConditionViolated(ValueError):
    """The pair (a, b) does not satisfy a*tilde(a) = b*tilde(b).

    Attributes
    ----------
    deviation : float
        A bound on |a*a~ / (b*b~) - 1| over the circle, or the deviation of
        the jump ratio at the offending jump point.
    point : UnitPoint | None
        Offending jump point, when the violation is a mismatched jump.
    """

    def __init__(self, message: str, deviation: float, point: "UnitPoint | None" = None):
        super().__init__(message)
        self.deviation = deviation
        self.point = point


class _RecordType(type):
    """Makes the annotated fields of a record class its __slots__.

    A field's default moves from the class body to the class's _defaults,
    since a slot and a class attribute cannot share a name.  A class
    declared with eq=False keeps identity equality and hash.
    """

    def __new__(mcls, name, bases, namespace, eq: bool = True):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = fields
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        if not eq:
            namespace["__eq__"], namespace["__hash__"] = object.__eq__, object.__hash__
        return super().__new__(mcls, name, bases, namespace)


class _Record(metaclass=_RecordType):
    """Immutable record whose fields are its class's annotations.

    __init__ takes the fields in order, positionally or by name; a trailing
    field with a default may be left out.  Gives the repr
    Name(field=value, ...), and equality and hash on the field tuple.
    Assignment raises AttributeError.  Records use this base, not the
    standard library's decorator, whose module imports inspect and cost
    every cold command about 20 ms.  The records an exact sweep builds by
    the dozen (UnitPoint, Exponent, JumpFactor, SiteCondition) write out
    their own __init__, about twice as fast as this one.
    """

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                object.__setattr__(self, name, kwargs.pop(name))
            elif name in self._defaults:
                object.__setattr__(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected fields {sorted(kwargs)}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):  # copy and pickle rebuild through __init__, whose parameters are the fields
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class Exponent(_Record):
    """Complex exponent with exact rational real part."""

    re: Fraction
    im: float

    def __init__(self, re: Fraction, im: float = 0.0):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def of(x: ExponentLike) -> "Exponent":
        if isinstance(x, Exponent):
            return x
        if isinstance(x, complex):
            return Exponent(Fraction(x.real), float(x.imag))
        return Exponent(Fraction(x), 0.0)

    @property
    def value(self) -> complex:
        return complex(float(self.re), self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0.0

    def __add__(self, other: ExponentLike) -> "Exponent":
        o = Exponent.of(other)
        return Exponent(self.re + o.re, self.im + o.im)

    def __sub__(self, other: ExponentLike) -> "Exponent":
        o = Exponent.of(other)
        return Exponent(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "Exponent":
        return Exponent(-self.re, -self.im)


@functools.total_ordering
class UnitPoint(_Record):
    """Point tau = exp(2*pi*i*num/den) on the unit circle, reduced, 0 <= num < den; ordered as (num, den)."""

    num: int
    den: int

    def __init__(self, num: int, den: int = 1):
        f = Fraction(num, den) % 1
        object.__setattr__(self, "num", f.numerator)
        object.__setattr__(self, "den", f.denominator)

    def __eq__(self, other):
        if other.__class__ is UnitPoint:
            return (self.num, self.den) == (other.num, other.den)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __lt__(self, other):
        if other.__class__ is UnitPoint:
            return (self.num, self.den) < (other.num, other.den)
        return NotImplemented

    @property
    def turns(self) -> Fraction:
        """Angle as a fraction of a full turn."""
        return Fraction(self.num, self.den)

    @property
    def angle(self) -> float:
        return TWO_PI * self.num / self.den

    def conjugate(self) -> "UnitPoint":
        return UnitPoint((self.den - self.num) % self.den, self.den)

    @property
    def is_one(self) -> bool:
        return self.num == 0

    @property
    def is_minus_one(self) -> bool:
        return 2 * self.num == self.den

    @property
    def in_upper_half(self) -> bool:
        """Strictly inside the open upper half circle."""
        return 0 < 2 * self.num < self.den


ONE = UnitPoint(0, 1)
MINUS_ONE = UnitPoint(1, 2)


class JumpFactor(_Record):
    """The unit u(tau, beta) with jump ratio exp(2*pi*i*beta) at tau."""

    point: UnitPoint
    beta: Exponent

    def __init__(self, point, beta):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "beta", beta)


class FourierLogPoly(_Record):
    """Finite Fourier polynomial used as the logarithm of the smooth part."""

    coeffs: tuple[tuple[int, complex], ...] = ()

    @staticmethod
    def of(data: "FourierLogPoly | Mapping[int, complex] | Iterable[tuple[int, complex]] | None") -> "FourierLogPoly":
        if data is None:
            return FourierLogPoly()
        if isinstance(data, FourierLogPoly):
            return data
        items = data.items() if isinstance(data, Mapping) else data
        kept = {}
        for k, v in items:
            v = complex(v)
            if v != 0:
                kept[int(k)] = kept.get(int(k), 0j) + v
        return FourierLogPoly(tuple(sorted((k, v) for k, v in kept.items() if v != 0)))

    def as_dict(self) -> dict[int, complex]:
        return dict(self.coeffs)

    @property
    def is_empty(self) -> bool:
        return not self.coeffs

    def tilde(self) -> "FourierLogPoly":
        return FourierLogPoly.of({-k: v for k, v in self.coeffs})

    def plus(self, other: "FourierLogPoly", sign: int = 1) -> "FourierLogPoly":
        out = self.as_dict()
        for k, v in other.coeffs:
            out[k] = out.get(k, 0j) + sign * v
        return FourierLogPoly.of(out)


def _canonical_jumps(jumps: Iterable[JumpFactor]) -> tuple[JumpFactor, ...]:
    merged: dict[UnitPoint, Exponent] = {}
    for j in jumps:
        cur = merged.get(j.point)
        merged[j.point] = j.beta if cur is None else cur + j.beta
    kept = [JumpFactor(pt, b) for pt, b in merged.items() if not b.is_zero]
    kept.sort(key=lambda j: j.point.turns)
    return tuple(kept)


class CanonicalSymbol(_Record):
    """Invertible piecewise-continuous symbol in canonical product form."""

    kappa: int
    scale: complex
    log_smooth: FourierLogPoly
    jumps: tuple[JumpFactor, ...]

    def __init__(
        self,
        kappa: int = 0,
        scale: complex = 1.0 + 0j,
        log_smooth: FourierLogPoly = FourierLogPoly(),
        jumps: tuple[JumpFactor, ...] = (),
    ):
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "scale", complex(scale))
        object.__setattr__(self, "log_smooth", FourierLogPoly.of(log_smooth))
        object.__setattr__(self, "jumps", _canonical_jumps(jumps))
        if self.scale == 0 or not cmath.isfinite(self.scale):
            raise ValueError("scale must be nonzero and finite")

    @staticmethod
    def one() -> "CanonicalSymbol":
        return CanonicalSymbol()

    @staticmethod
    def monomial(k: int, scale: complex = 1.0) -> "CanonicalSymbol":
        return CanonicalSymbol(kappa=k, scale=scale)

    def beta_at(self, point: UnitPoint) -> Exponent:
        for j in self.jumps:
            if j.point == point:
                return j.beta
        return Exponent(Fraction(0))

    @property
    def jump_points(self) -> tuple[UnitPoint, ...]:
        return tuple(j.point for j in self.jumps)


def jump_unit(num: int, den: int, beta: ExponentLike, *, kappa: int = 0, scale: complex = 1.0) -> CanonicalSymbol:
    """Convenience builder: scale * t**kappa * u(exp(2*pi*i*num/den), beta)."""
    return CanonicalSymbol(kappa=kappa, scale=scale, jumps=(JumpFactor(UnitPoint(num, den), Exponent.of(beta)),))


def _jump_phases(s: CanonicalSymbol) -> list[tuple[float, complex]]:
    """The (angle, i*beta) pair of each jump of s, for _exponent."""
    return [(j.point.angle, 1j * j.beta.value) for j in s.jumps]


def _exponent(s: CanonicalSymbol, phases: list[tuple[float, complex]], x, exp):
    """The exponent of s at the angle x in [0, 2*pi): a float with cmath.exp, or an array with numpy.exp.

    i*kappa*x + sum_j i*beta_j*((x - theta_j) mod 2*pi - pi) + sum_k v_k e^{ikx};
    at x = theta_j the jump's term takes its value just after the jump.
    """
    expo = 1j * s.kappa * x
    for angle, ibeta in phases:
        expo += ibeta * ((x - angle) % TWO_PI - math.pi)
    if s.log_smooth.coeffs:
        z = exp(1j * x)
        for k, v in s.log_smooth.coeffs:
            expo += v * z**k
    return expo


def eval_many(s: CanonicalSymbol, xs: np.ndarray) -> np.ndarray:
    """s at t = e^{ix} on a grid of angles; raises EvalAtJump on a jump angle."""
    import numpy as np

    xs = np.asarray(xs, dtype=float) % TWO_PI
    for j in s.jumps:
        gap = np.abs(xs - j.point.angle)  # within 1e-13 of the jump, across 0 too, without a second mod
        if np.any((gap < 1e-13) | (gap > TWO_PI - 1e-13)):
            raise EvalAtJump(f"grid hits the jump at {j.point}")
    return s.scale * np.exp(_exponent(s, _jump_phases(s), xs, np.exp))


def eval_each(s: CanonicalSymbol, xs: Iterable[float]) -> list[complex]:
    """s at t = e^{ix} for each angle of xs, none on a jump, without numpy.

    cmath.exp raises OverflowError where a value passes the largest float.
    """
    phases = _jump_phases(s)
    return [s.scale * cmath.exp(_exponent(s, phases, x % TWO_PI, cmath.exp)) for x in xs]


def one_sided_limits(s: CanonicalSymbol, point: UnitPoint) -> tuple[complex, complex]:
    """One-sided limits (phi_minus(tau), phi_plus(tau)).

    phi_minus is the limit approaching tau counterclockwise from before,
    phi_plus from after.  The exponent at tau's own angle gives phi_plus;
    a jump at tau adds 2*pi*i*beta to it for phi_minus.
    """
    expo = _exponent(s, _jump_phases(s), point.angle, cmath.exp)
    plus = s.scale * cmath.exp(expo)
    beta = s.beta_at(point)
    if beta.is_zero:
        return plus, plus
    return s.scale * cmath.exp(expo + 2j * math.pi * beta.value), plus


def tilde(s: CanonicalSymbol) -> CanonicalSymbol:
    """The involution s~(t) = s(1/t): kappa negates, log reverses, jumps conjugate."""
    return CanonicalSymbol(
        kappa=-s.kappa,
        scale=s.scale,
        log_smooth=s.log_smooth.tilde(),
        jumps=tuple(JumpFactor(j.point.conjugate(), -j.beta) for j in s.jumps),
    )


def multiply(s1: CanonicalSymbol, s2: CanonicalSymbol) -> CanonicalSymbol:
    return CanonicalSymbol(
        kappa=s1.kappa + s2.kappa,
        scale=s1.scale * s2.scale,
        log_smooth=s1.log_smooth.plus(s2.log_smooth),
        jumps=s1.jumps + s2.jumps,
    )


def invert(s: CanonicalSymbol) -> CanonicalSymbol:
    return CanonicalSymbol(
        kappa=-s.kappa,
        scale=1.0 / s.scale,
        log_smooth=FourierLogPoly.of({k: -v for k, v in s.log_smooth.coeffs}),
        jumps=tuple(JumpFactor(j.point, -j.beta) for j in s.jumps),
    )


def symbols_equal(s1: CanonicalSymbol, s2: CanonicalSymbol) -> bool:
    """Representation equality: exact on integers and rational data, EQUAL_TOL on floats."""
    if s1.kappa != s2.kappa or abs(s1.scale - s2.scale) > EQUAL_TOL * max(1.0, abs(s1.scale)):
        return False
    d1, d2 = s1.log_smooth.as_dict(), s2.log_smooth.as_dict()
    for k in set(d1) | set(d2):
        if abs(d1.get(k, 0j) - d2.get(k, 0j)) > EQUAL_TOL:
            return False
    if len(s1.jumps) != len(s2.jumps):
        return False
    for j1, j2 in zip(s1.jumps, s2.jumps):
        if j1.point != j2.point or j1.beta.re != j2.beta.re or abs(j1.beta.im - j2.beta.im) > EQUAL_TOL:
            return False
    return True


class SymbolPair(_Record):
    """Validated pair (a, b) with the derived auxiliary functions c = a/b, d = a~/b."""

    a: CanonicalSymbol
    b: CanonicalSymbol
    c: CanonicalSymbol
    d: CanonicalSymbol


def validate_pair(a: CanonicalSymbol, b: CanonicalSymbol) -> SymbolPair:
    """Verify a*tilde(a) = b*tilde(b) and build the auxiliary pair (c, d).

    The structural parts are checked exactly: the residual
    e = c*c~ = a*a~*(b*b~)^{-1}, with c = a*b^{-1}, must have no jumps
    (exponent real parts cancel as Fractions); its winding index
    c.kappa - c.kappa is 0 by construction.  What is left is
    e = w * exp(L) with w = scale * exp(L_0): L holds the nonconstant log
    terms and the jumps with |Im beta| <= STRUCTURAL_TOL, so |L| <= R =
    sum_{k != 0} |L_k| + pi * sum |Im beta| on the whole circle, and
    |e - 1| <= |w - 1| + |w| * (exp(R) - 1).  That bound, not a
    sample, is compared to STRUCTURAL_TOL.  It places the constant
    scale * exp(L_0) of c and of d within STRUCTURAL_TOL of +1 or -1.

    Raises
    ------
    ConditionViolated
        With the deviation bound, or the jump ratio's deviation and the
        offending jump point.
    """
    b_inv = invert(b)
    c = multiply(a, b_inv)
    # from c, not from a*a~, whose scale underflows for a = b of tiny scale
    e = multiply(c, tilde(c))
    for j in e.jumps:
        if j.beta.re != 0 or abs(j.beta.im) > STRUCTURAL_TOL:
            dev = abs(cmath.exp(2j * math.pi * j.beta.value) - 1.0)
            raise ConditionViolated(
                f"a*a~ and b*b~ disagree at the jump {j.point}: residual exponent {j.beta.value}",
                deviation=dev,
                point=j.point,
            )
    r = sum(abs(v) for k, v in e.log_smooth.coeffs if k) + math.pi * sum(abs(j.beta.im) for j in e.jumps)
    try:
        w = e.scale * cmath.exp(e.log_smooth.as_dict().get(0, 0j))
        dev = abs(w - 1.0) + abs(w) * math.expm1(r)
    except OverflowError:
        dev = math.inf
    if not dev <= STRUCTURAL_TOL:
        raise ConditionViolated(f"a*a~ != b*b~ on the circle (deviation bound {dev:.3e})", deviation=dev)
    return SymbolPair(a=a, b=b, c=c, d=multiply(tilde(a), b_inv))
