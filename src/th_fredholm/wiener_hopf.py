"""The coefficients of rho, from the antisymmetric factorization c = c_+ t^{2n} c_+(1/t)^{-1}.

The plus factors are fredholm_engine.build_plus_factor's structured form: a constant, the analytic half
of the smooth log, and (point, exponent) pairs of eta factors (1 - t/tau)^beta.  Their series converge too
slowly near the jump points for pointwise work, so rho takes its values from the structure instead.

rho is analytic between its sites and behaves like |x - x_s|^{beta_s} at a site, beta_s exact from the
structure.  rho_parts reads rho once off the normalized pair and b into a site product
(quadrature.SiteProduct), which the rule, its bound and the oracle all read.  The coefficients come from
quadrature.integrate, the rule a symbol's come from too: panels graded into the sites where rho is
singular, an FFT-summed grid where it is analytic, and an a-priori error bound.  The second route,
tanh-sinh quadrature on the same values, is verification_oracle.rho_de.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fredholm_engine import NormalizedRep, build_plus_factor
from .quadrature import SiteProduct, integrate, site_product
from .symbol_core import CanonicalSymbol, Exponent, _Record


class RhoSeries(_Record, eq=False):
    """Two-sided coefficients of rho with their error figure and the parts they integrate.

    coeffs[k - ks.start] holds rho_k for k in ks, a contiguous range: the k
    the defect matrix or the kernel check reads, or a symmetric range for
    verify's evenness and oracle gates.  tail_bound is a bound on
    max |rho_k - coeffs| over ks, and inner_N the node count of the rule.
    parts (rho_parts) are what the oracle integrates rho from again.
    """

    coeffs: np.ndarray
    ks: range
    inner_N: int
    tail_bound: float
    parts: SiteProduct

    def get(self, k: int) -> complex:
        if k not in self.ks:
            raise IndexError(f"rho_{k} not kept (k in {self.ks.start}..{self.ks.stop - 1})")
        return complex(self.coeffs[k - self.ks.start])

    def evenness_defect(self) -> float:
        if self.ks.start != 1 - self.ks.stop:
            raise ValueError(f"evenness needs a symmetric range, have {self.ks}")
        return float(np.max(np.abs(self.coeffs - self.coeffs[::-1])))


def rho_parts(rep_c: NormalizedRep, rep_d: NormalizedRep, b: CanonicalSymbol) -> SiteProduct:
    """The parts of rho = t^{-m-n}(1+t)(1+1/t) c_+(1/t) d_+(1/t) / b, from the normalized pair and b.

    c_+(1/t) and d_+(1/t) are singular at the conjugates of their eta points, (1+t)(1+1/t) adds 2 at -1, and
    +1 and the jump points of b are sites with whatever exponent the factors leave there.  Past the Fredholm
    gate every Re beta_s exceeds -1; raises ValueError, naming the turn, where one does not, since rho is then
    not integrable.  b enters over its constant lam = scale e^{log_0}: this is the rho of (a/lam, b/lam),
    whose c, d and defect numbers are those of (a, b), and whose constant c_+ d_+ stays of order 1 however
    far lam lies past the float range.
    """
    c_plus, d_plus = build_plus_factor(rep_c), build_plus_factor(rep_d)
    zero = Exponent(Fraction(0))
    sites = {Fraction(0): zero, Fraction(1, 2): Exponent(Fraction(2))}
    for point in b.jump_points:
        sites.setdefault(point.turns, zero)
    for factor in (c_plus, d_plus):
        for point, e in factor.eta_exponents:
            turn = point.conjugate().turns
            sites[turn] = sites.get(turn, zero) + e
    for turn, e in sites.items():
        if e.re <= -1:
            raise ValueError(f"net exponent {e.re} at turn {turn} makes rho non-integrable")
    turns = sorted(sites)
    laurent = c_plus.analytic_log.tilde().plus(d_plus.analytic_log.tilde()).plus(b.log_smooth, -1).as_dict()
    laurent.pop(0, None)  # -log_0 of b, as the plus factors' logs hold only k >= 1: rho reads no constant of b
    const = c_plus.constant * d_plus.constant
    logs = (b.log_smooth, c_plus.analytic_log, d_plus.analytic_log)
    top = max((abs(k) for f in logs for k, _ in f.coeffs), default=0)
    jumps = {j.point.turns: j.beta.value for j in b.jumps}
    betas = [complex(sites[t].value) for t in turns]
    etas = [beta - (2 if t == Fraction(1, 2) else 0) for t, beta in zip(turns, betas)]
    phases = [eta / 2 + jumps.get(t, 0) for t, eta in zip(turns, etas)]
    power = -rep_c.n - rep_d.n - b.kappa
    return site_product(turns, const, laurent, power, top, betas, etas, phases)


def rho_coefficients(rep_c: NormalizedRep, rep_d: NormalizedRep, b: CanonicalSymbol, keep: int | range) -> RhoSeries:
    """Two-sided Fourier coefficients of rho = t^{-m-n}(1+t)(1+1/t) c_+(1/t) d_+(1/t) / b.

    rho is fixed by the normalized pair (rep_c, rep_d), n = rep_c.n and m = rep_d.n, and by b divided by its
    constant (rho_parts), so the coefficients are those of the pair divided by b's constant.  rho_k =
    (1/2pi) int rho(e^{ix}) e^{-ikx} dx for k in keep, a contiguous range, or |k| <= keep when it is an
    int, by quadrature.integrate over rho_parts; inner_N is its node count and tail_bound its bound.
    """
    ks = keep if isinstance(keep, range) else range(-keep, keep + 1)
    parts = rho_parts(rep_c, rep_d, b)
    coeffs, layout, terms = integrate(parts, ks)
    return RhoSeries(coeffs, ks, sum(layout.values()), sum(terms.values()), parts)
