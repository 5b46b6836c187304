"""Nonsymmetric E_b and integral symmetric J_lambda Macdonald polynomials
for A_n.

E_b is built by Cherednik's intertwiners (Cherednik, IMRN 1995 no. 10), in
the integral form of Knop (J. reine angew. Math. 482 (1997)), from E_0 = 1.
With v the epsilon coordinates of b:

  * if v_1 > min(v), then E_b is proportional to X_{omega_1} pi_1 E_c,
    c = (v_2, ..., v_{n+1}, v_1 - 1);
  * otherwise, with p the first position where v_p > min(v), i = p - 1 and
    c = s_i b, E_b is proportional to ((lam - 1) T_i + t^{1/2} - t^{-1/2})
    E_c, where lam = q^{c_i} t^{k_i - k_{i+1}} and k = w_c^{-1} rho is the
    t-part of c-sharp.  With rho = (n, ..., 0) and w_c the maximal sorting
    permutation of c (`weights.sort_perm_maximal`), k_i - k_{i+1} =
    w_c(i+1) - w_c(i).

The recursion ends: a pi step lowers sum(v) - (n+1) min(v) by one, and a
T step keeps it and moves the first entry above min(v) one place left.
Each step stays in lattice XPolys and divides only to cancel content: the
atoms of every lam - 1 are kept, and after each T step those that divide
every coefficient are divided out.  E_b is returned as that integral
numerator and a factored denominator, its coefficient at X_b.

J_lambda = h_lambda P_lambda comes from Hecke-symmetrizing E (the
symmetrizer factors through parabolic coset sums, so |W| never appears).
E and J are lattice XPolys, the form the operators of `daha` act on.  J
multiplies the symmetrized numerator of E by one lattice poly and divides
it exactly by another, the two sides of one factored ratio, at dominant
weights only: J is W-symmetric, so each orbit shares its dominant
weight's quotient.  Its value at the coinvariant point, the pipeline's
normalization, needs no symmetrizing (`J_value`): the symmetrizer acts on
the coinvariant as a scalar.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .scalars import binomial_fb, FactoredBinomial, InexactDivision
from . import weights as wt
from .daha import (get_rep, xp_one, xp_add_into, lp_shift, lp_add_into,
                   lp_mul, lp_divexact)


class NotMonic(Exception):
    pass


class NotSymmetric(Exception):
    """A symmetrized numerator whose coefficient at a weight is not the one
    at that weight's dominant representative."""


# ---------------------------------------------------------------------------
# the per-rank engine

class Mac:

    def __init__(self, n):
        self.n = n
        self.rep = get_rep(n)
        self._E = {}
        self._J = {}

    # -- E polynomials ---------------------------------------------------

    def E(self, b):
        """E_b as (num, den): a lattice XPoly with integer coefficients and
        a FactoredBinomial, with num[b] equal to den expanded.  The unit
        and monomial of den are what is left of num[b] after dividing out
        its atoms; if more than one term is left, NotMonic is raised."""
        b = tuple(b)
        hit = self._E.get(b)
        if hit is not None:
            return hit
        rep = self.rep
        v = wt.to_eps(b)
        lo = min(v)
        if max(v) == lo:
            num, atoms = xp_one(self.n), Counter()
        elif v[0] > lo:
            num, den = self.E(wt.from_eps(v[1:] + (v[0] - 1,)))
            num = rep.xmul(rep.omegas[1], rep.pi_op(1, num))
            atoms = Counter(den.atoms)
        else:
            i = next(p for p, x in enumerate(v) if x > lo)
            u = list(v)
            u[i - 1], u[i] = u[i], u[i - 1]
            c = wt.from_eps(tuple(u))
            num, den = self.E(c)
            w = wt.sort_perm_maximal(c)[1]
            eq, et = c[i - 1], w[i] - w[i - 1]
            L, h = rep.L, rep.half
            # lam - 1 and t^{1/2} - t^{-1/2}; the key 0 is q^0 t^0
            lam1 = lp_add_into({0: -1}, {0: 1}, eq * L, et * L)
            gap = lp_add_into(lp_shift({0: 1}, 0, h), {0: -1}, 0, -h)
            num = xp_add_into(xp_add_into({}, rep.t_op(i, num), lam1), num,
                              gap)
            atoms = Counter(den.atoms + binomial_fb(eq, et).atoms)
            num = self._cancel(num, atoms)
        lead = num.get(b, {})
        for a in atoms.elements():
            lead = lp_divexact(lead, rep.atom(a))
        if len(lead) != 1:
            raise NotMonic(f"E_{b} at X_{b} is not a monomial times its "
                           f"atoms {sorted(atoms.elements())}")
        (key, coeff), = rep.from_lattice(lead).items()
        hit = self._E[b] = (num, FactoredBinomial(coeff, key,
                                                  atoms.elements()))
        return hit

    def _cancel(self, num, atoms):
        """num with every atom of the Counter `atoms` that divides all its
        coefficients divided out, as often as it does; `atoms` loses
        them."""
        for a in list(atoms):
            div = self.rep.atom(a)
            while atoms[a]:
                try:
                    num = {c: lp_divexact(p, div) for c, p in num.items()}
                except InexactDivision:
                    break
                atoms[a] -= 1
        return num

    # -- symmetrization --------------------------------------------------

    def symmetrize(self, f):
        """Apply the Hecke symmetrizer sum_w t^{l(w)/2} T_w to the lattice
        XPoly f via coset sums."""
        rep = self.rep
        h = rep.half
        for m in range(1, self.n + 1):
            # coset factor sum_j t^{l/2} T_{s_j} ... T_{s_m}, j = m+1, ..., 1
            acc = {b: dict(c) for b, c in f.items()}
            cur = f
            for i in range(m, 0, -1):
                cur = {b: lp_shift(c, 0, h)
                       for b, c in rep.t_op(i, cur).items()}
                xp_add_into(acc, cur)
            f = acc
        return f

    def J(self, lam):
        """Integral J_lambda = h_lambda P_lambda as a lattice XPoly.

        Monic P_lambda is symmetrize(E_b) over its coefficient at X_b, the
        Poincare polynomial of the stabilizer of b in S_{n+1}: the product
        of [m]_t! over the multiplicities m of b's epsilon coordinates
        (`weights.poincare`).  So J is the symmetrized numerator of E_b
        times h_lambda / (poincare(b) den), a ratio whose shared atoms are
        cancelled before both sides are expanded.  The numerator at X_b is
        checked against poincare(b) den.

        J is W-symmetric, so the divide runs at dominant weights only: J is
        integral, and a coefficient there that the divisor does not divide
        raises InexactDivision.  Every other weight is filled from its
        orbit's dominant weight, sharing that quotient's dict, once its
        numerator is checked to equal the dominant one's (NotSymmetric
        otherwise).  The dicts are never mutated: J is cached and shared.
        """
        lam = tuple(lam)
        hit = self._J.get(lam)
        if hit is None:
            b = wt.to_weight(lam, self.n)
            num, den = self.E(b)
            lat = self.symmetrize(num)
            stab = wt.poincare(b)
            lead = stab.mul(den)
            if lat.get(b) != self.rep.expand(lead):
                raise NotMonic(f"symmetrize(E_{b}) at X_{b} is not the "
                               f"stabilizer's {stab}")
            up, down = self._ratio(wt.h_lambda(lam), lead)
            quo = {}
            hit = {}
            for c, v in lat.items():
                d = wt.sort_perm_maximal(c)[0]
                if lat.get(d) != v:
                    raise NotSymmetric(f"symmetrize(E_{b}) at X_{c} is not "
                                       f"its value at X_{d}")
                q = quo.get(d)
                if q is None:
                    q = quo[d] = lp_divexact(lp_mul(v, up), down)
                hit[c] = q
            self._J[lam] = hit
        return hit

    def J_value(self, lam):
        """J_lambda at the coinvariant point (`Rep.coinvariant`), from E_b
        without symmetrizing.  The coinvariant of T_i f is t^{1/2} times
        that of f for i = 1..n (Cherednik, arXiv:1111.6195; the identity
        `daha.apply_weights` reflects by at the point), so the symmetrizer
        multiplies it by sum_w t^{l(w)}, the Poincare polynomial of
        S_{n+1}: the value is E_b's numerator's times
        h_lambda poincare(0) / (poincare(b) den)."""
        b = wt.to_weight(lam, self.n)
        num, den = self.E(b)
        up, down = self._ratio(
            wt.h_lambda(lam).mul(wt.poincare((0,) * self.n)),
            wt.poincare(b).mul(den))
        return lp_divexact(lp_mul(self.rep.coinvariant(num), up), down)

    def _ratio(self, up, down):
        """The FactoredBinomials up / down with their shared atoms
        cancelled, each expanded to a lattice poly."""
        return map(self.rep.expand, up.cancel(down))


@lru_cache(maxsize=None)
def get_mac(n):
    return Mac(n)
