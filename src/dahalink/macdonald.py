"""Nonsymmetric E_b and symmetric P_lambda Macdonald polynomials for A_n.

E_b is produced as the joint Y-eigenvector on the dominance-bounded monomial
span.  The Y-operators are triangular there with monomial diagonal
q^{-(w_i, c-sharp)}, so each coefficient is solved once, after those its row
reaches (a dependency cycle means Y is not triangular):

    x_c  =  (sum_{d != c} (Y_i X_d)_c x_d) / (lam_b - lam_c)

All divisions are by monomial differences lam_b - lam_c, i.e. by binomial
atoms, so coefficients stay inside the restricted fraction ring of `scalars`.

J_lambda = h_lambda P_lambda comes from Hecke-symmetrizing E (the
symmetrizer factors through parabolic coset sums, so |W| never appears),
and the closed evaluation P_lambda(q^{-rho_k}) is a product over pairs of
b's epsilon coordinates.

E and P keep Scal coefficients; J is a lattice XPoly, the form the
operators of `daha` act on.  E reaches them by linearity: the Y-columns act
on monomials, and the symmetrizer acts on E's numerators over one common
denominator.  J divides those numerators by one factored divisor, so it
never passes through a Scal.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter

from .scalars import (Scal, _ex, binomial_fb, FactoredBinomial, pmul,
                      atom_expand_cached)
from . import weights as wt
from .daha import get_rep, xp_mono, xp_add_into, lp_shift, lp_divide


class EigenvalueCollision(Exception):
    pass


class NonTerminating(Exception):
    pass


class NotMonic(Exception):
    pass


# ---------------------------------------------------------------------------
# dominance spans

def _dominated_partitions(vplus):
    """All weakly decreasing integer vectors below vplus in dominance order
    (same length, same sum)."""
    n1 = len(vplus)
    total = sum(vplus)
    prefix = [0]
    for x in vplus:
        prefix.append(prefix[-1] + x)
    out = []

    def rec(acc, ssum):
        i = len(acc)
        if i == n1:
            out.append(tuple(acc))
            return
        hi = acc[-1] if acc else vplus[0]
        hi = min(hi, prefix[i + 1] - ssum)
        # the entries from here on are <= x, so ssum + x*(n1 - i) >= total
        lo = -((ssum - total) // (n1 - i))
        for x in range(hi, lo - 1, -1):
            rec(acc + [x], ssum + x)

    rec([], 0)
    return out


def _orbit(mu):
    from itertools import permutations
    seen = set()
    for p in permutations(mu):
        seen.add(p)
    return seen


def span_weights(b):
    """Weights c with c_+ dominated by b_+ and c = b mod Q."""
    b_plus, _ = wt.sort_perm_maximal(b)
    vplus = wt.to_eps(b_plus)
    out = []
    for mu in _dominated_partitions(vplus):
        for v in _orbit(mu):
            out.append(wt.from_eps(v))
    return out


# ---------------------------------------------------------------------------
# the per-rank engine

class Mac:

    def __init__(self, n):
        self.n = n
        self.rep = get_rep(n)
        self._E = {}
        self._J = {}
        self._eval = {}

    # -- eigenvalues -----------------------------------------------------

    def eigen_exp(self, i, c):
        """(q-exp, t-exp) of q^{-(w_i, c-sharp)}."""
        _, _, pt = wt.sharp_point(c)
        eq, et = pt.exponents(self.rep.omegas[i])
        return (_ex(-eq), _ex(-et))

    # -- E polynomials ---------------------------------------------------

    def E(self, b):
        """E_b as {weight: Scal}, with coefficient 1 at X_b."""
        b = tuple(b)
        hit = self._E.get(b)
        if hit is not None:
            return hit
        span = span_weights(b)
        lam_b = [None] + [self.eigen_exp(i, b) for i in range(1, self.n + 1)]
        # pick a resolving Y-direction for every other span weight
        direction = {}
        lam = {}
        for c in span:
            if c == b:
                continue
            for i in range(1, self.n + 1):
                e = self.eigen_exp(i, c)
                if e != lam_b[i]:
                    direction[c] = i
                    lam[c] = e
                    break
            else:
                raise EigenvalueCollision((b, c))
        rep = self.rep
        used = sorted(set(direction.values()))
        cols = {i: {} for i in used}
        for i in used:
            om = rep.omegas[i]
            for d in span:
                col = rep.y_op(om, xp_mono(d))
                eq, et = self.eigen_exp(i, d)
                if col.get(d) != rep.to_lattice({(eq, et, 0): 1}):
                    raise NonTerminating(f"Y_{i} not triangular at {d}")
                cols[i][d] = col
        # row c of Y_i E_b = lam_b E_b gives x_c from the x_d whose column
        # has an X_c term; sums and the result run in span order, b first
        rows = [b] + list(direction)
        deps = {c: [d for d in rows if d != c and c in cols[i][d]]
                for c, i in direction.items()}
        try:
            order = [c for c in TopologicalSorter(deps).static_order()
                     if c != b]
        except CycleError as e:
            raise NonTerminating(f"Y not triangular: {e.args[1]}") from None
        x = {b: Scal.one()}
        for c in order:
            i = direction[c]
            acc = Scal.zero()
            for d in deps[c]:
                if d in x:
                    y = Scal(rep.from_lattice(cols[i][d][c]))
                    acc = acc.add(y.mul(x[d]))
            if acc.is_zero():
                continue
            # lam_b - lam_c = q^. t^. (1 - q^. t^.), kept factored
            lb, lc = lam_b[i], lam[c]
            diff = binomial_fb(lc[0] - lb[0], lc[1] - lb[1]).mul(
                FactoredBinomial(1, (lb[0], lb[1], 0)))
            x[c] = acc.div(diff)
        x = {c: x[c] for c in rows if c in x}
        self._E[b] = x
        return x

    # -- symmetrization --------------------------------------------------

    def symmetrize(self, f):
        """Apply the Hecke symmetrizer sum_w t^{l(w)/2} T_w via coset sums.

        f's Scal coefficients are put over one common denominator, and the
        coset sums act on the numerators in lattice form.  Returns those
        numerators as a lattice XPoly together with the denominator, a
        FactoredBinomial of atoms.
        """
        rep = self.rep
        den = Counter()
        for c in f.values():
            den |= Counter(c.den)
        lat = {}
        for b, c in f.items():
            num = c.num
            for atm in (den - Counter(c.den)).elements():
                num = pmul(num, atom_expand_cached(atm))
            lat[b] = rep.to_lattice(num)
        h = rep.half
        for m in range(1, self.n + 1):
            # coset factor sum_j t^{l/2} T_{s_j} ... T_{s_m}, j = m+1, ..., 1
            acc = {b: dict(c) for b, c in lat.items()}
            cur = lat
            for i in range(m, 0, -1):
                cur = {b: lp_shift(c, 0, h)
                       for b, c in rep.t_op(i, cur).items()}
                xp_add_into(acc, cur)
            lat = acc
        return lat, FactoredBinomial(1, (0, 0, 0), den.elements())

    def J(self, lam):
        """Integral J_lambda = h_lambda P_lambda as a lattice XPoly.

        Monic P_lambda is symmetrize(E_b) over its coefficient at X_b, the
        Poincare polynomial of the stabilizer of b in S_{n+1}: the product
        of [m]_t! over the multiplicities m of b's epsilon coordinates
        (`weights.poincare`).  So J is the symmetrized numerators over one
        factored divisor, poincare(b) den / h_lambda.  The numerator at X_b
        is checked against poincare(b) den; J is integral, so an atom of
        the divisor that does not divide raises InexactDivision.
        """
        lam = tuple(lam)
        hit = self._J.get(lam)
        if hit is None:
            b = wt.to_weight(lam, self.n)
            lat, den = self.symmetrize(self.E(b))
            stab = wt.poincare(b)
            lead = stab.mul(den)
            if lat.get(b) != self.rep.to_lattice(lead.expand()):
                raise NotMonic(f"symmetrize(E_{b}) at X_{b} is not the "
                               f"stabilizer's {stab}")
            div = self.rep.divisor(lead, wt.h_lambda(lam))
            hit = self._J[lam] = {c: lp_divide(v, div)
                                  for c, v in lat.items()}
        return hit

    def P(self, lam):
        """Monic P_lambda = J_lambda / h_lambda, with Scal coefficients."""
        h = wt.h_lambda(lam)
        return {c: Scal(self.rep.from_lattice(v)).div(h)
                for c, v in self.J(lam).items()}

    def P_eval(self, lam):
        """Closed-form P_lambda(q^{-rho_k}) as (num, den) FactoredBinomials,
        the power of t folded into num."""
        lam = tuple(lam)
        hit = self._eval.get(lam)
        if hit is None:
            b = wt.to_weight(lam, self.n)
            vb = wt.to_eps(b)
            n1 = self.n + 1
            num = FactoredBinomial.one()
            den = FactoredBinomial.one()
            for l in range(n1):
                for m in range(l + 1, n1):
                    p = m - l
                    for j in range(0, vb[l] - vb[m]):
                        num = num.mul(binomial_fb(j, p + 1))
                        den = den.mul(binomial_fb(j, p))
            shift = -wt.pairing(b, _rho_weight(self.n))
            hit = (num.mul(FactoredBinomial(1, (0, shift, 0))), den)
            self._eval[lam] = hit
        return hit


def _rho_weight(n):
    return tuple([1] * n)


@lru_cache(maxsize=None)
def get_mac(n):
    return Mac(n)
