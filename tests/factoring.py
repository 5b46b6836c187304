"""Test oracle: factor a poly into a unit, a monomial and binomial atoms.

The package never factors a polynomial: every divisor is built factored
where it arises, as a FactoredBinomial.  Tests that
invert a general Scal (a coinvariant ratio, a closed evaluation, a norm)
recover the factors with the trial-division search below.
"""

from fractions import Fraction
from math import gcd

from dahalink.scalars import (
    FactoredBinomial, ZeroPolynomial, pone, pmono, pmul, pscale,
    binomial_atoms, a_atom, atom_expand_cached, key_mul, poly_text, _ex,
)
from scal import Scal, pdivides


class NotABinomialProduct(Exception):
    pass


def factor_binomials(p):
    """Write p as c * q^. t^. a^. * prod(atoms); NotABinomialProduct if not.

    Handles products of (1 +- q^i t^j) binomials and (1 + mono * a) factors
    times a monomial, which covers leading coefficients of symmetrizations and
    all evaluation products.
    """
    if not p:
        raise ZeroPolynomial
    if len(p) == 1:
        (k, c), = p.items()
        return (Fraction(c), k, ())
    # peel a-linear factors first: if max a-degree > 0 try candidates from
    # the a-degree-1 part
    amax = max(k[2] for k in p)
    if amax > 0:
        low = min((k for k in p if k[2] == 0), default=None)
        if low is None:
            raise NotABinomialProduct("pure a-divisible input")
        for k in sorted(p):
            if k[2] != 1:
                continue
            atm = a_atom(k[0], k[1])
            quo = pdivides(p, atom_expand_cached(atm))
            if quo is not None:
                c, key, atoms = factor_binomials(quo)
                return (c, key, tuple(sorted(atoms + (atm,))))
        raise NotABinomialProduct("no a-linear factor divides input")
    # a-free: strip monomial so the minimal (et, eq) term is the constant
    lead = min(p, key=lambda k: (k[1], k[0]))
    c0 = Fraction(p[lead])
    work = pscale(p, 1 / c0, (_ex(-lead[0]), _ex(-lead[1]), 0))
    atoms = []
    while len(work) > 1:
        cands = sorted((k for k in work if k != (0, 0, 0)),
                       key=lambda k: (abs(k[0]) + abs(k[1]), k))
        done = False
        for k in cands:
            sgn = work[k]
            plus = sgn > 0
            try:
                bc, bk, batoms = binomial_atoms(k[0], k[1], plus=plus)
            except ZeroPolynomial:
                continue
            div = pmono(bk[0], bk[1], 0, bc)
            for atm in batoms:
                div = pmul(div, atom_expand_cached(atm))
            quo = pdivides(work, div)
            if quo is None and len(cands) > 1:
                continue
            if quo is None:
                break
            work = quo
            c0 = c0 * bc
            lead = key_mul(lead, bk)
            atoms.extend(batoms)
            done = True
            break
        if not done:
            # fall back to single cyclotomic factors Phi_d(q^i t^j); these
            # arise in Poincare-polynomial leading coefficients (1 + t + t^2)
            for k in cands:
                if isinstance(k[0], Fraction) or isinstance(k[1], Fraction):
                    continue
                g = gcd(abs(k[0]), abs(k[1]))
                if g == 0:
                    continue
                aq, at = k[0] // g, k[1] // g
                if (at, aq) < (0, 0) or (at == 0 and aq < 0):
                    aq, at = -aq, -at
                step = abs(aq) + abs(at)
                span = max((abs(j[0]) + abs(j[1])) // step for j in work)
                for d in range(2, 2 * span + 3):
                    atm = ('c', d, aq, at)
                    quo = pdivides(work, atom_expand_cached(atm))
                    if quo is not None:
                        work = quo
                        atoms.append(atm)
                        done = True
                        break
                if done:
                    break
        if not done:
            raise NotABinomialProduct(poly_text(p))
    if (0, 0, 0) not in work:
        raise NotABinomialProduct(poly_text(p))
    c0 = c0 * work[(0, 0, 0)]
    return (c0, lead, tuple(sorted(atoms)))


def factored(p):
    """p as a FactoredBinomial."""
    return FactoredBinomial(*factor_binomials(p))


def scal_inv(s):
    """1/s, for a Scal whose numerator factors into binomial atoms."""
    num = pone()
    for atm in s.den:
        num = pmul(num, atom_expand_cached(atm))
    return Scal(num).div(factored(s.num))
