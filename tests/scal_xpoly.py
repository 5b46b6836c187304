"""XPolys with Scal coefficients.

The operators of `daha` act on lattice XPolys, and `Mac.J` is one; `Mac.E`
is one over a factored denominator.  The oracles and checks in the tests
work on Scal XPolys with the helpers below; `xp_to_lattice` and `to_scal`
convert between the two forms, `e_scal` turns `Mac.E`'s pair into one,
`p_scal` gives monic P_lambda as J_lambda over h_lambda, `apply_linear`
applies an operator to a Scal XPoly by linearity, one monomial at a time,
and `j_scal` builds J_lambda by Scal division, the oracle of `Mac.J`.
"""

from fractions import Fraction

from dahalink import weights as wt
from dahalink.daha import OffLattice
from scal import Scal
from weyl import EvalPoint, rho_eps

HALF = Fraction(1, 2)


def xp_one(n):
    return {wt.zero(n): Scal.one()}


def xp_mono(b, coeff=None):
    return {tuple(b): coeff if coeff is not None else Scal.one()}


def xp_add_into(acc, f, scale=None):
    for b, c in f.items():
        v = c if scale is None else c.mul(scale)
        cur = acc.get(b)
        s = v if cur is None else cur.add(v)
        if s.is_zero():
            acc.pop(b, None)
        else:
            acc[b] = s
    return acc


def xp_add(f, g):
    return xp_add_into(dict(f), g)


def xp_scale(f, scal):
    if scal.is_zero():
        return {}
    return {b: c.mul(scal) for b, c in f.items()}


def xp_mul(f, g):
    acc = {}
    for b1, c1 in f.items():
        for b2, c2 in g.items():
            xp_add_into(acc, {wt.wt_add(b1, b2): c1.mul(c2)})
    return acc


def xp_eq(f, g):
    zero = Scal.zero()
    for b in set(f) | set(g):
        if not f.get(b, zero).sub(g.get(b, zero)).is_zero():
            return False
    return True


def minus_rho_k(n):
    """The coinvariant point q^{-rho_k}: X_a -> t^{-(rho,a)}."""
    return EvalPoint((0,) * (n + 1), tuple(-x for x in rho_eps(n)))


def xp_eval(f, point):
    """Evaluate at an EvalPoint; returns Scal."""
    acc = Scal.zero()
    for b, c in f.items():
        eq, et = point.exponents(b)
        acc = acc.add(c.scale(1, (eq, et, 0)))
    return acc


def xp_to_lattice(rep, f):
    """A Scal XPoly of rank rep.n, each coefficient a poly, in lattice
    form; a coefficient with a denominator raises OffLattice."""
    out = {}
    for b, c in f.items():
        if c.den:
            raise OffLattice(f"coefficient of X_{b} has the denominator "
                             f"{c.den}")
        out[b] = rep.to_lattice(c.num)
    return out


def to_scal(rep, f):
    """A lattice XPoly of rank rep.n as a Scal XPoly."""
    return {b: Scal(rep.from_lattice(c)) for b, c in f.items()}


def e_scal(mac, b):
    """E_b as a Scal XPoly: `Mac.E`'s numerator over its denominator, so
    the coefficient at X_b is 1."""
    num, den = mac.E(b)
    return {c: Scal(mac.rep.from_lattice(v)).div(den)
            for c, v in num.items()}


def p_scal(mac, lam):
    """Monic P_lambda = J_lambda / h_lambda as a Scal XPoly."""
    h = wt.h_lambda(lam)
    return {c: Scal(mac.rep.from_lattice(v)).div(h)
            for c, v in mac.J(lam).items()}


def apply_linear(rep, op, f):
    """op, a linear map of lattice XPolys, applied to the Scal XPoly f."""
    out = {}
    for b, c in f.items():
        xp_add_into(out, to_scal(rep, op(xp_to_lattice(rep, xp_mono(b)))), c)
    return out


def j_scal(mac, lam):
    """J_lambda as a Scal XPoly, by Scal division: each coefficient of the
    symmetrized numerator of E_b over its denominator, divided by the
    stabilizer's Poincare product and multiplied by h_lambda."""
    b = wt.to_weight(lam, mac.n)
    num, den = mac.E(b)
    inv = Scal.one().div(wt.poincare(b).mul(den))
    h = Scal(wt.h_lambda(lam).expand())
    return {c: Scal(mac.rep.from_lattice(v)).mul(inv).mul(h)
            for c, v in mac.symmetrize(num).items()}
