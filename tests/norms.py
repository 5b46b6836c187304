"""Test oracle: closed evaluations, spherical norms and the mu-pairing.

The package evaluates J_lambda at the coinvariant point q^{-rho_k} only
from its own E_b (`Mac.J_value`).  Tests check E and P against
independent routes: the closed product P_lambda(q^{-rho_k}) (`P_eval`),
E_b(q^{-rho_k}) from the Lambda_b^+ products, the spherical norm from its
finite product and its a-stable form, and the truncated constant-term
mu-pairing that all of them must agree with.  `div_j_eval_scal` divides by
h_lambda times the closed product in Scal form: it is the oracle of the
normalization divide `pipeline._div_j_eval`.
"""

from fractions import Fraction
from functools import lru_cache

from dahalink import weights as wt
from dahalink.scalars import (FactoredBinomial, pmono, pone, pmul,
                              padd_into, pscale, _ex, _cyclo_coeffs,
                              binomial_fb)
from dahalink.macdonald import get_mac
from scal import Scal
from scal_xpoly import xp_one, xp_add_into, xp_scale, xp_mul, p_scal
from weyl import eval_products, pairing


def _rho_weight(n):
    return tuple([1] * n)


@lru_cache(maxsize=None)
def P_eval(mac, lam):
    """Closed-form P_lambda(q^{-rho_k}) as (num, den) FactoredBinomials,
    the power of t folded into num: a product over pairs of b's epsilon
    coordinates."""
    b = wt.to_weight(lam, mac.n)
    vb = wt.to_eps(b)
    n1 = mac.n + 1
    num = FactoredBinomial.one()
    den = FactoredBinomial.one()
    for l in range(n1):
        for m in range(l + 1, n1):
            p = m - l
            for j in range(0, vb[l] - vb[m]):
                num = num.mul(binomial_fb(j, p + 1))
                den = den.mul(binomial_fb(j, p))
    shift = -pairing(b, _rho_weight(mac.n))
    return num.mul(FactoredBinomial(1, (0, shift, 0))), den


def ratio_scal(num, den, t_shift):
    """num/den FactoredBinomials times t^{t_shift}, as a Scal."""
    key = (_ex(-den.key[0]), _ex(t_shift - den.key[1]), -den.key[2])
    return Scal(pscale(num.expand(), Fraction(1) / den.coeff, key), den.atoms)


def E_eval(mac, b):
    """Closed-form E_b(q^{-rho_k}) as a Scal."""
    b_plus, _ = wt.sort_perm_maximal(b)
    num, den = eval_products(b)
    t_shift = -pairing(b_plus, _rho_weight(mac.n))
    return ratio_scal(num, den, t_shift)


def div_j_eval_scal(val, rank, lam):
    """The Scal val over J_lam at the coinvariant point, h_lam
    P_lam(q^{-rho_k}): times the P_eval denominator, divided by h_lam times
    its numerator, once the atoms they share are cancelled.  An atom that
    does not divide the value stays in the denominator."""
    if not lam:
        return val
    num, den = P_eval(get_mac(rank), lam)
    num, den = wt.h_lambda(lam).mul(num).cancel(den)
    return val.mul(Scal(den.expand())).div(num)


def P_spherical(mac, lam):
    num, den = P_eval(mac, lam)
    return xp_scale(p_scal(mac, lam), Scal(den.expand()).div(num))


def norm_spherical(mac, lam):
    """<P°_lam, P°_lam> by the closed product."""
    b = wt.to_weight(lam, mac.n)
    vb = wt.to_eps(b)
    n1 = mac.n + 1
    num = FactoredBinomial.one()
    den = FactoredBinomial.one()
    nfac = 0
    for l in range(n1):
        for m in range(l + 1, n1):
            p = m - l
            for j in range(0, vb[l] - vb[m]):
                # the t^{-1} in each (t^{-1} - q^j t^p) is pulled out front
                num = num.mul(binomial_fb(j + 1, p - 1))
                num = num.mul(binomial_fb(j, p))
                den = den.mul(binomial_fb(j + 1, p))
                den = den.mul(binomial_fb(j, p + 1))
                nfac += 1
    return ratio_scal(num, den, nfac)


def norm_stable(lam):
    """a-stable spherical norm (a^2)^{|lam|/2} t^{-|lam|-2n(lam)} hh'/(gg').

    n(lam) = sum (p-1)*lam_p.  The prefactor reduces to
    (a^2)^{lam_1/2} t^{-|lam|} for single-row shapes; the general form is
    fixed by requiring the a = -t^{n+1} substitution to reproduce the
    rank-n spherical norm for every n (checked against the finite norm
    product and the truncated constant-term pairing).
    """
    h = wt.h_lambda(lam)
    hp = FactoredBinomial.one()
    for arm, leg in wt.arm_leg(lam):
        hp = hp.mul(binomial_fb(arm + 1, leg))
    g_atoms = []
    for p, row in enumerate(lam, start=1):
        for j in range(row):
            g_atoms.append(('a', _ex(j), _ex(1 - p)))       # 1 + q^j a t^{1-p}
            g_atoms.append(('a', _ex(j + 1), _ex(-p)))      # 1 + q^{j+1} a t^{-p}
    num = pmul(h.expand(), hp.expand())
    size = sum(lam)
    nlam = sum((p - 1) * r for p, r in enumerate(lam, start=1))
    # (a^2)^{|lam|/2} is the positive branch, i.e. (-a)^{|lam|} under
    # a = -t^{n+1}
    sign = -1 if size % 2 else 1
    return Scal(pscale(num, sign, (0, _ex(-size - 2 * nlam), size)),
                g_atoms)


# ---------------------------------------------------------------------------
# truncated mu-pairing

def _binom_poly(j, p):
    """1 - q^j t^p as a poly dict (p may be 0 or negative)."""
    out = {(0, 0, 0): 1}
    padd_into(out, pmono(j, p, 0, -1))
    return out


def star_scal(c):
    """q -> 1/q, t -> 1/t on a Scal.  Phi_d is palindromic, so starring a
    denominator atom only produces a monomial (and a sign for d = 1)."""
    num = {(_ex(-k[0]), _ex(-k[1]), k[2]): v for k, v in c.num.items()}
    eq = et = 0
    sign = 1
    for atm in c.den:
        if atm[0] != 'c':
            raise NotImplementedError("star of an a-linear atom")
        _, d, aq, at = atm
        phi = len(_cyclo_coeffs(d)) - 1          # deg Phi_d = phi(d)
        eq = _ex(eq + phi * aq)
        et = _ex(et + phi * at)
        if d == 1:
            sign = -sign
    return Scal(pscale(num, sign, (eq, et, 0)), c.den)


def star_xpoly(f):
    """f* : X_b -> X_{-b}, q -> 1/q, t -> 1/t."""
    return {wt.wt_neg(b): star_scal(c) for b, c in f.items()}


def _mu_truncated(n, N, box):
    """mu(X; q, t) through q-order N, keeping X-weights inside the box."""
    mu = xp_one(n)
    roots = [wt.from_eps(tuple((1 if i == l else (-1 if i == m else 0))
                               for i in range(n + 1)))
             for l in range(n + 1) for m in range(l + 1, n + 1)]

    def truncate(f):
        out = {}
        for b, c in f.items():
            v = wt.to_eps(b)
            if max(v) - min(v) > box:
                continue
            num = {k: x for k, x in c.as_poly().items() if k[0] <= N}
            if num:
                out[b] = Scal(num)
        return out

    for al in roots:
        mal = wt.wt_neg(al)
        for j in range(N + 1):
            fac = {wt.zero(n): Scal.one()}
            xp_add_into(fac, {al: Scal.mono(eq=j, c=-1)})
            xp_add_into(fac, {mal: Scal.mono(eq=j + 1, c=-1)})
            xp_add_into(fac, {wt.wt_add(al, mal): Scal.mono(eq=2 * j + 1)})
            # that's (1 - X q^j)(1 - X^-1 q^{j+1}); divide by the two
            # t-shifted factors via geometric series
            mu = truncate(xp_mul(mu, fac))
            for root, qe, te in ((al, j, 1), (mal, j + 1, 1)):
                # multiply by 1/(1 - X_root t q^qe)
                mx = box + 1 if qe == 0 else N // qe + 1
                ser = {wt.zero(n): Scal.one()}
                cur = xp_one(n)
                for m2 in range(1, mx + 1):
                    cur = xp_mul(cur, {root: Scal.mono(eq=qe, et=te)})
                    xp_add_into(ser, cur)
                mu = truncate(xp_mul(mu, ser))
    return mu


def _mu_ct(n, N):
    """<mu> through q-order N (the constant-term product)."""
    out = pone()
    inv = pone()
    for l in range(n + 1):
        for m in range(l + 1, n + 1):
            p = m - l
            for i in range(1, N + 1):
                out = pmul(out, pmul(_binom_poly(i, p), _binom_poly(i, p)))
                for pp in (p + 1, p - 1):
                    ser = {(0, 0, 0): 1}
                    cur = (0, 0, 0)
                    while True:
                        cur = (_ex(cur[0] + i), _ex(cur[1] + pp), 0)
                        if cur[0] > N:
                            break
                        padd_into(ser, {cur: 1})
                    inv = pmul(inv, ser)
    out = pmul(out, inv)
    return {k: v for k, v in out.items() if k[0] <= N}


def _series_inv(p, N):
    """Inverse of a q-series with unit constant term, through order N."""
    c0 = p.get((0, 0, 0))
    assert c0 == 1, "series must start at 1"
    inv = {(0, 0, 0): 1}
    rest = {k: v for k, v in p.items() if k != (0, 0, 0)}
    term = {(0, 0, 0): 1}
    for _ in range(N):
        term = pmul(term, pscale(rest, -1))
        term = {k: v for k, v in term.items() if k[0] <= N}
        if not term:
            break
        padd_into(inv, term)
    return inv


def mu_inner_truncated(f, g, n, N):
    """<f* g mu>/<mu> through q-order N; a Scal whose numerator is the
    truncated q-series (denominators with nonzero q-content only shift
    orders above N)."""
    box = 0
    for h in (f, g):
        for b in h:
            v = wt.to_eps(b)
            box = max(box, max(v) - min(v))
    box = 2 * box + 2 * N + 2
    mu = _mu_truncated(n, N, box)
    prod = xp_mul(xp_mul(star_xpoly(f), g), mu)
    ct = prod.get(wt.zero(n))
    if ct is None:
        return Scal.zero()
    num = {k: v for k, v in ct.num.items() if k[0] <= N}
    num = pmul(num, _series_inv(_mu_ct(n, N), N))
    num = {k: v for k, v in num.items() if k[0] <= N}
    return Scal(num, ct.den)
