"""Nonsymmetric E_b and symmetric P_lambda Macdonald polynomials for A_n.

E_b is produced as the joint Y-eigenvector on the dominance-bounded monomial
span.  The Y-operators are lower-triangular there with monomial diagonal
q^{-(w_i, c-sharp)}, so the eigenvector equations can be solved by a plain
fixed-point sweep

    x_c  <-  ((M x)_c - lam_c x_c) / (lam_b - lam_c)

which stabilizes after at most the triangular depth of the span.  All
divisions are by monomial differences lam_b - lam_c, i.e. by binomial atoms,
so coefficients stay inside the restricted fraction ring of `scalars`.

P_lambda comes from Hecke-symmetrizing E (the symmetrizer factors through
parabolic coset sums, so |W| never appears), J = h_lambda P, and the closed
evaluation/norm products are built straight from Lambda_b^+.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalars import (Scal, pmono, pone, pmul, padd_into, pscale, _ex,
                      _cyclo_coeffs, binomial_fb, FactoredBinomial)
from . import weights as wt
from .daha import get_rep, xp_one, xp_mono, xp_add_into, xp_scale, xp_mul


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
            if ssum == total:
                out.append(tuple(acc))
            return
        hi = acc[-1] if acc else vplus[0]
        hi = min(hi, prefix[i + 1] - ssum)
        rem_slots = n1 - i
        for x in range(hi, -10 ** 9, -1):
            # remaining entries are <= x, so we need ssum + x*rem_slots >= total
            if ssum + x + (rem_slots - 1) * x < total:
                break
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
        self._P = {}
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
        used = sorted(set(direction.values()))
        cols = {i: {} for i in used}
        for i in used:
            om = self.rep.omegas[i]
            for d in span:
                col = self.rep.y_op(om, xp_mono(d))
                diag = col.get(d)
                want = Scal.mono(*self.eigen_exp(i, d))
                if diag is None or not diag.sub(want).is_zero():
                    raise NonTerminating(f"Y_{i} not triangular at {d}")
                cols[i][d] = col
        x = {b: Scal.one()}
        for sweep in range(len(span) + 2):
            new = {b: Scal.one()}
            for c, i in direction.items():
                acc = Scal.zero()
                for d, xd in x.items():
                    md = cols[i][d].get(c)
                    if md is not None and d != c:
                        acc = acc.add(md.mul(xd))
                if acc.is_zero():
                    continue
                # lam_b - lam_c = q^. t^. (1 - q^. t^.), kept factored
                lb, lc = lam_b[i], lam[c]
                diff = binomial_fb(lc[0] - lb[0], lc[1] - lb[1]).mul(
                    FactoredBinomial(1, (lb[0], lb[1], 0)))
                new[c] = acc.div(diff)
            if set(new) == set(x) and all(
                    new[c].sub(x[c]).is_zero() for c in new):
                self._E[b] = new
                return new
            x = new
        raise NonTerminating(f"E solve did not stabilize for {b}")

    def E_eval(self, b):
        """Closed-form E_b(q^{-rho_k}) as a Scal."""
        key = ('E', tuple(b))
        hit = self._eval.get(key)
        if hit is None:
            b_plus, _ = wt.sort_perm_maximal(b)
            num, den = wt.eval_products(b)
            t_shift = -wt.pairing(b_plus, _rho_weight(self.n))
            hit = _ratio_scal(num, den, t_shift)
            self._eval[key] = hit
        return hit

    # -- symmetrization --------------------------------------------------

    def symmetrize(self, f):
        """Apply the Hecke symmetrizer sum_w t^{l(w)/2} T_w via coset sums."""
        rep = self.rep
        th = rep.t_half
        for m in range(1, self.n + 1):
            # coset factor sum_j t^{l/2} T_{s_j} ... T_{s_m}, j = m+1, ..., 1
            acc = dict(f)
            cur = f
            for i in range(m, 0, -1):
                cur = xp_scale(rep.t_op(i, cur), th)
                xp_add_into(acc, cur)
            f = acc
        return f

    def P(self, lam):
        """Monic P_lambda: symmetrize(E_b) over its coefficient at X_b.

        That coefficient is the Poincare polynomial of the stabilizer of b
        in S_{n+1}, the product of [m]_t! over the multiplicities m of b's
        epsilon coordinates (`weights.poincare`).  The divisor is built in
        that factored form and checked against the computed coefficient.
        """
        lam = tuple(lam)
        hit = self._P.get(lam)
        if hit is not None:
            return hit
        b = wt.to_weight(lam, self.n)
        raw = self.symmetrize(self.E(b))
        lead = wt.poincare(b)
        if raw.get(b) != Scal(lead.expand()):
            raise NotMonic(f"symmetrize(E_{b}) has {raw.get(b)} at X_{b}, "
                           f"not the stabilizer's {lead}")
        out = xp_scale(raw, Scal.one().div(lead))
        self._P[lam] = out
        return out

    def P_eval(self, lam):
        """Closed-form P_lambda(q^{-rho_k}) as (num, den) FactoredBinomials,
        the power of t folded into num."""
        key = ('P', tuple(lam))
        hit = self._eval.get(key)
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
            self._eval[key] = hit
        return hit

    def P_spherical(self, lam):
        num, den = self.P_eval(lam)
        return xp_scale(self.P(lam), Scal(den.expand()).div(num))

    def J(self, lam):
        lam = tuple(lam)
        hit = self._J.get(lam)
        if hit is None:
            h = Scal(wt.h_lambda(lam).expand())
            hit = xp_scale(self.P(lam), h)
            self._J[lam] = hit
        return hit

    # -- norms -----------------------------------------------------------

    def norm_spherical(self, lam):
        """<P°_lam, P°_lam> by the closed product."""
        b = wt.to_weight(lam, self.n)
        vb = wt.to_eps(b)
        n1 = self.n + 1
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
        return _ratio_scal(num, den, nfac)

    @staticmethod
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


def _rho_weight(n):
    return tuple([1] * n)


def _ratio_scal(num, den, t_shift):
    """num/den FactoredBinomials times t^{t_shift}, as a Scal."""
    key = (_ex(-den.key[0]), _ex(t_shift - den.key[1]), -den.key[2])
    return Scal(pscale(num.expand(), Fraction(1) / den.coeff, key), den.atoms)


def _binom_poly(j, p):
    """1 - q^j t^p as a poly dict (p may be 0 or negative)."""
    out = {(0, 0, 0): 1}
    padd_into(out, pmono(j, p, 0, -1))
    return out


@lru_cache(maxsize=None)
def get_mac(n):
    return Mac(n)


# ---------------------------------------------------------------------------
# truncated mu-pairing (test oracle machinery)

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
    rep = get_rep(n)
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
