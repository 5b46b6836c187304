"""Test oracle: Weyl-group helpers, the pairing, evaluation points, Young
diagrams of dominant weights and the closed evaluation products of E_b.

The package needs only the permutations that sort a weight or build the
u_r words (`weights.sort_perm_maximal`, `u_perm`, `reduced_word`).  Tests
check those, and the closed E_b(q^{-rho_k}) and integrality formulas,
against the independent helpers here.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from dahalink.scalars import FactoredBinomial, _ex, binomial_fb
from dahalink.weights import (to_eps, from_eps, perm_act_eps,
                              sort_perm_maximal)


class RankMismatch(Exception):
    pass


def theta(n):
    """Highest root eps_1 - eps_{n+1}."""
    return from_eps((1,) + (0,) * (n - 1) + (-1,))


@lru_cache(maxsize=None)
def pairing(b, c):
    if len(b) != len(c):
        raise RankMismatch
    n1 = len(b) + 1
    v, u = to_eps(b), to_eps(c)
    sv, su = sum(v), sum(u)
    dot = sum(x * y for x, y in zip(v, u))
    return _ex(Fraction(dot * n1 - sv * su, n1))


def rho_eps(n):
    """rho in epsilon coordinates (up to the constant shift): (n, ..., 0)."""
    return tuple(range(n, -1, -1))


def dominant(b):
    return all(x >= 0 for x in b)


def norm2(b):
    return pairing(b, b)


# ---------------------------------------------------------------------------
# permutations

def perm_inv(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x] = i
    return tuple(out)


def perm_id(n1):
    return tuple(range(n1))


def perm_mul(w1, w2):
    """(w1 w2)(i) = w1(w2(i))."""
    return tuple(w1[w2[i]] for i in range(len(w1)))


def perm_len(w):
    n1 = len(w)
    return sum(1 for i in range(n1) for j in range(i + 1, n1) if w[i] > w[j])


def perm_act(w, b):
    return from_eps(perm_act_eps(w, to_eps(b)))


def longest_element(n1):
    return tuple(range(n1 - 1, -1, -1))


# ---------------------------------------------------------------------------
# evaluation points

class EvalPoint:
    """X_b evaluates to q^{(b,beta)} t^{(b,kappa)} (epsilon coordinates)."""

    __slots__ = ('beta', 'kappa')

    def __init__(self, beta, kappa):
        self.beta = tuple(beta)
        self.kappa = tuple(kappa)

    def exponents(self, b):
        """(q-exponent, t-exponent) of the value of X_b."""
        return (pairing(b, from_eps(self.beta)),
                pairing(b, from_eps(self.kappa)))


def sharp_point(b):
    """(b_plus, w_b, b-sharp) with b-sharp = b + w_b^{-1}(rho_k)."""
    b_plus, w = sort_perm_maximal(b)
    n1 = len(b) + 1
    rho = rho_eps(len(b))
    kappa = tuple(rho[w[i]] for i in range(n1))  # w^{-1}(rho)
    return b_plus, w, EvalPoint(to_eps(b), kappa)


# ---------------------------------------------------------------------------
# Young diagrams

def to_diagram(b):
    """lambda(b) for dominant b; trailing zeros stripped."""
    if not dominant(b):
        raise ValueError("diagram of a non-dominant weight")
    lam = [x for x in to_eps(b) if x > 0]
    return tuple(lam)


def diagrams(boxes):
    """Every Young diagram with at most `boxes` boxes, the empty one
    excepted."""
    def parts(k, top):
        if not k:
            yield ()
        for row in range(min(k, top), 0, -1):
            for rest in parts(k - row, row):
                yield (row,) + rest
    return [lam for k in range(1, boxes + 1) for lam in parts(k, k)]


# ---------------------------------------------------------------------------
# Lambda_b^+ and the integrality factor

def lambda_plus_set(b):
    """Pairs ((l, m), j) indexing the evaluation product for E_b."""
    n1 = len(b) + 1
    b_plus, w, _ = sharp_point(b)
    vplus = to_eps(b_plus)
    winv = perm_inv(w)
    out = []
    for l in range(n1):
        for m in range(l + 1, n1):
            pv = vplus[l] - vplus[m]          # (b_+, alpha) for alpha=eps_lm
            pos = winv[l] < winv[m]           # w^{-1}(alpha) positive?
            top = pv - 1 if pos else pv
            for j in range(1, top + 1):
                out.append(((l + 1, m + 1), j))
    return frozenset(out)


def eval_products(b):
    """(num, den) FactoredBinomials of the closed E_b(q^{-rho_k}) formula.

    E_b(q^{-rho_k}) = t^{-(rho, b_+)} * num/den with
    num = prod (1 - q^j t^{1+(alpha,rho)}), den = prod (1 - q^j t^{(alpha,rho)})
    over Lambda_b^+.
    """
    num = FactoredBinomial.one()
    den = FactoredBinomial.one()
    for (l, m), j in lambda_plus_set(b):
        p = m - l                              # (alpha, rho)
        num = num.mul(binomial_fb(j, p + 1))
        den = den.mul(binomial_fb(j, p))
    return num, den


def tilde_N(b):
    """gcd(N_b, truncated N_inf/D_inf) as a factored multiset (type A)."""
    n = len(b)
    nb = Counter()
    jmax = 0
    for (l, m), j in lambda_plus_set(b):
        p = m - l
        nb.update(binomial_fb(j, p + 1).atoms)
        jmax = max(jmax, j)
    ratio = Counter()
    for p in range(1, n + 1):                  # Coxeter exponents m_p = p
        for j in range(1, jmax + 1):
            ratio.update(binomial_fb(j, p + 1).atoms)
    for j in range(1, jmax + 1):
        den = Counter(binomial_fb(j, 1).atoms)
        for atm, mult in den.items():
            have = ratio.get(atm, 0)
            ratio[atm] = max(0, have - mult * n)
    g = Counter()
    for atm, mult in nb.items():
        m2 = min(mult, ratio.get(atm, 0))
        if m2:
            g[atm] = m2
    sign = (-1) ** sum(m for atm, m in g.items() if atm[1] == 1)  # Phi_1(0) = -1
    atoms = []
    for atm, mult in g.items():
        atoms.extend([atm] * mult)
    return FactoredBinomial(sign, (0, 0, 0), atoms)
