"""Type-A weight and Young-diagram combinatorics.

Weights of A_n are stored as integer tuples in the fundamental-weight basis
(l_1, ..., l_n).  Internally most computations pass through epsilon
coordinates v = (v_1, ..., v_{n+1}) with v_i = l_i + ... + l_n, v_{n+1} = 0.

Permutations of S_{n+1} are tuples w with w[i] = image of position i
(0-indexed); they act on epsilon coordinates by permuting places.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import add

from .scalars import FactoredBinomial, binomial_fb, a_atom


class RankTooSmall(Exception):
    pass


# ---------------------------------------------------------------------------
# coordinates

@lru_cache(maxsize=None)
def to_eps(l):
    n = len(l)
    v = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        v[i] = v[i + 1] + l[i]
    return tuple(v)


def from_eps(v):
    return tuple(v[i] - v[i + 1] for i in range(len(v) - 1))


def fundamental(n, i):
    """omega_i for 1 <= i <= n."""
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def zero(n):
    return (0,) * n


def wt_add(b, c):
    return tuple(map(add, b, c))


def wt_neg(b):
    # -b in fundamental coordinates via epsilon flip
    return from_eps(tuple(-x for x in to_eps(b)))


def alpha(n, i):
    """Simple root alpha_i = eps_i - eps_{i+1}."""
    v = [0] * (n + 1)
    v[i - 1] = 1
    v[i] = -1
    return from_eps(tuple(v))


# ---------------------------------------------------------------------------
# permutations

def perm_act_eps(w, v):
    out = [0] * len(v)
    for i in range(len(v)):
        out[w[i]] = v[i]
    return tuple(out)

def reduced_word(w):
    """Indices i_1..i_l with w = s_{i_1} ... s_{i_l}."""
    w = list(w)
    word = []
    while True:
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i + 1)
                break
        else:
            break
    word.reverse()
    return tuple(word)


def u_perm(n1, r):
    """The Weyl part u_r of the translation by omega_r (1 <= r <= n)."""
    return tuple(i + (n1 - r) if i < r else i - r for i in range(n1))


def sort_perm_maximal(b):
    """Maximal-length w with w(b) in P_+; returns (b_plus, w).

    Ties inside equal coordinate blocks are broken so that earlier positions
    land in later slots, which maximizes the number of inversions.
    """
    v = to_eps(b)
    n1 = len(v)
    order = sorted(range(n1), key=lambda i: (-v[i], -i))
    w = [0] * n1
    for slot, i in enumerate(order):
        w[i] = slot
    w = tuple(w)
    return from_eps(perm_act_eps(w, v)), w


# ---------------------------------------------------------------------------
# Young diagrams

def to_weight(lam, n):
    if len(lam) > n:
        raise RankTooSmall(f"diagram {lam} needs rank >= {len(lam)}")
    v = tuple(lam) + (0,) * (n + 1 - len(lam))
    return from_eps(v)


def transpose(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def diagram_union(l1, l2):
    r = max(len(l1), len(l2))
    a = tuple(l1) + (0,) * (r - len(l1))
    b = tuple(l2) + (0,) * (r - len(l2))
    return tuple(x for x in (max(p, q) for p, q in zip(a, b)) if x > 0)


def arm_leg(lam):
    """Yields (arm, leg) over the boxes of lam."""
    lt = transpose(lam)
    for r, row in enumerate(lam):
        for c in range(row):
            yield row - c - 1, lt[c] - r - 1


@lru_cache(maxsize=None)
def poincare(b):
    """Poincare polynomial sum t^{l(w)} of the stabilizer of b in S_{n+1},
    factored: the product of [m]_t! over the multiplicities m of b's
    epsilon coordinates (b = 0 gives all of S_{n+1}).  [i]_t is the
    product of the cyclotomic atoms Phi_d(t) over the divisors 1 < d of i."""
    return FactoredBinomial(1, (0, 0, 0), [
        ('c', d, 0, 1) for m in Counter(to_eps(b)).values()
        for i in range(2, m + 1) for d in range(2, i + 1) if not i % d])


@lru_cache(maxsize=None)
def h_lambda(lam):
    """prod over boxes (1 - q^arm t^{leg+1}) as a FactoredBinomial."""
    out = FactoredBinomial.one()
    for arm, leg in arm_leg(lam):
        out = out.mul(binomial_fb(arm, leg + 1))
    return out


def pi_dagger(lam):
    """prod_p prod_{v<lambda_p} (1 + q^v t^{1-p} a), rows p = 1, 2, ..."""
    out = FactoredBinomial.one()
    for p, row in enumerate(lam, start=1):
        for v in range(row):
            out = out.mul(FactoredBinomial(1, (0, 0, 0),
                                           (a_atom(v, 1 - p),)))
    return out
