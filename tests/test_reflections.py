"""Weights reached by reflections against the fundamental-step chain.

`daha.apply_weights` builds O_b g by fundamental steps for dominant b only
and reaches every other b by one T_i (the affine Hecke relation, which
needs T_i g = t^{1/2} g).  `chains` builds every O_b g by steps alone, so
it holds for any g; here both must agree on the projections and Y-passes
the pipeline makes, and the two reflection identities are pinned on their
own.
"""

from fractions import Fraction

import pytest

from dahalink import pipeline as pl
from dahalink.daha import (
    get_rep, word_of_rs, apply_weights, gamma_hat_project, xp_add_into,
    xp_mul, xp_one,
)
from dahalink.macdonald import get_mac
from dahalink.scalars import pmono

import chains
from chains import xp_mono


WORDS = {rs: word_of_rs(*rs)
         for rs in [(3, 2), (2, 1), (1, 1), (1, -1), (3, -2), (2, 3), (5, 2)]}
# `pipeline._check_lifts`'s word: identity pairs on both sides, so that it
# ends in tau_+ letters
WORDS["lifts"] = ((('+', 1), ('+', -1)) + word_of_rs(3, 2)
                  + (('+', 1), ('+', -1)))
SHORT = [(2, 1), (1, 1), (1, -1)]

# rank: (colors projected by every word, colors by the SHORT words only);
# the chain pays for every negative step, so the long words with negative
# letters take the smaller colors
PROJECT_CASES = {
    1: ([(1,), (2,), (3,), (4,)], []),
    2: ([(1,), (2,), (1, 1), (2, 1), (2, 2)], [(3,), (4,), (3, 1)]),
    3: ([(1,), (1, 1, 1)],
        [(2,), (1, 1), (2, 1), (3,), (4,), (3, 1), (2, 2), (2, 1, 1)]),
    4: ([(1,)], [(2,), (1, 1), (2, 1), (1, 1, 1)]),
}


def _inner_cable(n):
    """The inner factor of the 2-cable {[3,2],[2,1]->(1)}: J_(1) projected
    by the word of (2,1)."""
    return gamma_hat_project(word_of_rs(2, 1), get_mac(n).J((1,)),
                             get_rep(n))


@pytest.mark.parametrize("n", sorted(PROJECT_CASES))
def test_core_project_matches_the_chain_on_J(n):
    rep, mac = get_rep(n), get_mac(n)
    every, short = PROJECT_CASES[n]
    for lams, words in ((every, list(WORDS)), (short, SHORT)):
        for lam in lams:
            Q = mac.J(lam)
            for key in words:
                w = WORDS[key]
                assert (gamma_hat_project(w, Q, rep)
                        == chains.core_project(w, Q, rep)), (lam, key)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_core_project_matches_the_chain_on_products_and_cables(n):
    rep = get_rep(n)
    J = get_mac(n).J
    every = [k for k in WORDS if n < 3 or k != (3, -2)]
    cases = [(_inner_cable(n), every),
             (xp_mul(J((1,)), J((1,))), SHORT if n == 3 else every),
             (xp_mul(J((1,)), J((2,))), SHORT if n > 1 else every)]
    for Q, words in cases:
        for key in words:
            w = WORDS[key]
            assert (gamma_hat_project(w, Q, rep)
                    == chains.core_project(w, Q, rep)), key


def _fY_cases(n):
    """(f, g) pairs for the Y-pass f(Y^{-sign}) g at rank n; each g is
    symmetric, as a pre-polynomial is."""
    rep, mac = get_rep(n), get_mac(n)
    J = mac.J
    cases = [(J((1,)), J((1,))),
             (J((1,)), gamma_hat_project(WORDS[(3, 2)], J((1,)), rep)),
             (J((1,)), xp_mul(J((1,)), J((1,)))),
             (J((2,)), _inner_cable(n)),
             (J((1,)), gamma_hat_project(WORDS["lifts"], _inner_cable(n),
                                         rep))]
    if n > 1:
        cases += [(J((1, 1)),
                   gamma_hat_project(WORDS[(3, -2)], J((1,)), rep)),
                  (J((2, 1)), J((1,)))]
    if n < 4:
        cases += [(J((2,)), gamma_hat_project(WORDS[(2, 3)], J((2,)), rep))]
    return cases


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_fY_matches_the_chain(n, sign):
    """The Y-pass at the coinvariant point against the chain's coinvariant,
    and the same reflections building the whole XPoly against the chain's
    XPoly."""
    rep = get_rep(n)
    for k, (f, g) in enumerate(_fY_cases(n)):
        want = chains.apply_fY(rep, f, g, sign)
        assert pl._apply_fY(rep, f, g, sign) == rep.coinvariant(want), k
        if sign == 1:
            f = {tuple(-x for x in b): c for b, c in f.items()}
        assert apply_weights(rep, f, rep.y_steps, g, -1) == want, k


# ---------------------------------------------------------------------------
# the two reflection identities, each weight by the chain

def _t(rep, et):
    """t^et as a lattice poly."""
    return rep.to_lattice(pmono(et=et))


def _reflected(rep, value, b, i, s):
    """t^{s/2} [T_i^s O_{b'} g + s (t^{1/2} - t^{-1/2})
    sum_{0<j<k} O_{b'-j alpha_i} g] with b' = s_i b, b_i = -k; `value`
    gives O_c g."""
    k = -b[i - 1]
    alpha = rep.alphas[i]
    top = tuple(x + k * y for x, y in zip(b, alpha))
    side = {}
    for j in range(1, k):
        xp_add_into(side, value(tuple(x - j * y
                                      for x, y in zip(top, alpha))))
    out = xp_add_into({}, rep.t_op(i, value(top), s),
                      _t(rep, Fraction(s, 2)))
    # t^{s/2} s (t^{1/2} - t^{-1/2}) = t^s - 1
    xp_add_into(out, side, _t(rep, s))
    return xp_add_into(out, side, {0: -1})


# (rank, i, b) with b_i = -k for k = 1, 2, 3
REFLECTIONS = [
    (1, 1, (-1,)), (1, 1, (-2,)), (1, 1, (-3,)),
    (2, 1, (-1, 0)), (2, 1, (-2, 1)), (2, 1, (-3, 0)),
    (2, 2, (1, -1)), (2, 2, (0, -2)), (2, 2, (-1, -3)),
    (3, 2, (0, -1, 1)), (3, 1, (-2, 0, 1)), (3, 3, (1, 0, -2)),
]


@pytest.mark.parametrize("rs", [(3, 2), (1, -1)])
@pytest.mark.parametrize("n,i,b", REFLECTIONS)
def test_tau_image_of_X_reflects_on_one(n, i, b, rs):
    """s = +1: the tau's fix T_1..T_n, and T_i 1 = t^{1/2} 1."""
    rep = get_rep(n)
    steps = chains.tau_steps(rep, word_of_rs(*rs))

    def value(c):
        return chains.chain_apply_weights(rep, xp_mono(c), steps,
                                          xp_one(n))

    assert value(b) == _reflected(rep, value, b, i, 1)


@pytest.mark.parametrize("lam", [(1,), (2,)])
@pytest.mark.parametrize("n,i,b", REFLECTIONS)
def test_Y_reflects_on_a_symmetric_g(n, i, b, lam):
    """s = -1: T_i J = t^{1/2} J."""
    rep = get_rep(n)
    g = get_mac(n).J(lam)

    def value(c):
        return chains.y_op(rep, c, g)

    assert value(b) == _reflected(rep, value, b, i, -1)


def test_the_reflection_needs_a_symmetric_g():
    """On X_omega, which T_1 does not fix up to t^{1/2}, the reflected
    Y_{-omega} is wrong; `chains.y_op` takes the steps alone."""
    rep = get_rep(1)
    g = xp_mono((1,))
    f = {(-1,): {0: 1}}
    assert (apply_weights(rep, f, rep.y_steps, g, -1)
            != chains.y_op(rep, (-1,), g))
    assert chains.y_op(rep, (1,), chains.y_op(rep, (-1,), g)) == g
