"""Type-A weight combinatorics, diagrams, evaluation sets, integral factors."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from dahalink.scalars import poly_parse
from dahalink.weights import (
    RankTooSmall,
    to_eps, from_eps, fundamental, wt_add, wt_neg, alpha,
    reduced_word, u_perm, sort_perm_maximal,
    to_weight, transpose, diagram_union, arm_leg, h_lambda, pi_dagger,
)
from scal_xpoly import minus_rho_k
from weyl import (dominant, perm_id, perm_mul, perm_len, perm_act,
                  longest_element, to_diagram, lambda_plus_set, tilde_N,
                  norm2, RankMismatch, theta, pairing, sharp_point)


small_weights = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 2)


def test_eps_roundtrip():
    for b in [(1, 0), (0, -2), (3, 1)]:
        assert from_eps(to_eps(b)) == b


def test_pairing_examples():
    # A_2: (w1,w1)=2/3, (w_i, alpha_j)=delta, (rho,w1)=1
    w1, w2 = fundamental(2, 1), fundamental(2, 2)
    assert pairing(w1, w1) == Fraction(2, 3)
    rho = wt_add(w1, w2)
    assert pairing(rho, w1) == 1
    for i in (1, 2):
        for j in (1, 2):
            assert pairing(fundamental(2, i), alpha(2, j)) == (i == j)


def test_pairing_rank_mismatch():
    with pytest.raises(RankMismatch):
        pairing((1,), (1, 0))


def test_theta_norm():
    for n in (1, 2, 3):
        assert norm2(theta(n)) == 2


@given(small_weights, small_weights)
@settings(max_examples=30, deadline=None)
def test_pairing_w_invariant(b, c):
    n1 = 3
    w = list(range(n1))
    random.Random(hash((b, c)) & 0xffff).shuffle(w)
    w = tuple(w)
    assert pairing(perm_act(w, b), perm_act(w, c)) == pairing(b, c)


# ---------------------------------------------------------------------------
# permutations

def test_longest_element():
    w0 = longest_element(3)
    assert perm_len(w0) == 3
    assert perm_mul(w0, w0) == perm_id(3)


def test_reduced_word_length():
    w = u_perm(3, 2)
    assert len(reduced_word(w)) == perm_len(w)


def test_sort_perm_maximal_antidominant():
    # w_b = w_0 for antidominant b
    b = wt_neg(wt_add(fundamental(2, 1), fundamental(2, 2)))
    b_plus, w = sort_perm_maximal(b)
    assert dominant(b_plus)
    assert w == longest_element(3)


def test_sharp_point_cases():
    # b = 0: b-sharp = -rho_k (kappa = w0^{-1} rho = reversed rho)
    _, w, pt = sharp_point((0,))
    assert pt.kappa == (0, 1)
    # A_1 dominant regular: w = e, kappa = rho
    _, w, pt = sharp_point((1,))
    assert perm_len(w) == 0 and pt.kappa == (1, 0)
    _, w, pt = sharp_point((-1,))
    assert perm_len(w) == 1 and pt.kappa == (0, 1)


def test_eval_point_exponents():
    pt = minus_rho_k(1)
    eq, et = pt.exponents((1,))     # X_omega at q^{-rho_k}
    assert (eq, et) == (0, Fraction(-1, 2))


# ---------------------------------------------------------------------------
# diagrams

def test_diagram_examples():
    b = wt_add(fundamental(2, 1), wt_add(fundamental(2, 2), fundamental(2, 2)))
    assert to_diagram(b) == (3, 2)
    assert diagram_union((2,), (1, 1)) == (2, 1)
    assert transpose(transpose((3, 1))) == (3, 1)


def test_to_weight_rank_guard():
    with pytest.raises(RankTooSmall):
        to_weight((1, 1), 1)


def test_diagram_roundtrip():
    for lam in [(1,), (3, 2), (2, 2, 1)]:
        assert to_diagram(to_weight(lam, 3)) == lam


def test_arm_leg():
    assert sorted(arm_leg((2, 1))) == [(0, 0), (0, 0), (1, 1)]


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                max_size=3))
@settings(max_examples=30, deadline=None)
def test_iota_complement(parts):
    lam = tuple(sorted(parts, reverse=True))
    n = 3
    b = to_weight(lam, n)
    lam_i = to_diagram(tuple(reversed(b)))
    # lambda(b) and lambda(iota b) tile the lam_1 x (n+1) rectangle
    assert sum(lam) + sum(lam_i) == (n + 1) * lam[0]
    assert all(x <= lam[0] for x in lam_i)


# ---------------------------------------------------------------------------
# Lambda_b^+ and evaluation products

def test_lambda_plus_examples():
    assert lambda_plus_set((0, 0)) == frozenset()
    # A_1, b = n*omega: {j: 0 < j < n}
    assert lambda_plus_set((3,)) == frozenset({((1, 2), 1), ((1, 2), 2)})
    # A_2, rho: only the highest root with j=1
    assert lambda_plus_set((1, 1)) == frozenset({((1, 3), 1)})


def test_lambda_plus_nondominant():
    # antidominant orbit-mate keeps j = (b_+, alpha) since w^{-1}(alpha) < 0
    assert lambda_plus_set((-1,)) == frozenset({((1, 2), 1)})


def test_h_pi_products():
    assert h_lambda((2,)).expand() == poly_parse("1 - t - q*t + q*t^2")
    assert sorted(pi_dagger((2,)).atoms) == [('a', 0, 0), ('a', 1, 0)]
    assert sorted(pi_dagger((1, 1)).atoms) == [('a', 0, -1), ('a', 0, 0)]


def test_tilde_N_trivial():
    assert tilde_N((0,)).expand() == {(0, 0, 0): 1}
    for b in [(1,), (1, 0), (0, 1)]:
        n = len(b)
        assert tilde_N(b).atoms == ()


def test_tilde_N_A1_3omega():
    # gcd(prod_{j=1,2}(1-q^j t^2), trunc of prod_j (1-q^j t^2)/(1-q^j t)):
    # the Phi_1(qt) inside 1-q^2t^2 cancels against the 1-q^j t denominators,
    # leaving Phi_1(qt^2) * Phi_2(qt)
    got = tilde_N((3,))
    assert sorted(got.atoms) == [('c', 1, 1, 2), ('c', 2, 1, 1)]
    assert got.expand() == poly_parse("1 + q*t - q*t^2 - q^2*t^3")


def test_tilde_N_iota_symmetric():
    for b in [(2, 1), (3, 0), (1, 2)]:
        assert sorted(tilde_N(b).atoms) == sorted(tilde_N(tuple(reversed(b))).atoms)
