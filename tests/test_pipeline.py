"""End-to-end invariants: rank polynomials, a-stabilization, specializations."""

import hashlib
import json
from math import comb, gcd
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dahalink.links import (
    Path, ColoredForest, parse_dsl, lower_twist, cab_params,
    norm_diagram, deg_a_bound, drop_r0,
)
from dahalink.scalars import (
    FactoredBinomial, InexactDivision, poly_parse, poly_text, pmul, ppow,
    pdivexact, psubstitute, hat_normalize,
)
import dahalink
from dahalink import daha
from dahalink import pipeline as pl
from dahalink import weights as wt
from dahalink.cli import main
from dahalink.daha import (
    get_rep, gamma_hat_project, word_of_rs, xp_add_into, lp_add_into,
    lp_mul,
)
from dahalink.macdonald import Mac, NotMonic, get_mac
from catalan import rational_catalan
import chains
from degree import exact_deg_a
from homfly import rosso_jones
from norms import P_eval
from scal import Scal
from weyl import diagrams


TREFOIL = "{[3,2]->(1)}"
T22 = "{[1,1]->(1) | [1,1]->(1)}"
T42 = "{[2,1]->(1) | [2,1]->(1)}"
NEG_HOPF = "{[1,-1]->(1) | [1,-1]->(1)}"
THREE_CHAIN = "{[1,0]->(1) | [1,0]->(1)} ; vee {[1,0]->(1)}"
T32_MERIDIAN = "{[3,2]->(1)} ; {[1,0]->(1)}"
T32_MERIDIAN_V = "{[3,2]->(1)} ; vee {[1,0]->(1)}"
CABLE_32_11 = "{[1,1],[2,1]->(1) | ^1 [1,1]->(1)}"
TWIST_11 = "twist [1,1] {[1,0]->(1)} ; vee {[2,1]->(1)}"
HOPF_TRIPLE = "{[1,-1]->(1) | [1,-1]->(1) | ^1 [1,-1]->(1)}"
POSITIVE_HOPF_TRIPLE = "{[1,1]->(1) | [1,1]->(1) | [1,1]->(1)}"
# r = 0 vertices inside a path, and in the middle of a root tree
INNER_R0 = "{[2,1],[0,1],[3,2]->(1)}"
MIDDLE_R0 = ("{[1,1],[2,1]->(1) | ^1 [1,1],[0,1],[3,2]->(1)"
             " | ^1 [1,1],[2,3]->(1)}")


from functools import lru_cache


@lru_cache(maxsize=None)
def sup(dsl, norm="min"):
    return pl.superpolynomial(parse_dsl(dsl), norm)


# ---------------------------------------------------------------------------
# fixed-rank values

def test_trefoil_rank1():
    inv = pl.jd(parse_dsl(TREFOIL), 1)
    assert inv.poly == poly_parse("1 + q*t - q*t^2")


def test_unknot_any_rank():
    for m in (1, 2, 3):
        assert pl.jd(parse_dsl("{[1,0]->(1)}"), m).poly == poly_parse("1")


def test_jd_matches_superpolynomial_specialization():
    s = sup(T42)
    for m in (1, 2, 3):
        assert pl._at_rank(s.poly, m) == pl.jd(parse_dsl(T42), m).poly


# ---------------------------------------------------------------------------
# superpolynomials

GOLDEN = {
    TREFOIL: "1 + q*t + a*q",
    T22: "1 - t + q*t + a*q",
    T42: "1 - t + q*t - q*t^2 + q^2*t^2 + a*q - a*q*t + a*q^2*t",
    NEG_HOPF: "1 + a*q + a*t^-1 - a*q*t^-1",
    THREE_CHAIN: ("1 + a^2*q^2 - 2*t + 2*q*t + t^2 - 2*q*t^2 + q^2*t^2"
                  " + 2*a*q - 2*a*q*t + 2*a*q^2*t"),
    T32_MERIDIAN: ("1 + a^2*q^2 - a^2*q^2*t^-2 + a^2*q^3*t^-2 + a^2*q*t^-1"
                   " - a^2*q^3*t^-1 + q*t + 2*a*q + a*t^-1 - a*q^2*t^-1"
                   " + a*q^2*t"),
    T32_MERIDIAN_V: ("1 - t + q*t + q^2*t - q*t^2 + q^3*t^2 - q^2*t^3"
                     " + q^3*t^3 - q^3*t^4 + q^4*t^4 + a^2*q^3 - a^2*q^3*t"
                     " + a^2*q^4*t + a*q + a*q^2 - a*q*t + 2*a*q^3*t"
                     " - a*q^2*t^2 + a*q^4*t^2 - a*q^3*t^3 + a*q^4*t^3"),
    CABLE_32_11: ("1 + a^2*q^3 - t + q*t + q^2*t - q*t^2 + q^2*t^2"
                  " - q^2*t^3 + q^3*t^3 + a*q + a*q^2 - a*q*t + a*q^2*t"
                  " + a*q^3*t - a*q^2*t^2 + a*q^3*t^2"),
}


@pytest.mark.parametrize("dsl", sorted(GOLDEN))
def test_superpolynomial_golden(dsl):
    assert sup(dsl).poly == poly_parse(GOLDEN[dsl])


def test_three_chain_is_hopf_square():
    hopf = poly_parse("1 + a*q - t + q*t")
    assert sup(THREE_CHAIN).poly == pmul(hopf, hopf)


def test_twist_column_equals_cable():
    # the twisted pair encodes the same link as the iterated cable
    assert sup(TWIST_11).poly == poly_parse(GOLDEN[CABLE_32_11])


def _jd_nested(pair, rank, norm="min"):
    """Twist route that applies the extra column inside the coinvariant.

    Equivalent to lowering the twist into the second tree; an independent
    oracle for `lower_twist`.
    """
    low = lower_twist(pair)          # fixes colors and the vee flag
    alpha, beta = pair.twist
    if not pair.vee:
        alpha, beta = -alpha, -beta
    rep = get_rep(rank)
    f = pl.pre_polynomial(pair.first, rank)
    if pair.second is not None:
        g = pl.pre_polynomial(pair.second, rank)
    else:
        g = pl.pre_polynomial(ColoredForest((Path((), (1,)),)), rank)
    g = gamma_hat_project(word_of_rs(beta, alpha), g, rep)
    val = pl._div_j_eval(pl._apply_fY(rep, g, f, sign=-1), rank,
                         norm_diagram(low, norm))
    return rep.from_lattice(val)


def _apply_fY_per_monomial(rep, f, g, sign=1):
    """f(Y^{-sign}) applied to g, each monomial's Y_{-sign b} walked alone
    along the fundamental Y-steps: its coinvariant is the reference for
    `_apply_fY`, which shares the steps between monomials and reflects at
    the coinvariant point."""
    out = {}
    for b, c in f.items():
        v = g
        for r, l in enumerate(b, start=1):
            for _ in range(abs(l)):
                v = rep.apply_atoms(rep.y_atoms(r, sign if l < 0 else -sign),
                                    v)
        xp_add_into(out, v, c)
    return out


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dsl,ranks", [
    (THREE_CHAIN, (1, 2, 3)),
    (TWIST_11, (1, 2, 3)),
    ("{[1,0]->(1,1)} ; vee {[1,0]->(1)}", (2, 3)),
], ids=["chain3", "twist11", "colored"])
def test_apply_fY_matches_the_per_monomial_route(dsl, ranks, sign):
    pair = lower_twist(parse_dsl(dsl))
    for m in ranks:
        rep = get_rep(m)
        f = pl.pre_polynomial(pair.second, m)
        g = pl.pre_polynomial(pair.first, m)
        want = _apply_fY_per_monomial(rep, f, g, sign)
        assert pl._apply_fY(rep, f, g, sign) == rep.coinvariant(want), m


def _jd_raw_full(pair, rank, norm="min"):
    """`jd_raw` along the full route: the coinvariant of the whole
    pre-polynomial, or of the chain's Y-pass for a pair."""
    pair = lower_twist(pair)
    rep = get_rep(rank)
    f = pl.pre_polynomial(pair.first, rank)
    if pair.second is not None:
        g = pl.pre_polynomial(pair.second, rank)
        f = chains.apply_fY(rep, g, f, sign=-1 if pair.vee else 1)
    val = pl._div_j_eval(rep.coinvariant(f), rank, norm_diagram(pair, norm))
    return rep.from_lattice(val)


# link: whether its root is reached at the coinvariant point.  A path
# shares its longest common prefix with the one before unless ^k says
# otherwise, so T22 and the Hopf triple have one root tree; with ^0 the
# root trees multiply, and the coinvariant is not multiplicative.  [1,0]
# projects by the empty word.
POINT_ROUTE = {
    **{dsl: True for dsl in (TREFOIL, T22, T42, NEG_HOPF, HOPF_TRIPLE,
                             CABLE_32_11, THREE_CHAIN, T32_MERIDIAN,
                             T32_MERIDIAN_V, TWIST_11, "{[5,2]->(2)}",
                             "{[3,2]->(1,1)}")},
    **{dsl: False for dsl in ("{[1,1]->(1) | ^0 [1,1]->(1)}",
                              "{[3,2]->(1) | ^0 [2,1]->(1)}",
                              "{[1,0]->(1,1)}")},
}


@pytest.mark.parametrize("dsl", sorted(POINT_ROUTE))
def test_jd_raw_is_the_coinvariant_of_the_full_route(dsl, monkeypatch):
    """At every rank of the window, the value reached at the coinvariant
    point is the coinvariant of the whole root; the root takes the point
    route by its structure alone."""
    pair = parse_dsl(dsl)
    s = sup(dsl)
    at_point = []
    full = daha.apply_weights

    def spy(rep, f, steps, g, sign, point=False):
        at_point.append(point)
        return full(rep, f, steps, g, sign, point)

    monkeypatch.setattr(daha, "apply_weights", spy)
    monkeypatch.setattr(pl, "apply_weights", spy)
    for m in s.ranks + (s.verified_rank,):
        at_point.clear()
        assert pl.jd_raw(pair, m) == _jd_raw_full(pair, m), m
        assert any(at_point) == POINT_ROUTE[dsl], m


def test_twist_nested_route_agrees():
    for dsl in (TWIST_11,
                "twist [0,1] {[3,2]->(1)} ; {[2,1]->(1)}",
                "twist [2,1] {[1,2]->(1)} ; vee {[1,2]->(1)}"):
        pair = parse_dsl(dsl)
        for m in (1, 2, 3):
            nested = hat_normalize(_jd_nested(pair, m))[0]
            assert nested == pl.jd(lower_twist(pair), m).poly, (dsl, m)


def test_inexact_rank_value_is_not_a_window_shift(monkeypatch):
    """Only the a-interpolation may shift the window; an inexact division
    inside one rank's evaluation is a bug and must reach the caller."""
    jd = pl.jd

    def failing_jd(pair, rank, *args, **kwargs):
        if rank == 2:
            raise InexactDivision("planted at rank 2")
        return jd(pair, rank, *args, **kwargs)

    monkeypatch.setattr(pl, "jd", failing_jd)
    with pytest.raises(InexactDivision, match="planted"):
        pl.superpolynomial(parse_dsl(TREFOIL))


def test_deg_a_recorded():
    assert sup(TREFOIL).deg_a == 1
    assert sup(T32_MERIDIAN).deg_a == 2


def test_torus_family_positive():
    # 2-fold T(m,1): (1-t)(1 + qt + ... ) + q^m t^m + a(...)
    for m in (1, 2, 3):
        s = sup(f"{{[1,{m}]->(1) | [1,{m}]->(1)}}")
        want = {}
        for i in range(m):
            for k, c in {(i, i, 0): 1, (i, i + 1, 0): -1}.items():
                want[k] = want.get(k, 0) + c
        want[(m, m, 0)] = want.get((m, m, 0), 0) + 1
        for i in range(1, m):
            for k, c in {(i, i - 1, 1): 1, (i, i, 1): -1}.items():
                want[k] = want.get(k, 0) + c
        want[(m, m - 1, 1)] = want.get((m, m - 1, 1), 0) + 1
        assert s.poly == {k: c for k, c in want.items() if c}


def test_torus_family_negative_m2():
    s = sup("{[1,-2]->(1) | [1,-2]->(1)}")
    assert s.poly == poly_parse(
        "1 - q + q*t + a*t^-1 - a*q*t^-1 + a*q - a*q^2 + a*q^2*t")


# ---------------------------------------------------------------------------
# Hopf star and the 2-vertex

def test_hopf_star_row_box():
    v = pl.hopf_vertex(((2,), (1,)))
    assert v.super.poly == poly_parse("1 + a*q^2 + a*t^-1 - a*q^2*t^-1")
    assert v.c_num == poly_parse("1 - q^2 + q^3")


def test_hopf_star_mixed_self_dual():
    v = pl.hopf_vertex(((1, 1), (2,)))
    p = v.super.poly
    assert p == poly_parse("1 + a*q^2 + a*t^-2 - a*q^2*t^-2")
    flipped = psubstitute(p, q=(1, 0, -1, 0), t=(1, -1, 0, 0))
    assert hat_normalize(flipped)[0] == p


def test_hopf_star_order_symmetric():
    a = pl.hopf_vertex(((1, 1), (2,))).super.poly
    b = pl.hopf_vertex(((2,), (1, 1))).super.poly
    assert a == b


def test_hopf_dagger_unknot():
    v = pl.hopf_vertex(((1,), (1,)))
    assert v.super.poly == poly_parse("1 + a*q + a*t^-1 - a*q*t^-1")
    # dagger form divides by (1+a): (1 + a(q + 1/t - q/t)) rescaled
    dag = Scal(v.dagger.num, v.dagger.den)
    assert dag.mul(Scal(poly_parse("1 + a"))).as_poly() == v.super.poly


def test_hopf_triple_uncolored():
    s = sup(HOPF_TRIPLE)
    # the window starting at rank 1 gives an inexact Newton step
    assert s.ranks == (2, 3, 4)
    assert s.poly == poly_parse(
        "1 + a*q + a*q^2 + a*t^-2 - 2*a*q*t^-2 + a*q^2*t^-2 + a*t^-1"
        " + a*q*t^-1 - 2*a*q^2*t^-1 + a^2*q^3 + a^2*t^-3 - 2*a^2*q*t^-3"
        " + a^2*q^2*t^-3 + a^2*q*t^-2 - 2*a^2*q^2*t^-2 + a^2*q^3*t^-2"
        " + a^2*q*t^-1 + a^2*q^2*t^-1 - 2*a^2*q^3*t^-1")


def test_positive_hopf_triple_window_starts_at_rank_1():
    assert sup(POSITIVE_HOPF_TRIPLE).ranks == (1, 2, 3)


def test_hopf_pair_with_vee_meridian():
    s = sup("{[1,-1]->(1) | [1,-1]->(1)} ; vee {[1,0]->(1)}")
    assert s.poly == poly_parse(
        "2 - q - 2*t + 2*q*t + 3*a*q - a*q^2 + a*t^-1 - a*q*t^-1 - a*t"
        " + a*q^2*t + a^2*q^2 + a^2*q*t^-1 - a^2*q^2*t^-1")


# ---------------------------------------------------------------------------
# specializations

def _times(h, text):
    return Scal(h.num, h.den).mul(Scal(poly_parse(text))).as_poly()


def test_homfly_t22():
    h = pl.spec_homfly(sup(T22))
    assert _times(h, "1 - q") == poly_parse("1 - q + q^2 - a*q")
    assert h.den == (('c', 1, 1, 0),)


def test_homfly_unknot_unreduced():
    h = pl.spec_homfly(sup("{[1,0]->(1)}"), reduced=False)
    assert _times(h, "1 - q") == poly_parse("1 - a")
    assert h.den == (('c', 1, 1, 0),)


def test_homfly_trefoil_reduced_polynomial():
    h = pl.spec_homfly(sup(TREFOIL))
    assert Scal(h.num, h.den).as_poly() == poly_parse("1 + q^2 - a*q")


def test_alexander_values():
    assert pl.spec_alexander(sup(TREFOIL)) == poly_parse("1 - q + q^2")
    assert pl.spec_alexander(sup(T32_MERIDIAN_V)) == poly_parse("1 + q^3 + q^6")
    assert pl.spec_alexander(sup(CABLE_32_11)) == poly_parse("1 + q^4")


@pytest.mark.parametrize("dsl", ["twist [1,1] {[1,0]->(1)}",
                                 "twist [1,1] {[2,1]->(1)}"])
def test_twist_without_second_tree_specializes_as_lowered(dsl):
    """lower_twist adds a second component; kappa must count it."""
    pair = parse_dsl(dsl)
    s, s_low = sup(dsl), pl.superpolynomial(lower_twist(pair))
    assert s.poly == s_low.poly
    assert pl.spec_alexander(s) == pl.spec_alexander(s_low)
    assert pl.spec_khovanov(s, 2, "A") == pl.spec_khovanov(s_low, 2, "A")


def _x_power_minus_one(n):
    return {(n, 0, 0): 1, (0, 0, 0): -1}


def _torus_alexander(r, s, scale):
    """Delta_{T(r,s)}(x^scale) = (x^rs - 1)(x - 1) / ((x^r - 1)(x^s - 1))."""
    if min(abs(r), abs(s)) <= 1:
        return poly_parse("1")
    num = pmul(_x_power_minus_one(r * s * scale), _x_power_minus_one(scale))
    den = pmul(_x_power_minus_one(r * scale), _x_power_minus_one(s * scale))
    return pdivexact(num, den)


@pytest.mark.parametrize("dsl", [
    TREFOIL, "{[5,2]->(1)}", "{[4,3]->(1)}",
    "{[2,1],[2,1]->(1)}", "{[2,1],[2,3]->(1)}", "{[2,1],[3,1]->(1)}",
    "{[3,2],[2,1]->(1)}", "{[7,4]->(1)}", "{[2,1],[2,1],[2,1]->(1)}",
])
def test_alexander_matches_cabling_formula(dsl):
    """Seifert: Delta_K(x) = prod_i Delta_{T(r_i,a_i)}(x^{r_{i+1}...r_l})."""
    (params,) = cab_params(parse_dsl(dsl).first)
    want = poly_parse("1")
    for i, (a, r) in enumerate(params):
        scale = 1
        for _, rr in params[i + 1:]:
            scale *= rr
        want = pmul(want, _torus_alexander(r, a, scale))
    assert pl.spec_alexander(sup(dsl)) == hat_normalize(want)[0]


@pytest.mark.parametrize("m,n", [(3, 2), (5, 2), (7, 2), (4, 3), (5, 3),
                                 (7, 3), (8, 3)])
def test_homfly_matches_rosso_jones(m, n):
    """The t = q slice, every a-degree of it, against a reference that
    does not use DAHA."""
    want = hat_normalize(rosso_jones(m, n))[0]
    h = pl.spec_homfly(sup("{[%d,%d]->(1)}" % (m, n)))
    got = Scal(h.num, h.den).as_poly()
    assert hat_normalize(got)[0] == want


@st.composite
def coprime_torus(draw):
    """Coprime (m, n), m > n: n <= 3 and m <= 9, or n = 4 and m <= 7."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 1, 7 if n == 4 else 9)
             .filter(lambda m: gcd(m, n) == 1))
    return m, n


@settings(max_examples=10, deadline=None)
@given(coprime_torus())
def test_a0_part_is_the_rational_catalan_number(mn):
    """The a^0 part of T(m, n) against area and dinv of rational Dyck
    paths, a reference that does not use DAHA."""
    m, n = mn
    cat = rational_catalan(m, n)
    assert sum(cat.values()) == comb(m + n, n) // (m + n)
    s = sup("{[%d,%d]->(1)}" % (m, n))
    a0 = {k: c for k, c in s.poly.items() if k[2] == 0}
    want = hat_normalize(psubstitute(cat, q=(1, -1, 0, 0)))[0]
    assert hat_normalize(a0)[0] == want


def test_khovanov_variant_a():
    assert pl.spec_khovanov(sup(T22), 1, "A") == poly_parse(
        "1 + q^2 + q^4*t^2 + q^6*t^2")
    assert pl.spec_khovanov(sup(T42), 1, "A") == poly_parse(
        "1 + q^2 + q^4*t^2 - q^8*t^2 + q^8*t^4 + q^10*t^4")


def test_khovanov_variant_b():
    assert pl.spec_khovanov(sup(NEG_HOPF), 5, "B") == poly_parse(
        "1 + 2*q^2 + 3*q^4 + 4*q^6 + 4*q^8 + 3*q^10 + 2*q^12 + q^14"
        " + q^10*t^2 + q^12*t^2 + q^14*t^2 + q^16*t^2 + q^18*t^2")


def test_standard_parameters_t42():
    st = pl.to_standard(sup(T42).poly)
    assert hat_normalize(st)[0] == poly_parse(
        "1 - q^2 + q^4*t^2 - q^6*t^2 + q^8*t^4"
        " + a^2*q^2*t^3 - a^2*q^4*t^3 + a^2*q^6*t^5")


# ---------------------------------------------------------------------------
# structural checks

def test_phi_swap_exact():
    rep = pl.check_symmetries(parse_dsl(T32_MERIDIAN), ["phi_swap"], rank=1)
    assert rep["phi_swap"]["ok"]


def test_duality_t42():
    rep = pl.check_symmetries(parse_dsl(T42), ["duality"])
    assert rep["duality"]["ok"]


def test_moves_on_padded_word():
    pair = parse_dsl("{[3,2],[1,0]->(1)}")
    rep = pl.check_symmetries(pair, ["moves"], rank=1)
    assert rep["moves"]["ok"] and rep["moves"]["tried"]


def test_lift_independence():
    # the word of [2,3] starts with a tau_- letter, the trefoil's does not
    for dsl in (TREFOIL, "{[2,3]->(1)}"):
        rep = pl.check_symmetries(parse_dsl(dsl), ["lifts"], rank=1)
        assert rep["lifts"]["ok"]


@pytest.mark.parametrize("norm", ["max", ("j_o", 2), ("j_o", "0"), ("x", 0),
                                  ("j_o", -1), ("j_o", True)])
def test_bad_normalization_fails_before_any_rank(norm, monkeypatch):
    def no_rank(*args):
        raise AssertionError("a rank was evaluated")
    # every route builds its trees through `_product`: a one-tree root
    # (T22) the trees below its root, a pair both of its forests
    monkeypatch.setattr(pl, "_product", no_rank)
    for dsl in (T22, T32_MERIDIAN_V):
        pair = parse_dsl(dsl)
        with pytest.raises(ValueError):
            pl.superpolynomial(pair, norm)
        with pytest.raises(ValueError):
            pl.jd(pair, 1, norm)


# the atom q t - 1 as a planted denominator of E_(1) at rank 1
_QT = FactoredBinomial(1, (0, 0, 0), (('c', 1, 1, 1),))


@pytest.mark.parametrize("lead,error", [
    # (X_1 (q t - 1) + X_0)/(q t - 1): the lead passes, and the atom does
    # not divide J's coefficient at X_0
    ("q*t - 1", InexactDivision),
    # the lead is (1 - q) times the denominator
    ("q*t - 1 + q - q^2*t", NotMonic),
], ids=["atom", "lead"])
def test_J_seam_refuses_what_the_lattice_cannot_hold(lead, error,
                                                     monkeypatch):
    """Where J checks E's lead against its denominator, and where it
    divides by its factored divisor, a planted E that J cannot hold raises
    instead of giving a wrong J."""
    rep = get_rep(1)
    bad = ({(1,): rep.to_lattice(poly_parse(lead)),
            (0,): rep.to_lattice(poly_parse("1"))}, _QT)
    monkeypatch.setattr(Mac, "E", lambda self, b: bad)
    monkeypatch.setattr(get_mac(1), "_J", {})
    with pytest.raises(error):
        pl.pre_polynomial(ColoredForest((Path((), (1,)),)), 1)


@pytest.mark.parametrize("dsl", [
    "{[3,2]->(1,1)}", "{[1,0]->(2)} ; vee {[1,0]->(1,1)}"])
def test_a_colored_run_leaves_the_cached_J_unchanged(dsl):
    """J fills each Weyl orbit with its dominant weight's dict, so a caller
    that changed one coefficient would change a whole orbit: after a run,
    every J it used still equals a J built afresh."""
    link = parse_dsl(dsl)
    s = pl.superpolynomial(link)
    for m in s.ranks + (s.verified_rank,):
        for lam in {p.color for f in link.forests() for p in f.paths}:
            assert get_mac(m)._J[lam] == Mac(m).J(lam), (m, lam)


def test_normalization_divide_plants():
    """J_lam(q^{-rho_k}) times g divides back to g, and one more than that
    is not divisible: the lattice divide raises InexactDivision."""
    rank, lam = 2, (2, 1)
    rep = get_rep(rank)
    j = rep.coinvariant(get_mac(rank).J(lam))
    g = rep.to_lattice(poly_parse("q^(1/6) - 2*t^3 + q^2*t^(-1/2)"))
    assert pl._div_j_eval(lp_mul(j, g), rank, lam) == g
    bad = lp_add_into(lp_mul(j, g), rep.to_lattice(poly_parse("1")))
    with pytest.raises(InexactDivision):
        pl._div_j_eval(bad, rank, lam)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_normalization_is_h_lambda_times_the_closed_evaluation(rank):
    """J_lam at the coinvariant point, the normalization the pipeline
    divides by, is taken from E_b without symmetrizing.  It equals the
    coinvariant of the lattice J and h_lam times Macdonald's closed
    product for P_lam(q^{-rho_k}), for every color of up to 4 boxes."""
    rep, mac = get_rep(rank), get_mac(rank)
    for lam in diagrams(4):
        if len(lam) > rank:
            continue
        val = pl._j_eval(rank, lam)
        assert val == rep.coinvariant(mac.J(lam)), (rank, lam)
        num, den = P_eval(mac, lam)
        want = Scal(wt.h_lambda(lam).mul(num).expand()).div(den)
        assert rep.from_lattice(val) == want.as_poly(), (rank, lam)


def test_moves_keep_the_tree_of_a_middle_r0_block():
    for rank in (1, 2):
        rep = pl.check_symmetries(parse_dsl(MIDDLE_R0), ["moves"], rank=rank)
        assert rep["moves"] == {"ok": True,
                                "tried": [("drop_r0", (0, 1, 2), True)]}
    # the move puts path 2 before path 1, and a ("j_o", idx) normalization
    # must still name the same color
    colored = parse_dsl("{[1,1],[2,1]->(2) | ^1 [1,1],[0,1],[3,2]->(1)"
                        " | ^1 [1,1],[2,3]->(1,1)}")
    for idx in range(3):
        rep = pl.check_symmetries(colored, ["moves"], rank=2,
                                  norm=("j_o", idx))
        assert rep["moves"]["ok"], idx


@pytest.mark.parametrize("dsl,site", [(INNER_R0, (0, 0, 2)),
                                      (MIDDLE_R0, (0, 1, 2))],
                         ids=["inner", "middle"])
def test_an_r0_vertex_gives_its_images_superpolynomial(dsl, site):
    """(4.4): dropping the vertices up to an r = 0 vertex keeps the
    invariant, and the a-degree bound counts only what is left."""
    pair = parse_dsl(dsl)
    image = drop_r0(pair, site)
    assert deg_a_bound(pair) == deg_a_bound(image)
    s, t = pl.superpolynomial(pair), pl.superpolynomial(image)
    assert (s.poly, s.shift, s.ranks, s.verified_rank) == \
        (t.poly, t.shift, t.ranks, t.verified_rank)
    if dsl == INNER_R0:
        assert s.poly == sup(TREFOIL).poly


def test_q1_factorization():
    rep = pl.check_symmetries(parse_dsl(T32_MERIDIAN_V), ["q1"])
    assert rep["q1"]["ok"]


def test_stab_extra_rank():
    rep = pl.check_symmetries(parse_dsl(TREFOIL), ["stab_extra"])
    assert rep["stab_extra"]["ok"]


def test_cofactor_power_is_read_from_the_a_degrees():
    p2 = poly_parse("1 + q*t - a*t^2 + a^2*q")
    one_a = poly_parse("1 + a")
    p1 = pmul(pmul(ppow(one_a, 10), poly_parse("q*t^-1")), p2)
    assert pl._cofactor_ok(p1, p2)
    assert pl._cofactor_ok(p2, p1)
    bad = pmul(pmul(ppow(one_a, 2), poly_parse("1 + q")), p2)
    assert not pl._cofactor_ok(bad, p2)


def test_unknown_check_fails_before_any_check(monkeypatch):
    def no_check(*args):
        raise AssertionError("a check ran")
    monkeypatch.setitem(pl._CHECKS, "q1", no_check)
    with pytest.raises(ValueError, match=r"\['nope'\].*known checks.*'q1'"):
        pl.check_symmetries(parse_dsl(TREFOIL), ["q1", "nope"])


def test_homfly_color_index_out_of_range_fails_before_any_work(monkeypatch):
    s = sup(TREFOIL)

    def no_den(*args):
        raise AssertionError("the denominator was built")
    monkeypatch.setattr(pl, "_den_jo", no_den)
    with pytest.raises(ValueError, match="jo=3.* 1 color"):
        pl.spec_homfly(s, jo=3)


def test_positivity_algebraic():
    rep = pl.check_positivity(sup(T32_MERIDIAN_V), p_t=1)
    assert rep["ok"]


def test_positivity_fails_non_algebraic():
    rep = pl.check_positivity(sup(T32_MERIDIAN), p_t=1)
    assert not rep["ok"]


def test_positivity_margin_ignores_truncated_tail():
    def ok(text, margin):
        s = SimpleNamespace(poly=poly_parse(text))
        return pl.check_positivity(s, p_t=0, cutoff=4, margin=margin)["ok"]
    assert ok("1 + q*t", 0)
    assert not ok("1 - q*t^2", 0)
    # terms above cutoff - margin may be polluted by the truncation
    assert not ok("1 - q*t^4", 0)
    assert ok("1 - q*t^4", 1)


def test_deg_a_bound_respected():
    """(5.40) bounds the a-degree; the conjectured (5.41) is exact where the
    paper claims it."""
    for dsl in sorted(GOLDEN) + [TWIST_11, HOPF_TRIPLE, POSITIVE_HOPF_TRIPLE]:
        s, pair = sup(dsl), parse_dsl(dsl)
        assert s.deg_a == max(k[2] for k in s.poly) == len(s.ranks) - 1
        assert s.deg_a <= deg_a_bound(pair, "min"), dsl
        exact = exact_deg_a(pair, "min")
        if exact is not None:
            assert s.deg_a == exact, dsl


@pytest.mark.parametrize("dsl,ranks,poly", [
    # generic links whose bound (5.40) exceeds their a-degree
    ("{[3,-2]->(1)}", (1, 2), "1 + a*t^-1 + a*q"),
    (T32_MERIDIAN, (1, 2, 3), GOLDEN[T32_MERIDIAN]),
], ids=["mirror_trefoil", "trefoil_meridian"])
def test_window_ends_at_the_first_zero_difference(dsl, ranks, poly):
    s = sup(dsl)
    assert s.poly == poly_parse(poly)
    assert s.ranks == ranks and s.verified_rank == ranks[-1] + 1


def test_window_shift_reuses_ranks(monkeypatch):
    """Ranks 1-3 divide inexactly; the shifted window reuses 2 and 3."""
    calls, jd = [], pl.jd

    def counted(pair, rank, *args, **kwargs):
        calls.append(rank)
        return jd(pair, rank, *args, **kwargs)
    monkeypatch.setattr(pl, "jd", counted)
    s = pl.superpolynomial(parse_dsl(HOPF_TRIPLE))
    assert s.ranks == (2, 3, 4) and s.verified_rank == 5
    assert calls == [1, 2, 3, 4, 5]


def test_no_zero_difference_exhausts_the_shifts(monkeypatch):
    """Values t^{m^2} lie on no polynomial in a, so every window runs past
    the bound or divides inexactly; each rank is still evaluated once."""
    calls = []

    def planted(pair, rank, norm="min"):
        calls.append(rank)
        return SimpleNamespace(poly={(0, rank * rank, 0): 1})
    monkeypatch.setattr(pl, "jd", planted)
    with pytest.raises(pl.StabilizationFailed):
        pl.superpolynomial(parse_dsl(TREFOIL))
    assert calls == [1, 2, 3, 4, 5, 6]


# sha256(poly_text(poly) + repr(shift))[:12] and the window of deeper
# links, recorded with the fundamental-step chain of `tests/chains.py` in
# place of the reflections, and (2,2) with the reflections building every
# weight's XPoly; the (2,2)-colored trefoil is marked slow (3-5 s)
DEEP_GOLDEN = [
    ("{[3,2],[2,1]->(1)}", (1, 2, 3, 4), "d3bb34b62e21"),
    ("{[7,4]->(1)}", (1, 2, 3, 4), "7f2f5f55292c"),
    ("{[5,2]->(2)}", (1, 2, 3), "49e8457269ec"),
    ("{[3,2]->(2,1)}", (2, 3, 4, 5), "b00ef3482fd9"),
    ("{[3,2]->(3)}", (1, 2, 3, 4), "dbc735c67d08"),
    pytest.param("{[3,2]->(2,2)}", (2, 3, 4, 5, 6), "5bea81b2cc24",
                 marks=pytest.mark.slow),
]


@pytest.mark.parametrize("dsl,ranks,digest", DEEP_GOLDEN)
def test_deep_superpolynomial_golden(dsl, ranks, digest):
    s = sup(dsl)
    text = poly_text(s.poly) + repr(s.shift)
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == digest
    assert s.ranks == ranks and s.verified_rank == ranks[-1] + 1


def test_stabilization_window_recorded():
    s = sup(T22)
    assert s.verified_rank == s.ranks[-1] + 1
    assert pl._at_rank(s.poly, s.verified_rank) == \
        pl.jd(parse_dsl(T22), s.verified_rank).poly


# ---------------------------------------------------------------------------
# console command

def test_cli_super_trefoil(capsys):
    assert main(["super", TREFOIL]) == 0
    out = json.loads(capsys.readouterr().out)
    s = sup(TREFOIL)
    assert out == {"poly_text": "1 + q*t + a*q", "ranks": list(s.ranks),
                   "verified_rank": s.verified_rank, "deg_a": 1}


def test_cli_rank_trefoil(capsys):
    assert main(["rank", TREFOIL, "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"poly_text": "1 + q*t - q*t^2", "rank": 1}


def test_cli_bad_link():
    for link in ("{[3,2]->", '{"components": [[{"labels": []}]]}'):
        with pytest.raises(SystemExit):
            main(["super", link])


EMPTY_COMPONENT = ['{"components": [[]]}',
                   '{"components": [[{"labels": [[3, 2]], "color": [1]}],'
                   ' []]}']


@pytest.mark.parametrize("link", EMPTY_COMPONENT, ids=["only", "second"])
def test_an_empty_component_is_a_bad_link(link, capsys):
    with pytest.raises(ValueError, match="at least one path"):
        parse_dsl(link)
    with pytest.raises(SystemExit) as e:
        main(["super", link])
    assert e.value.code == 2
    assert "bad link" in capsys.readouterr().err


def test_hopf_vertex_of_no_colors_is_refused():
    with pytest.raises(ValueError, match="at least one path"):
        pl.hopf_vertex(())


def test_cli_rank_too_small(capsys):
    with pytest.raises(SystemExit) as e:
        main(["rank", "{[3,2]->(1,1,1)}", "1"])
    assert e.value.code == 2
    assert "needs rank >= 3" in capsys.readouterr().err


def test_import_leaves_sympy_out():
    src = os.path.dirname(os.path.dirname(dahalink.__file__))
    code = ("import sys, dahalink.pipeline, dahalink.cli; "
            "print('sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
