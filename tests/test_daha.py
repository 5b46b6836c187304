"""Polynomial representation: Hecke relations, Y-operators, tau-words."""

from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dahalink import weights as wt
from dahalink.scalars import (FactoredBinomial, InexactDivision,
                              ZeroPolynomial, hat_normalize, poly_parse,
                              poly_text, pmono, padd_into, pdivexact)
from dahalink.daha import (
    get_rep, xp_one, xp_add_into, NotCoprime, OffLattice, T_LIMIT,
    lp_divexact, lp_shift, word_matrix, word_of_rs, gamma_hat_project,
)
from dahalink.macdonald import get_mac
from chains import xp_mono, y_op
from weyl import diagrams, pairing
from factoring import scal_inv
from scal import Scal
import scal_xpoly as sx
from scal_xpoly import HALF, minus_rho_k, to_scal


T_HALF = Scal.mono(et=HALF)
T_DIFF = T_HALF.sub(Scal.mono(et=-HALF))    # t^{1/2} - t^{-1/2}


def t_diff(rep):
    """t^{1/2} - t^{-1/2} as a lattice poly."""
    return rep.to_lattice(T_DIFF.num)


def scal_of(rep, p):
    """A lattice poly as a Scal."""
    return Scal(rep.from_lattice(p))


def basket(n, seed):
    """A few deterministic 'random' lattice XPolys of rank n."""
    rep = get_rep(n)
    out = []
    ws = list(itertools.product(*[range(-2, 3)] * n))
    for s in range(3):
        f = {}
        for j, b in enumerate(ws):
            c = ((seed + s) * 31 + j * 17) % 7 - 3
            if c:
                f[b] = rep.to_lattice(pmono(c=c))
        out.append(f)
    return out


def x_plus_xinv():
    """X + X^{-1} at rank 1, as a lattice XPoly."""
    return sx.xp_to_lattice(get_rep(1),
                            {(1,): Scal.one(), (-1,): Scal.one()})


def t_op_by_division(rep, i, f, sign=1):
    """Reference T_i^sign on a Scal XPoly, 1 <= i <= n:
    t^{1/2} s_i f + (t^{1/2} - t^{-1/2}) g, where g is
    the exact quotient of s_i f - f by X_{alpha_i} - 1, and T_i^{-1} = T_i -
    (t^{1/2} - t^{-1/2})."""
    sf = {}
    for b, c in f.items():
        v = list(wt.to_eps(b))
        v[i - 1], v[i] = v[i], v[i - 1]
        sx.xp_add_into(sf, {wt.from_eps(tuple(v)): c})
    quo = _div_binomial(sx.xp_add_into(dict(sf), f, Scal.mono(c=-1)),
                        wt.alpha(rep.n, i))
    out = sx.xp_add_into(sx.xp_scale(sf, T_HALF), quo, T_DIFF)
    if sign == -1:
        sx.xp_add_into(out, f, T_DIFF.neg())
    return out


def _div_binomial(g, w):
    """Exact quotient of g by X_w - 1, by string division.

    Each step removes the key b with the largest (b, w) and carries its
    coefficient down to b - w.  An exact quotient has no key
    with (b, w) below the least (b, w) of g, so such a key proves the
    division inexact.
    """
    g = dict(g)
    lo = min((pairing(b, w) for b in g), default=0)
    quo = {}
    while g:
        top = max(g, key=lambda b: pairing(b, w))
        h = wt.wt_add(top, wt.wt_neg(w))
        if pairing(h, w) < lo:
            raise AssertionError("X_w - 1 does not divide g")
        c = g.pop(top)
        sx.xp_add_into(quo, {h: c})
        sx.xp_add_into(g, {h: c})
    return quo


# lattice t-exponents at the packing bound, and q-exponents far beyond it
EDGE_T = (T_LIMIT, T_LIMIT - 1, -T_LIMIT, 1 - T_LIMIT)
FAR_Q = (1 << 40, -(1 << 40) - 1)


@st.composite
def lattice_polys(draw, n, max_terms=2):
    """Small random polys of `scalars` whose q- and t-exponents are in
    steps of 1/(2(n+1)), the lattice of rank n, a few of them at the edge
    of what a lattice poly can hold."""
    num = {}
    for _ in range(draw(st.integers(1, max_terms))):
        iq = draw(st.integers(-12, 12) | st.sampled_from(FAR_Q))
        it = draw(st.integers(-12, 12) | st.sampled_from(EDGE_T))
        eq = Fraction(iq, 2 * (n + 1))
        et = Fraction(it, 2 * (n + 1))
        padd_into(num, pmono(eq, et, 0, draw(st.integers(-3, 3))))
    return num


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lattice_round_trip(n, data):
    """to_lattice then from_lattice gives the poly back, exponent types and
    all (the canonical text would show a Fraction exponent that is an
    integer)."""
    rep = get_rep(n)
    p = data.draw(lattice_polys(n, max_terms=5))
    lat = rep.to_lattice(p)
    back = rep.from_lattice(lat)
    assert back == p
    assert poly_text(back) == poly_text(p)
    # key order is lex order on the exponents
    ordered = [k for key in sorted(lat) for k in rep.from_lattice({key: 1})]
    assert ordered == sorted(p)


def test_off_lattice_raises():
    rep = get_rep(1)                       # unit 1/4
    for p in ({(0, 0, 0): Fraction(1, 2)},          # a coefficient with
              {(Fraction(1, 3), 0, 0): 1},          # a denominator, and
              {(0, Fraction(1, 8), 0): 1},          # exponents off the
              {(0, 0, 1): 1},                       # lattice, or beyond
              {(0, Fraction(T_LIMIT + 1, 4), 0): 1},     # its packing
              {(0, Fraction(-T_LIMIT - 1, 4), 0): 1}):   # bound
        with pytest.raises(OffLattice):
            rep.to_lattice(p)


def test_lp_divexact_stops_on_its_degree_box():
    """An exact quotient comes back; a division that is not exact raises
    when its quotient leaves the degree box, also where lex order alone
    leaves infinitely many keys to try (1 + q^-1 over 1 - t)."""
    rep = get_rep(1)

    def lat(text):
        return rep.to_lattice(poly_parse(text))

    assert lp_divexact(lat("1 - t^2"), lat("1 - t")) == lat("1 + t")
    for num, den, match in (
            # an empty t-range: no quotient at all
            ("1 + q^-1", "1 - t", r"^quotient key q\^\(0/L\) t\^\(-4/L\) "
             r"is outside the degree box q\^\[-4, 0\] t\^\[0, -4\]"),
            ("1 + t", "1 - t", r"^quotient key q\^\(0/L\) t\^\(-4/L\) "
             r"is outside the degree box q\^\[0, 0\] t\^\[0, 0\]"),
            ("2 + 2*t", "3 + 3*t",
             r"^coefficient 2 does not divide by 3 at q\^\(0/L\) "
             r"t\^\(0/L\)$")):
        with pytest.raises(InexactDivision, match=match):
            lp_divexact(lat(num), lat(den))


@pytest.mark.parametrize("divide,num", [
    (lp_divexact, {0: 1}), (lp_divexact, {}),
    (pdivexact, {(0, 0, 0): 1}), (pdivexact, {}),
], ids=["lattice", "lattice-empty", "scalars", "scalars-empty"])
def test_divexact_by_the_zero_poly_raises(divide, num):
    with pytest.raises(ZeroDivisionError):
        divide(num, {})


def _orbit(lam, n):
    """The weights of lam's Weyl orbit at rank n."""
    v = tuple(lam) + (0,) * (n + 1 - len(lam))
    return sorted({wt.from_eps(u) for u in itertools.permutations(v)})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expand_is_the_lattice_form_of_the_expanded_binomial(n):
    """Rep.expand(fb) equals to_lattice(fb.expand()) on every divisor the
    pipeline expands: the Poincare products, h_lambda and the E
    denominators of colors of at most 4 boxes."""
    rep, mac = get_rep(n), get_mac(n)
    fbs = [wt.poincare(wt.zero(n))]
    for lam in diagrams(4):
        if len(lam) > n:
            continue
        fbs.append(wt.h_lambda(lam))
        for b in _orbit(lam, n):
            fbs += [wt.poincare(b), mac.E(b)[1]]
    for fb in fbs:
        assert rep.expand(fb) == rep.to_lattice(fb.expand()), fb


@pytest.mark.parametrize("fb", [
    FactoredBinomial(Fraction(1, 2), (0, 0, 0), (('c', 1, 0, 1),)),
    FactoredBinomial(1, (Fraction(1, 3), 0, 0), (('c', 1, 0, 1),)),
], ids=["unit", "monomial"])
def test_expand_refuses_what_the_lattice_cannot_hold(fb):
    """A unit with a denominator, or a monomial off the rank-1 lattice
    (unit 1/4), raises OffLattice on both routes."""
    rep = get_rep(1)
    with pytest.raises(OffLattice):
        rep.expand(fb)
    with pytest.raises(OffLattice):
        rep.to_lattice(fb.expand())


def _assert_normalized_is_hat_normalize(rep, lat):
    """Rep.normalized(lat) equals hat_normalize(from_lattice(lat)), the
    types of every exponent included."""
    poly, shift = rep.normalized(lat)
    want, want_shift = hat_normalize(rep.from_lattice(lat))
    assert poly == want and poly_text(poly) == poly_text(want)
    assert sorted(map(repr, poly)) == sorted(map(repr, want))
    assert list(map(repr, shift)) == list(map(repr, want_shift))


@pytest.mark.parametrize("n,text", [
    # a negative lead, the least t-exponent's, where the least q-exponent's
    # coefficient is positive
    (1, "2*q^(-1/4)*t - q^(1/2)*t^(3/4)"),
    (2, "q^(-5/6)*t^(1/3) - 3*t^(7/2)"),        # no multiple of L at all
    (3, "-2*q^(-2)*t^(-3) + q^(9/8)*t^(5/8)"),  # an integral shift
], ids=["negative-lead", "off-multiples", "integral-shift"])
def test_normalized_is_hat_normalize_of_the_scalars_poly(n, text):
    rep = get_rep(n)
    _assert_normalized_is_hat_normalize(rep, rep.to_lattice(poly_parse(text)))
    with pytest.raises(ZeroPolynomial):
        rep.normalized({})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normalized_is_hat_normalize_on_lattice_polys(n, data):
    rep = get_rep(n)
    lat = rep.to_lattice(data.draw(lattice_polys(n, max_terms=5)))
    if lat:
        _assert_normalized_is_hat_normalize(rep, lat)
    else:
        with pytest.raises(ZeroPolynomial):
            rep.normalized(lat)


@st.composite
def xpolys(draw, n):
    """Small random Scal XPolys of rank n; each coefficient is a sum of
    monomials with q-exponents in steps of 1/(2(n+1)) and t-exponents in
    halves."""
    f = {}
    for _ in range(draw(st.integers(1, 4))):
        b = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        num = {}
        for _ in range(draw(st.integers(1, 2))):
            eq = Fraction(draw(st.integers(-6, 6)), 2 * (n + 1))
            et = Fraction(draw(st.integers(-2, 2)), 2)
            padd_into(num, pmono(eq, et, 0, draw(st.integers(-3, 3))))
        sx.xp_add_into(f, {b: Scal(num)})
    return f


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_t_op_matches_division(n, data):
    """T_i on the lattice form, read back, equals the division oracle on
    the Scal form: this checks the conversion and T_i together."""
    rep = get_rep(n)
    f = data.draw(xpolys(n))
    lat = sx.xp_to_lattice(rep, f)
    for i in range(1, n + 1):
        for sign in (1, -1):
            assert sx.xp_eq(to_scal(rep, rep.t_op(i, lat, sign)),
                            t_op_by_division(rep, i, f, sign))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratic_hecke_relation(n):
    rep = get_rep(n)
    for f in basket(n, 1):
        for i in range(1, n + 1):
            tf = rep.t_op(i, f)
            ttf = rep.t_op(i, tf)
            # T^2 = (t^{1/2}-t^{-1/2}) T + 1
            rhs = xp_add_into(xp_add_into({}, f), tf, t_diff(rep))
            assert ttf == rhs


@pytest.mark.parametrize("n", [2, 3])
def test_braid_relations(n):
    rep = get_rep(n)
    f = basket(n, 2)[0]
    for i in range(1, n):
        j = i + 1
        lhs = rep.t_op(i, rep.t_op(j, rep.t_op(i, f)))
        rhs = rep.t_op(j, rep.t_op(i, rep.t_op(j, f)))
        assert lhs == rhs


def test_t_inverse():
    rep = get_rep(2)
    for f in basket(2, 3):
        for i in range(1, 3):
            assert rep.t_op(i, rep.t_op(i, f, sign=-1)) == f


def test_t_on_constant():
    rep = get_rep(2)
    for i in range(1, 3):
        assert sx.xp_eq(to_scal(rep, rep.t_op(i, xp_one(2))),
                        sx.xp_scale(sx.xp_one(2), T_HALF))


def test_pi_order():
    # Pi = Z/(n+1): pi_1^{n+1} = id
    rep = get_rep(2)
    for f in basket(2, 4):
        g = f
        for _ in range(3):
            g = rep.pi_op(1, g)
        assert g == f


def test_pi_inverse():
    rep = get_rep(2)
    f = basket(2, 5)[1]
    assert rep.pi_op(1, rep.pi_op(1, f, sign=-1)) == f


def test_y_on_one():
    # Y_b(1) = q^{(rho_k, b)}: A_1 Y_omega(1) = t^{1/2}
    rep = get_rep(1)
    got = to_scal(rep, y_op(rep, (1,), xp_one(1)))
    assert sx.xp_eq(got, sx.xp_scale(sx.xp_one(1), T_HALF))


@pytest.mark.parametrize("n", [2, 3])
def test_y_commute(n):
    rep = get_rep(n)
    f = basket(n, 6)[0]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            oi, oj = rep.omegas[i], rep.omegas[j]
            assert (y_op(rep, oi, y_op(rep, oj, f))
                    == y_op(rep, oj, y_op(rep, oi, f)))


def test_y_eigenvalue_on_X():
    # A_1: Y_omega(X) = q^{-1/2} t^{-1/2} X   (b-sharp = omega + rho_k)
    rep = get_rep(1)
    got = to_scal(rep, y_op(rep, (1,), xp_mono((1,))))
    want = sx.xp_scale(sx.xp_mono((1,)), Scal.mono(eq=-HALF, et=-HALF))
    assert sx.xp_eq(got, want)


def test_y_inverse():
    rep = get_rep(2)
    f = basket(2, 7)[2]
    g = y_op(rep, (1, 1), y_op(rep, (-1, -1), f))
    assert g == f


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tau_minus_power_is_the_y_gaussian(n):
    """tau_-^k acts on J_lam by the Y-Gaussian eigenvalue
    (q^{-(lam,lam)/2} t^{-(lam,rho)})^k: T_i, pi_r, the tau-images and the
    lattice J checked together, without goldens."""
    rep = get_rep(n)
    for lam in [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1)]:
        if len(lam) > n:
            continue
        b = wt.to_weight(lam, n)
        J = get_mac(n).J(lam)
        for k in (1, -1, 2, -2, 3):
            word = (('-', 1 if k > 0 else -1),) * abs(k)
            eigen = rep.to_lattice(pmono(Fraction(-k * pairing(b, b), 2),
                                         -k * pairing(b, (1,) * n)))
            assert (gamma_hat_project(word, J, rep)
                    == xp_add_into({}, J, eigen)), (lam, k)


def test_coinvariant():
    rep = get_rep(1)
    assert scal_of(rep, rep.coinvariant(xp_one(1))).sub(Scal.one()).is_zero()
    # X + X^-1 at q^{-rho_k}: t^{-1/2} + t^{1/2}
    want = Scal({(0, Fraction(-1, 2), 0): 1, (0, Fraction(1, 2), 0): 1})
    assert scal_of(rep, rep.coinvariant(x_plus_xinv())).sub(want).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coinvariant_is_the_evaluation_at_minus_rho_k(n):
    rep = get_rep(n)
    for f in basket(n, 8):
        want = sx.xp_eval(to_scal(rep, f), minus_rho_k(n))
        assert scal_of(rep, rep.coinvariant(f)) == want


@st.composite
def lattice_xpolys(draw, n):
    """Small random lattice XPolys of rank n, with coefficients drawn by
    `lattice_polys`."""
    rep = get_rep(n)
    f = {}
    for _ in range(draw(st.integers(1, 4))):
        b = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        xp_add_into(f, {b: rep.to_lattice(draw(lattice_polys(n)))})
    return f


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_coinvariant_of_T_i_is_t_half_times_the_coinvariant(n, data):
    """{T_i^{+-1} f} = t^{+-1/2} {f} for i = 1..n and any f: the identity
    on which `apply_weights` reflects at the coinvariant point."""
    rep = get_rep(n)
    f = data.draw(lattice_xpolys(n))
    val = rep.coinvariant(f)
    for i in range(1, n + 1):
        for sign in (1, -1):
            assert (rep.coinvariant(rep.t_op(i, f, sign))
                    == lp_shift(val, 0, sign * rep.half)), (i, sign)


@pytest.mark.parametrize("i", [0, -1, 3])
def test_t_op_refuses_what_is_not_T_1_to_T_n(i):
    """No tau-image of X holds the affine T_0, so `t_op` acts by T_1..T_n
    only; any other index raises, even on a constant, where b[i - 1] would
    otherwise read a coordinate of the wrong root."""
    rep = get_rep(2)
    for f in (xp_one(2), xp_mono(rep.omegas[1])):
        for sign in (1, -1):
            with pytest.raises(ValueError, match="T_1..T_2"):
                rep.t_op(i, f, sign)


# ---------------------------------------------------------------------------
# tau words

TAU_CASES = [
    ((1, 0), ()),
    ((1, 2), (('-', 1), ('-', 1))),
    ((3, 2), (('+', 1), ('-', 1), ('-', 1))),
    ((2, 3), (('-', 1), ('+', 1), ('-', 1))),
    ((3, 8), (('-', 1), ('-', 1), ('+', 1), ('-', 1), ('-', 1))),
]


@pytest.mark.parametrize("rs,word", TAU_CASES)
def test_word_of_rs_known(rs, word):
    assert word_of_rs(*rs) == word


@pytest.mark.parametrize("rs", [(3, 2), (2, 3), (5, 2), (13, 2), (2, -3),
                                (-1, 0), (0, 1), (0, -1), (1, -2), (7, 5)])
def test_word_of_rs_matrix(rs):
    w = word_of_rs(*rs)
    m = word_matrix(w)
    assert (m[0], m[2]) == rs
    assert m[0] * m[3] - m[1] * m[2] == 1


def test_word_of_rs_not_coprime():
    with pytest.raises(NotCoprime):
        word_of_rs(2, 4)


def test_image_round_trip():
    # tau_+ then tau_+^{-1} acts as the identity on a monomial word
    rep = get_rep(1)
    f = xp_mono((1,))
    w_id = (('+', 1), ('+', -1))
    assert (gamma_hat_project(w_id + (('-', 1),), f, rep)
            == gamma_hat_project((('-', 1),), f, rep))


def test_gamma_project_empty_word():
    rep = get_rep(1)
    f = x_plus_xinv()
    assert gamma_hat_project((), f, rep) == f


def test_gamma_project_optimization_agrees():
    # tau_+ fixes every X_b, so appending tau_+ letters, or tau_+ tau_+^-1
    # pairs, to a word leaves its projection as it is, at the coinvariant
    # point too
    up, down = ('+', 1), ('+', -1)
    tails = [(up,), (down,), (up, up, up), (up, down), (down, up),
             (down, up, up, down)]
    for n in (1, 2):
        rep = get_rep(n)
        f = get_mac(n).J((1,))
        for rs in [(3, 2), (-1, 0), (3, -2), (1, 1), (0, 1)]:
            w = word_of_rs(*rs)
            want = gamma_hat_project(w, f, rep)
            at_point = rep.coinvariant(gamma_hat_project(w, f, rep,
                                                         point=True))
            assert rep.coinvariant(want) == at_point, (n, rs)
            for tail in tails:
                assert gamma_hat_project(w + tail, f, rep) == want, (n, rs)
                assert rep.coinvariant(gamma_hat_project(
                    w + tail, f, rep, point=True)) == at_point, (n, rs)


def test_trefoil_from_monomial_orbit():
    """(3,2) on P_omega = X + X^{-1}, evaluated and hat-normalized."""
    rep = get_rep(1)
    f = x_plus_xinv()
    out = gamma_hat_project(word_of_rs(3, 2), f, rep)
    val = scal_of(rep, rep.coinvariant(out)).mul(
        scal_inv(scal_of(rep, rep.coinvariant(f))))     # spherical
    p, _ = hat_normalize(val.as_poly())
    assert poly_text(p) == "1 + q*t - q*t^2"
