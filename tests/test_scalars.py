"""Exact scalar arithmetic: Laurent polys, binomial atoms, restricted fractions."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dahalink.scalars import (
    FactoredBinomial, ZeroPolynomial, ZeroAtAEqualsZero,
    InexactDivision, FractionalResidue,
    pone, pmono, psub, pmul, ppow, pscale, pdivexact,
    psubstitute, hat_normalize, binomial_atoms, binomial_fb, a_atom,
    atom_expand_cached, series_divide, poly_text, poly_parse, _cyclo_coeffs,
    quotient,
)
from factoring import NotABinomialProduct, factor_binomials, scal_inv
import scal
from scal import Scal, padd, pdivides, _multiset_union


def P(text):
    return poly_parse(text)


# ---------------------------------------------------------------------------
# polynomial layer

def test_pmono_zero_coeff_dropped():
    assert pmono(c=0) == {}


def test_add_sub_roundtrip():
    f = P("1 + 2*q - t^2")
    g = P("3*q*t + a*q^-1")
    assert psub(padd(f, g), g) == f


def test_mul_example():
    f = P("1 - q*t")
    g = P("1 + q*t")
    assert pmul(f, g) == P("1 - q^2*t^2")


def test_pow():
    f = P("1 + q")
    assert ppow(f, 3) == P("1 + 3*q + 3*q^2 + q^3")
    assert ppow(f, 0) == pone()


def test_divexact():
    cases = [
        (P("1 + q + t^3"), P("1 - q*t")),
        # long exact quotient: 5000 steps of elimination
        ({(i, 0, 0): 1 for i in range(5000)}, P("1 - q")),
        # q-exponents on the rank lattice (denominators 2(n+1)), t on halves
        (padd(pmono(Fraction(1, 2), Fraction(-1, 2)),
              pmono(Fraction(-1, 6), 1, 1, 3)),
         padd(pone(), pmono(Fraction(3, 2), Fraction(1, 2), c=-1))),
    ]
    for quo, den in cases:
        assert pdivexact(pmul(quo, den), den) == quo


def test_divexact_fails_on_remainder():
    cases = [
        (P("1 + q + q^3"), P("1 - q*t")),
        # infinitely many lex-order keys lie above the quotient's lex floor
        (P("1 + q^-1"), P("1 - t")),
    ]
    for num, den in cases:
        with pytest.raises(InexactDivision):
            pdivexact(num, den)


def test_divexact_keeps_int_quotients_ints():
    """An int coefficient that divides gives an int, and one that does not
    gives the exact Fraction."""
    quo = pdivexact(P("2 - 2*q^2*t"), P("2 + 2*q*t^(1/2)"))
    assert quo == P("1 - q*t^(1/2)")
    assert all(type(c) is int for c in quo.values())
    quo = pdivexact(P("1 + 3*q"), P("2"))
    assert quo == {(0, 0, 0): Fraction(1, 2), (1, 0, 0): Fraction(3, 2)}
    assert all(type(c) is Fraction for c in quo.values())


def test_pdivides_none():
    assert pdivides(P("1 + q"), P("1 + t")) is None


# fractional exponents
def test_fractional_exponents_arithmetic():
    f = pmono(Fraction(1, 2), Fraction(-1, 2))
    assert pmul(f, f) == pmono(1, -1)


# ---------------------------------------------------------------------------
# canonical text form

def test_poly_text_ordering():
    p = P("1 + q*t - q*t^2")
    assert poly_text(p) == "1 + q*t - q*t^2"


def test_poly_text_parse_roundtrip_fractional():
    p = pmono(Fraction(1, 2), Fraction(-3, 2), 1, -2)
    assert poly_parse(poly_text(p)) == p


coeffs = st.integers(min_value=-6, max_value=6)
expos = st.integers(min_value=-4, max_value=4)
aexpos = st.integers(min_value=0, max_value=2)


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    out = {}
    for _ in range(n):
        k = (draw(expos), draw(expos), draw(aexpos))
        c = draw(coeffs)
        if c:
            out[k] = c
    return out


@given(polys())
@settings(max_examples=60, deadline=None)
def test_text_roundtrip(p):
    assert poly_parse(poly_text(p)) == p


@given(polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(f, g, h):
    assert pmul(f, padd(g, h)) == padd(pmul(f, g), pmul(f, h))
    assert pmul(pmul(f, g), h) == pmul(f, pmul(g, h))


@given(polys(), polys().filter(lambda b: len(b) >= 2),
       st.tuples(expos, expos, aexpos), coeffs.filter(bool))
@settings(max_examples=60, deadline=None)
def test_divexact_property(a, b, key, c):
    ab = pmul(a, b)
    assert pdivexact(ab, b) == a
    # a monomial is a unit, so no multiple of b differs from ab by one
    with pytest.raises(InexactDivision):
        pdivexact(padd(ab, pmono(*key, c=c)), b)


# ---------------------------------------------------------------------------
# hat-normalization

def test_hat_normalize_examples():
    # q(1+qt) -> 1+qt ; -t(1+q) -> 1+q ; qt+q^2t^2 -> 1+qt
    for src, want in [("q + q^2*t", "1 + q*t"),
                      ("-t - q*t", "1 + q"),
                      ("q*t + q^2*t^2", "1 + q*t")]:
        p, _ = hat_normalize(P(src))
        assert poly_text(p) == want


def test_hat_normalize_idempotent():
    p, shift = hat_normalize(P("-q^2*t + q^3*t^3 + a*q^2"))
    p2, shift2 = hat_normalize(p)
    assert p2 == p and shift2[0] == 1 and shift2[1] == 0 and shift2[2] == 0


def test_hat_normalize_errors():
    with pytest.raises(ZeroPolynomial):
        hat_normalize({})
    with pytest.raises(ZeroAtAEqualsZero):
        hat_normalize(P("a*q"))


# ---------------------------------------------------------------------------
# binomial atoms / factored products

def test_difference_of_squares():
    c, key, atoms = binomial_atoms(2, 2)
    # 1 - q^2 t^2 = -(qt-1)(qt+1): atoms Phi_1(qt), Phi_2(qt)
    assert set(atoms) == {('c', 1, 1, 1), ('c', 2, 1, 1)}
    fb = FactoredBinomial(c, key, atoms)
    assert fb.expand() == P("1 - q^2*t^2")


def test_expand_factor_roundtrip():
    p = pmul(pmul(P("1 - q*t"), P("1 - q^2*t")), pmono(1, -2, 0, 3))
    c, key, atoms = factor_binomials(p)
    assert FactoredBinomial(c, key, atoms).expand() == p


def test_factor_cyclotomic_fallback():
    # 1+t+t^2 = Phi_3(t): not a binomial product but still a single atom
    c, key, atoms = factor_binomials(P("1 + t + t^2"))
    assert atoms == (('c', 3, 0, 1),) and c == 1


def test_factor_rejects_non_product():
    with pytest.raises(NotABinomialProduct):
        factor_binomials(P("1 + q + q^3*t"))


def test_factored_binomial_cancel_drops_shared_atoms():
    num = binomial_fb(0, 2).mul(binomial_fb(1, 1))    # (1-t^2)(1-qt)
    den = binomial_fb(0, 1).mul(binomial_fb(0, 3))    # (1-t)(1-t^3)
    n2, d2 = num.cancel(den)
    assert n2.atoms == (('c', 1, 1, 1), ('c', 2, 0, 1))
    assert d2.atoms == (('c', 1, 0, 1), ('c', 3, 0, 1))
    assert pmul(n2.expand(), den.expand()) == pmul(num.expand(), d2.expand())


def test_pi_dagger_lcm():
    # (1+a)(1+qa) vs (1+a)(1+a/t) -> (1+a)(1+qa)(1+a/t): the common
    # denominator Scal.add builds
    x = FactoredBinomial(1, (0, 0, 0), (a_atom(0, 0), a_atom(1, 0)))
    y = FactoredBinomial(1, (0, 0, 0), (a_atom(0, 0), a_atom(0, -1)))
    l = _multiset_union(x.atoms, y.atoms)
    assert sorted(l) == sorted((a_atom(0, 0), a_atom(1, 0), a_atom(0, -1)))


def test_a_atom_expand():
    assert atom_expand_cached(a_atom(1, -2)) == P("1 + a*q*t^-2")


CYCLOTOMIC = {
    1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1,) * 5,
    6: (1, -1, 1), 7: (1,) * 7, 8: (1, 0, 0, 0, 1), 9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1), 11: (1,) * 11, 12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("d", sorted(CYCLOTOMIC))
def test_cyclo_coeffs_small(d):
    assert _cyclo_coeffs(d) == CYCLOTOMIC[d]


def test_cyclo_degree_is_totient():
    for d in range(1, 61):
        phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        assert len(_cyclo_coeffs(d)) - 1 == phi


def test_cyclo_105_has_minus_two():
    # the least d whose Phi_d has a coefficient outside {-1, 0, 1}
    big = {j: c for j, c in enumerate(_cyclo_coeffs(105)) if abs(c) > 1}
    assert big == {7: -2, 41: -2}


# ---------------------------------------------------------------------------
# Scal fraction ring

def test_scal_auto_cancel():
    s = Scal(P("1 - q^2*t^2"), (('c', 1, 1, 1),))
    assert s.is_poly()
    assert s.num == pscale(P("1 + q*t"), -1)


def test_scal_add_different_dens():
    a = Scal(pone(), (('c', 1, 1, 1),))       # 1/(qt-1)
    b = Scal(pone(), (('c', 2, 1, 1),))       # 1/(qt+1)
    s = a.add(b)
    assert s.mul(Scal(P("1 - q^2*t^2"))).sub(Scal(P("-2*q*t"))).is_zero()


def test_scal_inv_roundtrip():
    s = Scal(P("1 - q*t^2"), (('c', 1, 0, 1),))
    assert s.mul(scal_inv(s)).sub(Scal.one()).is_zero()


def test_scal_div_by_factored_binomial():
    # (1 - q^2 t^2) / (-q^-1 (1 - q t)) = -q (1 + q t): the atom Phi_1(qt)
    # joins the denominator and cancels, Phi_2(qt) never enters it
    fb = binomial_fb(1, 1).mul(FactoredBinomial(-1, (-1, 0, 0)))
    assert fb.expand() == P("-q^-1 + t")
    s = Scal(P("1 - q^2*t^2")).div(fb)
    assert s.is_poly() and s.num == P("-q - q^2*t")
    # an atom that does not divide stays in the denominator, sorted
    s = Scal(P("1 + q"), (('c', 2, 0, 1),)).div(binomial_fb(0, 1))
    assert s.den == (('c', 1, 0, 1), ('c', 2, 0, 1))
    assert s.num == P("-1 - q")


def test_quotient_keeps_only_the_atoms_that_do_not_divide():
    # the same division as above, into a Quotient
    fb = binomial_fb(1, 1).mul(FactoredBinomial(-1, (-1, 0, 0)))
    assert quotient(P("1 - q^2*t^2"), fb) == (P("-q - q^2*t"), ())
    fb = binomial_fb(0, 1).mul(FactoredBinomial(1, (0, 0, 0),
                                                (('c', 2, 0, 1),)))
    h = quotient(P("1 + q"), fb)
    assert h == (P("-1 - q"), (('c', 1, 0, 1), ('c', 2, 0, 1)))
    # (1 - q)^2 has the atom Phi_1(q) twice; 1 - q^2 takes it only once
    fb = binomial_fb(1, 0).mul(binomial_fb(1, 0))
    assert quotient(P("1 - q^2"), fb) == (P("-1 - q"), (('c', 1, 1, 0),))


def test_scal_eq_cross_multiplied():
    a = Scal(P("1 - q^2*t^2"), (('c', 2, 1, 1),))
    b = Scal(pscale(P("1 - q*t"), 1))
    assert a == b


def test_scal_scale_runs_no_trial_division(monkeypatch):
    s = Scal(P("1 - q*t^2"), (('c', 1, 0, 1), ('c', 2, 1, 1)))
    assert len(s.den) == 2
    want = Scal(pscale(s.num, -3, (1, -2, 0)), s.den)
    calls = []
    pdivides = scal.pdivides
    monkeypatch.setattr(scal, "pdivides",
                        lambda n, d: calls.append(d) or pdivides(n, d))
    got = s.scale(-3, (1, -2, 0))
    assert calls == []
    assert (got.num, got.den) == (want.num, want.den)


def test_scal_unhashable():
    with pytest.raises(TypeError):
        hash(Scal.one())


# ---------------------------------------------------------------------------
# substitution

def test_substitute_trefoil_homfly_style():
    # (1+qt+aq) at a=-1, t=q -> 1-q+q^2
    p = P("1 + a*q + q*t")
    got = psubstitute(psubstitute(p, a=(-1, 0, 0, 0)), t=(1, 1, 0, 0))
    assert got == P("1 - q + q^2")


def test_substitute_identity():
    p = P("2 - q*t^2 + a*q^-1")
    assert psubstitute(p) == p


def test_substitute_minus_one_image_signs_by_parity():
    """A -1 image gives (-1)^e for odd and even e alike, as the power of
    Fraction(-1) does, and ints stay ints; a fractional e still raises."""
    p = P("2 + q - 3*q^2 + a^2*q^-3 - q^-4*t + q^(3)*t^(1/2)")
    for image in ((-1, 1, 0, 0), (-1, 0, 1, 1)):
        got = psubstitute(p, q=image)
        want = psubstitute(p, q=(1,) + image[1:])
        want = {k: c * Fraction(-1) ** e
                for (e, _, _), (k, c) in zip(p, want.items())}
        assert got == want
        assert all(type(c) is int for c in got.values())
    with pytest.raises(FractionalResidue):
        psubstitute(pmono(Fraction(1, 2)), q=(-1, 1, 0, 0))


def test_substitute_fractional_residue():
    # q^{1/2} with q -> a leaves a^{1/2}
    p = pmono(Fraction(1, 2))
    with pytest.raises(FractionalResidue):
        psubstitute(p, q=(1, 0, 0, 1))


# ---------------------------------------------------------------------------
# truncated series

def test_series_divide_trivial():
    assert series_divide(P("1 - t"), 1, 0, 3) == pone()


def test_series_geometric():
    got = series_divide(pone(), 1, 0, 3)
    assert got == P("1 + t + t^2 + t^3")


def test_series_long_division():
    got = series_divide(P("1 - t + q*t"), 1, 0, 2)
    assert got == P("1 + q*t + q*t^2")


def test_series_divide_reproduces_truncation():
    p = P("1 + q*t - t^3")
    prod = pmul(p, ppow(P("1 - t"), 2))
    assert series_divide(prod, 2, 0, 3) == {k: v for k, v in p.items()
                                            if k[1] <= 3}

