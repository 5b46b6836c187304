"""E/P Macdonald polynomials, evaluations, norms, E-expansion, mu-pairing.

The E-expansion route (expand in E_b, act diagonally, resum) lives here as
a test oracle for the Y-operator route the pipeline uses.
"""

from fractions import Fraction

import pytest

from dahalink import weights as wt
from dahalink.scalars import (FactoredBinomial, InexactDivision, pmul,
                              pmono, pone, psubstitute, atom_expand_cached,
                              poly_parse, binomial_fb, _ex)
from dahalink import daha
from dahalink.daha import get_rep, word_of_rs, gamma_hat_project
from dahalink.macdonald import Mac, get_mac, NotMonic, NotSymmetric
from e_solve import (span_weights, span_solve, solved, eigen_exp,
                     NonTerminating)
from factoring import factored, scal_inv
from scal import Scal
from scal_xpoly import (xp_one, xp_mono, xp_add, xp_add_into, xp_eq,
                        xp_eval, xp_scale, to_scal, apply_linear, HALF,
                        minus_rho_k, xp_to_lattice, j_scal, e_scal, p_scal)
import weyl
from weyl import EvalPoint, pairing, sharp_point
from norms import (E_eval, P_eval, P_spherical, norm_spherical, norm_stable,
                   ratio_scal, mu_inner_truncated, star_scal, star_xpoly,
                   _rho_weight)


def scal_parse(num_text, den_atoms=()):
    return Scal(poly_parse(num_text), tuple(den_atoms))


def p_eval(m, lam):
    """The closed product P_eval's (num, den) pair as one Scal."""
    num, den = P_eval(m, lam)
    return Scal(num.expand()).div(den)


def eq_through(lhs, rhs, N):
    """Scal equality of q-series through order N."""
    d = lhs.sub(rhs)
    return all(k[0] > N for k in d.num)


# ---------------------------------------------------------------------------
# the E-expansion route (oracle)

def _order_key(c):
    """Total order refining the E-triangularity order; max = eliminated first."""
    c_plus, w = wt.sort_perm_maximal(c)
    v = wt.to_eps(c_plus)
    partial = []
    s = 0
    for x in v:
        s += x
        partial.append(s)
    return (tuple(partial), weyl.perm_len(w), wt.to_eps(c))


def expand_in_E(mac, f):
    """The coefficients of f in the basis E_b, as {b: Scal}."""
    rem = dict(f)
    out = {}
    last = None
    guard = 0
    while rem:
        guard += 1
        if guard > 100000:
            raise NonTerminating("E-expansion runaway")
        b = max(rem, key=_order_key)
        k = _order_key(b)
        if last is not None and k >= last:
            raise NonTerminating("E-expansion order not decreasing")
        last = k
        c = rem[b]
        out[b] = c
        xp_add_into(rem, e_scal(mac, b), c.neg())
        if b in rem:
            raise NonTerminating(f"failed to eliminate {b}")
    return out


def from_E(mac, coeffs):
    out = {}
    for b, c in coeffs.items():
        xp_add_into(out, e_scal(mac, b), c)
    return out


def tau_minus_dot(mac, f, m=1):
    """Scale E-components by q^{-m((b_+,b_+)/2 + (b_+,rho_k))}."""
    if not f:
        return {}
    out = {}
    for b, c in expand_in_E(mac, f).items():
        b_plus, _ = wt.sort_perm_maximal(b)
        eq = _ex(-m * weyl.norm2(b_plus) * HALF)
        et = _ex(-m * pairing(b_plus, _rho_weight(mac.n)))
        xp_add_into(out, e_scal(mac, b), c.scale(1, (eq, et, 0)))
    return out


def apply_fY(mac, f, g, sign=1):
    """f(Y^{-sign}) applied to g through the diagonal E-expansion."""
    out = {}
    for e, c in expand_in_E(mac, g).items():
        _, _, pt = sharp_point(e)
        if sign == 1:
            val = xp_eval(f, pt)
        else:
            val = xp_eval(f, EvalPoint(
                tuple(-x for x in pt.beta), tuple(-x for x in pt.kappa)))
        xp_add_into(out, e_scal(mac, e), c.mul(val))
    return out


# ---------------------------------------------------------------------------
# E polynomials

def test_E_trivial():
    m = get_mac(1)
    assert xp_eq(e_scal(m, (0,)), xp_one(1))
    assert xp_eq(e_scal(m, (1,)), xp_mono((1,)))   # minuscule: E_omega = X


def test_E_minus_omega():
    # E_{-omega} = X^{-1} + (1-t)/(1-qt) X
    m = get_mac(1)
    E = e_scal(m, (-1,))
    coeff = scal_parse("-1 + t", [('c', 1, 1, 1)])   # (t-1)/(qt-1)
    assert E[(-1,)].sub(Scal.one()).is_zero()
    assert E[(1,)].sub(coeff).is_zero()
    assert set(E) == {(1,), (-1,)}


@pytest.mark.parametrize("n,b", [(1, (2,)), (1, (-2,)), (2, (1, 1)),
                                 (2, (-1, 1)), (2, (0, -2)), (3, (1, 0, 1)),
                                 (3, (0, -1, -2)), (3, (0, -3, 2))])
def test_E_joint_eigenvector(n, b):
    m = get_mac(n)
    rep = get_rep(n)
    E = e_scal(m, b)
    assert E[b].sub(Scal.one()).is_zero()
    for i in range(1, n + 1):
        lam = Scal.mono(*eigen_exp(rep, i, b))
        YE = apply_linear(rep, lambda g: rep.y_op(rep.omegas[i], g), E)
        assert xp_eq(YE, xp_scale(E, lam))


def test_E_refuses_a_non_triangular_Y(monkeypatch):
    """In the span solve, Y-columns of X_0 and X_{-2} that reach each
    other leave no order in which to solve the rows of E_2."""
    rep = get_rep(1)
    y_op = rep.y_op
    partner = {(0,): (-2,), (-2,): (0,)}
    q7 = rep.to_lattice(pmono(eq=7))        # q^7 as a lattice poly

    def planted(om, f):
        out = y_op(om, f)
        for d in f:
            if d in partner:
                daha.xp_add_into(out, {partner[d]: q7})
        return out

    monkeypatch.setattr(rep, "y_op", planted)
    with pytest.raises(NonTerminating, match=r"Y not triangular: \["):
        span_solve(rep, (2,))


def test_span_weights_closed():
    span = set(span_weights((2,)))
    assert span == {(2,), (-2,), (0,)}


def _span_union(n, boxes):
    """The weights in the spans of the colors of at most `boxes` boxes at
    rank n, each once."""
    out = {}
    for lam in weyl.diagrams(boxes):
        if len(lam) <= n:
            out.update(dict.fromkeys(span_weights(wt.to_weight(lam, n))))
    return list(out)


@pytest.mark.parametrize("n,boxes", [(1, 3), (2, 3), (3, 3), (4, 2)])
def test_E_matches_the_span_solve(n, boxes):
    """The intertwiner E, num/den as Scals, equals the span solve on every
    weight in the spans of the colors of at most `boxes` boxes."""
    m = get_mac(n)
    for c in _span_union(n, boxes):
        assert xp_eq(e_scal(m, c), solved(m.rep, c)), c


def _divides(p, d):
    try:
        daha.lp_divexact(p, d)
    except InexactDivision:
        return False
    return True


@pytest.mark.parametrize("n,boxes", [(2, 3), (3, 3), (4, 4)])
def test_E_content_is_cancelled(n, boxes):
    """No atom of E's denominator divides every coefficient of its
    numerator, for E_b and each E_c on its intertwiner chain: the content
    of each T step is divided out, and a pi step only moves and shifts
    coefficients."""
    m = get_mac(n)
    for lam in weyl.diagrams(boxes):
        if len(lam) <= n:
            m.E(wt.to_weight(lam, n))
    for c, (num, den) in m._E.items():
        for a in set(den.atoms):
            div = m.rep.atom(a)
            assert not all(_divides(p, div) for p in num.values()), (c, a)


def _proportional(f, g, b):
    """f is a nonzero multiple of g, whose coefficient at X_b is 1."""
    lead = f.get(b)
    return lead is not None and xp_eq(f, xp_scale(g, lead))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_T_intertwiner_maps_E_c_to_E_sic(n):
    """((lam - 1) T_i + t^{1/2} - t^{-1/2}) E_c is a multiple of E_{s_i c}
    for either sign of c_i, where lam = q^{c_i} t^{k_i - k_{i+1}} and
    k = w_c^{-1} rho; E is the span solve's."""
    rep = get_rep(n)
    half = Scal.mono(et=HALF).sub(Scal.mono(et=-HALF))
    cases = 0
    for c in _span_union(n, 3):
        E = solved(rep, c)
        k = sharp_point(c)[2].kappa
        for i in range(1, n + 1):
            ci = c[i - 1]
            if not ci:
                continue
            lam1 = Scal.mono(ci, k[i - 1] - k[i]).sub(Scal.one())
            TE = apply_linear(rep, lambda g: rep.t_op(i, g), E)
            f = xp_add(xp_scale(TE, lam1), xp_scale(E, half))
            b = tuple(x - ci * a for x, a in zip(c, rep.alphas[i]))
            assert _proportional(f, solved(rep, b), b), (c, i)
            cases += 1
    assert cases


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi_intertwiner_maps_E_c_to_E_c_prime(n):
    """X_{omega_1} pi_1 E_c is a multiple of E_{c'}, where
    c' = (v_{n+1} + 1, v_1, ..., v_n) in c's epsilon coordinates v; E is
    the span solve's."""
    rep = get_rep(n)
    om = rep.omegas[1]
    for c in _span_union(n, 3):
        v = wt.to_eps(c)
        b = wt.from_eps((v[-1] + 1,) + v[:-1])
        f = apply_linear(rep, lambda g: rep.xmul(om, rep.pi_op(1, g)),
                         solved(rep, c))
        assert _proportional(f, solved(rep, b), b), c


# ---------------------------------------------------------------------------
# P polynomials

def test_P_minuscule_orbit_sums():
    m1 = get_mac(1)
    assert xp_eq(p_scal(m1, (1,)), xp_add(xp_mono((1,)), xp_mono((-1,))))
    m2 = get_mac(2)
    want = {(1, 0): Scal.one(), (-1, 1): Scal.one(), (0, -1): Scal.one()}
    assert xp_eq(p_scal(m2, (1,)), want)


def test_P_two_omega():
    # P_(2) = X^2 + X^-2 + (1+q)(1-t)/(1-qt)
    m = get_mac(1)
    P = p_scal(m, (2,))
    mid = scal_parse("-1 - q + t + q*t", [('c', 1, 1, 1)])
    assert P[(0,)].sub(mid).is_zero()
    assert P[(2,)].sub(Scal.one()).is_zero()
    assert P[(-2,)].sub(Scal.one()).is_zero()


@pytest.mark.parametrize("n,lam", [(2, (2, 1)), (2, (2, 2)), (3, (2, 1)),
                                   (3, (1, 1, 1))])
def test_P_hecke_invariant_and_monic(n, lam):
    m = get_mac(n)
    rep = get_rep(n)
    P = p_scal(m, lam)
    assert P[wt.to_weight(lam, n)].sub(Scal.one()).is_zero()
    for i in range(1, n + 1):
        TP = apply_linear(rep, lambda g: rep.t_op(i, g), P)
        assert xp_eq(TP, xp_scale(P, Scal.mono(et=HALF)))


def test_P_rank_guard():
    with pytest.raises(wt.RankTooSmall):
        p_scal(get_mac(1), (1, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetrize_lead_is_stabilizer_poincare(n):
    """Mac.J divides by the stabilizer's Poincare product; it must equal
    the coefficient of X_b in symmetrize(E_b)'s numerator over E_b's
    denominator, computed here directly."""
    m = get_mac(n)
    for lam in [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (1, 1, 1),
                (2, 1, 1)]:
        if len(lam) > n:
            continue
        b = wt.to_weight(lam, n)
        num, den = m.E(b)
        lead = Scal(m.rep.from_lattice(m.symmetrize(num)[b])).div(den)
        assert lead == Scal(wt.poincare(b).expand()), (n, lam)


def test_P_raises_when_the_lead_is_not_the_poincare_product(monkeypatch):
    monkeypatch.setattr(wt, "poincare", lambda b: FactoredBinomial.one())
    with pytest.raises(NotMonic):
        p_scal(Mac(2), (1,))


@pytest.mark.parametrize("n,lam", [(2, (1,)), (3, (2, 1))])
def test_J_refuses_a_numerator_that_is_not_symmetric(n, lam, monkeypatch):
    """J divides at dominant weights only and fills each orbit from them;
    a symmetrized numerator that differs at one weight that is not
    dominant raises NotSymmetric, naming that weight."""
    m = Mac(n)
    symmetrize = m.symmetrize
    planted = []

    def broken(f):
        out = symmetrize(f)
        c = [b for b in out if min(b) < 0][-1]
        out[c] = daha.lp_shift(out[c], 1)
        planted.append(c)
        return out

    monkeypatch.setattr(m, "symmetrize", broken)
    with pytest.raises(NotSymmetric) as err:
        m.J(lam)
    assert f"at X_{planted[0]} is not" in str(err.value)


def test_poincare_of_zero_is_the_full_group():
    # sum over S_3 of t^l(w) = 1 + 2t + 2t^2 + t^3
    assert wt.poincare((0, 0)).expand() == poly_parse(
        "1 + 2*t + 2*t^2 + t^3")


# ---------------------------------------------------------------------------
# closed evaluations

def test_eval_examples():
    m = get_mac(1)
    # P at omega: t^{-1/2}(1+t)
    want = Scal({(0, Fraction(-1, 2), 0): 1, (0, Fraction(1, 2), 0): 1})
    assert p_eval(m, (1,)).sub(want).is_zero()
    # P at 2*omega: t^{-1}(1+t)(1-qt^2)/(1-qt)
    want2 = scal_parse("-t^-1 - 1 + q*t + q*t^2", [('c', 1, 1, 1)])
    assert p_eval(m, (2,)).sub(want2).is_zero()


@pytest.mark.parametrize("n,lams,bs", [
    (1, [(1,), (2,), (3,)], [(1,), (-1,), (2,), (-2,), (3,)]),
    (2, [(1,), (2,), (1, 1), (2, 1), (3, 1)],
     [(1, 0), (-1, 1), (0, -1), (2, -1)]),
    (3, [(1,), (2, 1), (1, 1, 1)], [(0, 1, 0), (1, -1, 1)]),
])
def test_eval_closed_equals_substitution(n, lams, bs):
    m = get_mac(n)
    pt = minus_rho_k(n)
    for lam in lams:
        assert xp_eval(p_scal(m, lam), pt).sub(p_eval(m, lam)).is_zero()
    for b in bs:
        assert xp_eval(e_scal(m, b), pt).sub(E_eval(m, b)).is_zero()


def test_spherical_coinvariant_one():
    """The coinvariant (evaluation at q^{-rho_k}) of P-spherical is 1."""
    m = get_mac(2)
    pt = minus_rho_k(2)
    for lam in [(1,), (2, 1)]:
        assert xp_eval(P_spherical(m, lam), pt).sub(Scal.one()).is_zero()


# ---------------------------------------------------------------------------
# J and integrality

def int_coeffs(f):
    return all(c.is_poly()
               and all(Fraction(v).denominator == 1 for v in c.num.values())
               for c in f.values())


@pytest.mark.parametrize("n,lam", [(1, (2,)), (1, (3,)), (2, (2, 1)),
                                   (2, (2, 2))])
def test_J_integral(n, lam):
    """The Scal route leaves no denominator, and the lattice J has integer
    coefficients."""
    m = get_mac(n)
    assert int_coeffs(j_scal(m, lam))
    assert all(type(v) is int for c in m.J(lam).values() for v in c.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_J_matches_the_scal_route(n):
    """The lattice J, divided by one factored divisor, equals the Scal
    route's J (divide by the Poincare product, then multiply by h_lam) for
    every color of at most 4 boxes."""
    m = get_mac(n)
    for lam in weyl.diagrams(4):
        if len(lam) <= n:
            assert m.J(lam) == xp_to_lattice(m.rep, j_scal(m, lam)), lam


@pytest.mark.parametrize("n,b", [(1, (3,)), (1, (-3,)), (1, (4,)),
                                 (2, (1, 1)), (2, (-2, 1)), (2, (2, 2))])
def test_tilde_N_E_integrality(n, b):
    """tilde_N * E-spherical has polynomial coefficients."""
    m = get_mac(n)
    Nb = Scal(weyl.tilde_N(b).expand())
    f = xp_scale(e_scal(m, b), scal_inv(E_eval(m, b)))
    assert int_coeffs(xp_scale(f, Nb))


@pytest.mark.parametrize("n,b", [(1, (3,)), (1, (4,)), (2, (2, 2))])
def test_tilde_N_P_integrality(n, b):
    """tilde_N clears every mixed q,t denominator of P-spherical.

    The symmetric form keeps a pure-t Poincare factor downstairs (it is
    P_+(E-spherical)/Poincare), so integrality holds after multiplying by
    the Poincare polynomial; the remaining denominators are q-free.
    """
    m = get_mac(n)
    lam = weyl.to_diagram(b)
    Nb = Scal(weyl.tilde_N(b).expand())
    f = xp_scale(P_spherical(m, lam), Nb)
    for c in f.values():
        assert all(eq == 0 for _, _, eq, _ in c.den)
    pi = Scal(wt.poincare(wt.zero(n)).expand())
    assert int_coeffs(xp_scale(f, pi))


# ---------------------------------------------------------------------------
# E-expansion and diagonal operators

def test_expand_in_E_examples():
    m = get_mac(1)
    # X^{-1} = E_{-omega} - (1-t)/(1-qt) E_omega
    coeffs = expand_in_E(m, xp_mono((-1,)))
    cpos = scal_parse("1 - t", [('c', 1, 1, 1)])     # -(1-t)/(1-qt)
    assert coeffs[(-1,)].sub(Scal.one()).is_zero()
    assert coeffs[(1,)].sub(cpos).is_zero()
    # round trip
    assert xp_eq(from_E(m, coeffs), xp_mono((-1,)))


@pytest.mark.parametrize("n,lam", [(1, (2,)), (2, (2, 1))])
def test_expand_resum(n, lam):
    m = get_mac(n)
    P = p_scal(m, lam)
    assert xp_eq(from_E(m, expand_in_E(m, P)), P)


def test_tau_minus_dot_eigen():
    # tau-dot scales E_omega by q^{-((w,w)/2 + (w,rho_k))} = q^{-1/4}t^{-1/2}
    m = get_mac(1)
    E = e_scal(m, (1,))
    got = tau_minus_dot(m, E, 1)
    want = xp_scale(E, Scal.mono(eq=Fraction(-1, 4), et=Fraction(-1, 2)))
    assert xp_eq(got, want)
    assert xp_eq(tau_minus_dot(m, tau_minus_dot(m, E, -1), 1), E)


def test_tau_minus_dot_one():
    m = get_mac(1)
    assert xp_eq(tau_minus_dot(m, xp_one(1), 5), xp_one(1))


def test_tau_minus_dot_matches_word_action():
    """tau_-^m through the projection equals the diagonal scaling."""
    m = get_mac(1)
    rep = get_rep(1)
    f = xp_add(xp_mono((1,)), xp_mono((-1,)))
    via_word = gamma_hat_project((('-', 1),), xp_to_lattice(rep, f), rep)
    assert xp_eq(to_scal(rep, via_word), tau_minus_dot(m, f, 1))


@pytest.mark.parametrize("n,lam,rs", [
    (n, (1,), rs) for n in (1, 2) for rs in [(1, 1), (1, 2), (1, -1), (2, 3)]
] + [(1, (2,), (2, 3)), (1, (2,), (3, 5))])
def test_leading_tau_minus_run_acts_diagonally(n, lam, rs):
    """A leading tau_- run of net exponent m projects as tau_minus_dot(m)."""
    m = get_mac(n)
    rep = get_rep(n)
    Q = m.J(lam)
    w = word_of_rs(*rs)
    k = net = 0
    while k < len(w) and w[k][0] == '-':
        net += w[k][1]
        k += 1
    assert net
    tail = to_scal(rep, gamma_hat_project(w[k:], Q, rep))
    want = tau_minus_dot(m, tail, net)
    assert xp_eq(to_scal(rep, gamma_hat_project(w, Q, rep)), want)


def test_apply_fY_identity():
    m = get_mac(1)
    g = p_scal(m, (2,))
    assert xp_eq(apply_fY(m, xp_one(1), g, 1), g)


def test_apply_fY_hopf_eigenvalue():
    # P_box(Y^{-1}) P_box = (q^{(w,w+rho_k)} + q^{-(w,w+rho_k)}) P_box
    m = get_mac(1)
    P = p_scal(m, (1,))
    got = apply_fY(m, P, P, 1)
    lam = Scal.mono(eq=HALF2, et=HALF2).add(Scal.mono(eq=-HALF2, et=-HALF2))
    assert xp_eq(got, xp_scale(P, lam))


HALF2 = Fraction(1, 2)


@pytest.mark.parametrize("sign", [1, -1])
def test_apply_fY_matches_y_op(sign):
    m = get_mac(2)
    rep = get_rep(2)
    g = p_scal(m, (2, 1))
    for fb in [(1, 0), (0, 1), (1, 1)]:
        via = apply_fY(m, {fb: Scal.one()}, g, sign)
        b = tuple(-sign * x for x in fb)
        direct = apply_linear(rep, lambda h: rep.y_op(b, h), g)
        assert xp_eq(via, direct)


# ---------------------------------------------------------------------------
# norms and the mu-pairing

def test_mu_inner_one():
    one = xp_one(1)
    got = mu_inner_truncated(one, one, 1, 4)
    assert got.sub(Scal.one()).is_zero()


def test_mu_orthogonality():
    m = get_mac(1)
    assert mu_inner_truncated(p_scal(m, (1,)), p_scal(m, (2,)), 1, 4).is_zero()
    assert mu_inner_truncated(e_scal(m, (1,)), e_scal(m, (-1,)), 1,
                              4).is_zero()


def test_norm_spherical_vs_pairing_rank1():
    m = get_mac(1)
    N = 4
    got = mu_inner_truncated(P_spherical(m, (1,)), P_spherical(m, (1,)), 1, N)
    assert eq_through(got, norm_spherical(m, (1,)), N)


def test_norm_spherical_closed_rank1():
    # <P1,P1> = (1-q)(1-t^2)/((1-t)(1-qt)); spherical divides by ev*ev_star
    m = get_mac(1)
    ev = p_eval(m, (1,))
    full = norm_spherical(m, (1,)).mul(ev).mul(star_scal(ev))
    want = scal_parse("1 - q - t^2 + q*t^2",
                      [('c', 1, 0, 1), ('c', 1, 1, 1)])
    assert full.sub(want).is_zero()


def E_norm_from_lambda_plus(b):
    num = FactoredBinomial.one()
    den = FactoredBinomial.one()
    for (l, mm), j in weyl.lambda_plus_set(b):
        p = mm - l
        num = num.mul(binomial_fb(j, p - 1)).mul(binomial_fb(j, p + 1))
        den = den.mul(binomial_fb(j, p)).mul(binomial_fb(j, p))
    return ratio_scal(num, den, 0)


@pytest.mark.parametrize("n,lam", [(1, (2,)), (2, (1, 1)), (2, (2, 1))])
def test_norm_spherical_vs_E_norm_sum(n, lam):
    """Independent route: expand P in E's and sum squared E-norms."""
    m = get_mac(n)
    acc = Scal.zero()
    for e, c in expand_in_E(m, p_scal(m, lam)).items():
        acc = acc.add(c.mul(star_scal(c)).mul(E_norm_from_lambda_plus(e)))
    ev = p_eval(m, lam)
    sph = acc.mul(scal_inv(ev)).mul(scal_inv(star_scal(ev)))
    assert sph.sub(norm_spherical(m, lam)).is_zero()


def stable_at_rank(lam, n):
    st = norm_stable(lam)
    num = psubstitute(st.num, a=(-1, 0, n + 1, 0))
    den = pone()
    for atm in st.den:
        den = pmul(den, psubstitute(atom_expand_cached(atm),
                                    a=(-1, 0, n + 1, 0)))
    return Scal(num).div(factored(den))


@pytest.mark.parametrize("n,lam", [(1, (1,)), (1, (3,)), (2, (1,)),
                                   (2, (1, 1)), (2, (2, 1)), (3, (2, 2)),
                                   (4, (1, 1))])
def test_norm_stable_specializes(n, lam):
    want = norm_spherical(get_mac(n), lam)
    assert stable_at_rank(lam, n).sub(want).is_zero()


def test_star_xpoly_involution():
    m = get_mac(1)
    E = e_scal(m, (-1,))
    assert xp_eq(star_xpoly(star_xpoly(E)), E)
