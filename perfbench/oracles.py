"""Checks on dahalink's outputs, computed without dahalink.

Results arrive as `poly_text` strings.  They are parsed here into the
benchmark's own exact form, a dict {(e_q, e_t, e_a): coefficient} with
Fraction exponents and coefficients, and checked against properties that
do not come from the DAHA construction:

  * the Seifert cabling formula for the Alexander polynomial of a knot;
  * the Torres condition |Delta(1)| = |lk| for two-component links;
  * super-duality q -> 1/t, t -> 1/q, which maps a colored result to the
    result of the transposed coloring;
  * colored unknots give 1;
  * an evaluation at a fixed rank m, also one outside the stabilization
    window, agrees with the superpolynomial specialized at a = -t^(m+1).

Every check returns None when it holds and a one-line reason when it does
not.
"""

from fractions import Fraction
import re

# ---------------------------------------------------------------------------
# polynomials in q, t, a

_FACTOR = re.compile(r"^([qta])(?:\^\(?(-?\d+(?:/\d+)?)\)?)?$")


def parse(text):
    """Parse dahalink's canonical text form into {(eq, et, ea): coeff}."""
    text = text.strip()
    if text == "0":
        return {}
    # split on the " + " / " - " separators between terms; a leading "-"
    # belongs to the first term, and "^-" never has spaces around it
    pieces = re.split(r" ([+-]) ", text)
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    terms = [pieces[0].lstrip("-")] + pieces[2::2]
    out = {}
    for sign, term in zip(signs, terms):
        coeff = Fraction(1)
        exps = {"q": Fraction(0), "t": Fraction(0), "a": Fraction(0)}
        for fac in term.split("*"):
            m = _FACTOR.match(fac)
            if m:
                exps[m.group(1)] += Fraction(m.group(2) or 1)
            else:
                coeff *= Fraction(fac)
        if exps["a"].denominator != 1:
            raise ValueError(f"fractional a-exponent in {term!r}")
        key = (exps["q"], exps["t"], exps["a"])
        add_term(out, key, -coeff if sign == "-" else coeff)
    return out


def add_term(p, key, c):
    v = p.get(key, 0) + c
    if v:
        p[key] = v
    else:
        p.pop(key, None)


def mul(p1, p2):
    out = {}
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            add_term(out, (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2]),
                     c1 * c2)
    return out


def substitute(p, fn):
    """Apply fn(key) -> (sign, key) to every term."""
    out = {}
    for k, c in p.items():
        s, kk = fn(k)
        add_term(out, kk, s * c)
    return out


def divide(num, den):
    """Exact quotient num / den, or None.

    Long division on the largest key in lex order.  Lex order alone has
    infinitely many keys above any floor, so every quotient key is kept in
    the per-variable box that an exact quotient lies in:
    min_v(num) - min_v(den) <= e_v <= max_v(num) - max_v(den).  Keys fall
    strictly in lex order and there are finitely many in the box.
    """
    if not den:
        raise ZeroDivisionError
    if not num:
        return {}
    lo = [min(k[v] for k in num) - min(k[v] for k in den) for v in range(3)]
    hi = [max(k[v] for k in num) - max(k[v] for k in den) for v in range(3)]
    dlead = max(den)
    rem = dict(num)
    quo = {}
    while rem:
        lead = max(rem)
        qk = tuple(a - b for a, b in zip(lead, dlead))
        if any(not lo[v] <= qk[v] <= hi[v] for v in range(3)):
            return None
        qc = rem[lead] / den[dlead]
        quo[qk] = qc
        for k, c in den.items():
            add_term(rem, tuple(a + b for a, b in zip(qk, k)), -qc * c)
    return quo


def same_up_to_unit(p1, p2):
    """p1 == +-q^i t^j * p2."""
    if not p1 or not p2:
        return p1 == p2
    k1, k2 = min(p1), min(p2)
    c = p1[k1] / p2[k2]
    if c not in (1, -1) or k1[2] != k2[2]:
        return False
    dq, dt = k1[0] - k2[0], k1[1] - k2[1]
    return p1 == {(k[0] + dq, k[1] + dt, k[2]): c * v for k, v in p2.items()}


def one_minus_q_power(n):
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        out = mul(out, {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(-1)})
    return out


def at_q1(p):
    """Value at q = 1 of a polynomial in q alone."""
    if any(k[1] or k[2] for k in p):
        raise ValueError("not a polynomial in q alone")
    return sum(p.values())


# ---------------------------------------------------------------------------
# specializations, recomputed from the superpolynomial

def alexander_numerator(sup):
    """t -> q, a -> -1."""
    return substitute(sup, lambda k: ((-1) ** int(k[2]), (k[0] + k[1], 0, 0)))


def alexander_of(sup, components):
    """The Alexander numerator divided by (1-q)^kappa for a link of
    kappa > 1 components, or None when that does not divide."""
    power = components if components > 1 else 0
    return divide(alexander_numerator(sup), one_minus_q_power(power))


def at_rank(sup, m):
    """a = -t^(m+1)."""
    return substitute(sup, lambda k: ((-1) ** int(k[2]),
                                      (k[0], k[1] + (m + 1) * k[2], 0)))


def dual(sup):
    """q -> 1/t, t -> 1/q."""
    return substitute(sup, lambda k: (1, (-k[1], -k[0], k[2])))


# ---------------------------------------------------------------------------
# knot theory oracles

def _univariate(exps):
    """{(e, 0, 0): c} from {e: c}."""
    return {(Fraction(e), Fraction(0), Fraction(0)): Fraction(c)
            for e, c in exps.items() if c}


def _x_power_minus_one(n, scale):
    return _univariate({n * scale: 1, 0: -1})


def torus_alexander(r, s, scale=1):
    """Delta_{T(r,s)}(x^scale) = (x^rs - 1)(x - 1) / ((x^r - 1)(x^s - 1))."""
    r, s = abs(r), abs(s)
    if r <= 1 or s <= 1:
        return _univariate({0: 1})
    num = mul(_x_power_minus_one(r * s, scale), _x_power_minus_one(1, scale))
    den = mul(_x_power_minus_one(r, scale), _x_power_minus_one(s, scale))
    return divide(num, den)


def cab_params(labels):
    """(a_i, r_i) along one path: a_1 = s_1, a_i = a_{i-1} r_{i-1} r_i + s_i."""
    out, a = [], 0
    for i, (r, s) in enumerate(labels):
        a = s if i == 0 else a * labels[i - 1][0] * r + s
        out.append((a, r))
    return out


def cable_alexander(labels, boxes=1):
    """Seifert's cabling product prod_i Delta_{T(r_i,a_i)}(x^{b r_{i+1}...r_l})
    for a knot colored by one row or one column of b boxes."""
    params = cab_params(labels)
    out = _univariate({0: 1})
    for i, (a, r) in enumerate(params):
        scale = boxes
        for _, rr in params[i + 1:]:
            scale *= rr
        out = mul(out, torus_alexander(r, a, scale))
    return out


def tree_linking_number(labels1, labels2, shared):
    """lk of two paths of one tree that share their first `shared` vertices:
    a r at the last shared vertex times the r's below it on each path."""
    if shared == 0:
        return 0
    a, r = cab_params(labels1)[shared - 1]
    tail = 1
    for rr, _ in labels1[shared:] + labels2[shared:]:
        tail *= rr
    return a * r * tail


def meridian_linking_number(labels):
    """lk of a knot with the [1,0] meridian of its outermost torus."""
    out = 1
    for r, _ in labels:
        out *= r
    return out


# ---------------------------------------------------------------------------
# the checks

def check_alexander_cable(sup, labels, boxes):
    got = alexander_of(sup, 1)
    want = cable_alexander(labels, boxes)
    if got is None or not same_up_to_unit(got, want):
        return "Alexander specialization differs from the cabling product"
    return None


def check_torres(sup, lk, components=2):
    alex = alexander_of(sup, components)
    if alex is None:
        return "(1-q)^kappa does not divide the a = -1, t = q value"
    if abs(at_q1(alex)) != abs(lk):
        return f"|Delta(1)| = {abs(at_q1(alex))}, |lk| = {abs(lk)}"
    return None


def check_dual(sup, partner):
    if not same_up_to_unit(dual(sup), partner):
        return "q -> 1/t, t -> 1/q does not give the transposed result"
    return None


def check_unknot(sup):
    if sup != {(0, 0, 0): 1}:
        return "colored unknot is not 1"
    return None


def check_alexander_op(alex, sup, components):
    want = alexander_of(sup, components)
    if want is None or not same_up_to_unit(alex, want):
        return "spec_alexander differs from the specialized superpolynomial"
    return None


def check_homfly_op(num, den_atoms, sup, components):
    """Uncolored reduced HOMFLY-PT: the denominator is Phi_1(q)^(kappa-1)
    and the numerator at a = 1 is the superpolynomial at t = q, a = -1."""
    if sorted(den_atoms) != [("c", 1, 1, 0)] * (components - 1):
        return f"unexpected HOMFLY-PT denominator {den_atoms}"
    at1 = substitute(num, lambda k: (1, (k[0], k[1], 0)))
    if not same_up_to_unit(at1, alexander_numerator(sup)):
        return "HOMFLY-PT at a = 1 differs from the Alexander numerator"
    return None


def check_rank_value(value, sup, rank):
    if not same_up_to_unit(value, at_rank(sup, rank)):
        return f"rank {rank} value differs from a = -t^{rank + 1}"
    return None


def check_q1(lhs, rhs, sup):
    """lhs is the superpolynomial at q = 1, and lhs = +-(1+a)^i q^j t^k rhs
    in one direction or the other."""
    whole = substitute(sup, lambda k: (1, (0, k[1], k[2])))
    if lhs != whole:
        return "q = 1 value differs from the superpolynomial at q = 1"
    one_plus_a = {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(1)}
    for a, b in ((lhs, rhs), (rhs, lhs)):
        cur = b
        for _ in range(9):
            quo = divide(a, cur)
            if quo is not None and len(quo) == 1 and \
                    abs(next(iter(quo.values()))) == 1:
                return None
            cur = mul(cur, one_plus_a)
    return "q = 1 value does not factor into the component values"


def check_vertex_c(c_num, sup):
    """c_num is the top a-coefficient at t = q, up to a unit."""
    top = max(k[2] for k in sup)
    lead = substitute({k: c for k, c in sup.items() if k[2] == top},
                      lambda k: (1, (k[0] + k[1], 0, 0)))
    if not same_up_to_unit(c_num, lead):
        return "vertex c-number differs from the top a-coefficient at t = q"
    return None
