"""Exact coefficient arithmetic in q, t and the stabilization variable a.

Three layers:

  * plain sparse Laurent "polys": dict mapping (e_q, e_t, e_a) -> Fraction|int,
    exponents integers or Fractions.  The rank-n operators of `daha`,
    Macdonald's E and J, and the normalization divide and hat-normalization
    of a rank value do not use them: they act on lattice polys with integer
    exponents in the unit 1/(2(n+1)) and int coefficients.  Fractions
    arise only where a value leaves lattice form: an exponent of a rank
    value that is not an integer (`daha.Rep.normalized`), the unit of a
    FactoredBinomial and the monomial of E's denominator.  Past the ranks,
    a coefficient is a Fraction only where an exact division leaves one
    (`pdivexact` keeps int quotients ints, and `psubstitute` flips signs
    for a -1 image);
  * FactoredBinomial: a unit times a monomial times atoms, kept factored.
    It is the only divisor type: every divisor is built factored where it
    arises, so no polynomial is ever expanded and then factored again;
  * Quotient: a poly over the atoms of a FactoredBinomial that do not
    divide it (`quotient`).  The numerator is never factored.  The
    HOMFLY-PT specialization and the Hopf dagger are Quotients.

Atoms come in two shapes:
  ('c', d, aq, at)  --  Phi_d(q^aq * t^at), the d-th cyclotomic polynomial
                        evaluated at a monomial with gcd(aq, at) = 1, at >= 0
  ('a', mq, mt)     --  1 + q^mq * t^mt * a
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, comb
from typing import NamedTuple


class ZeroPolynomial(Exception):
    pass


class ZeroAtAEqualsZero(Exception):
    pass


class InexactDivision(Exception):
    pass


class FractionalResidue(Exception):
    pass


# ---------------------------------------------------------------------------
# exponent / coefficient normalization helpers

def _ex(e):
    """Normalize an exponent: ints stay, integral Fractions collapse to int."""
    if type(e) is int:
        return e
    if type(e) is Fraction:
        return e.numerator if e.denominator == 1 else e
    f = Fraction(e)
    return f.numerator if f.denominator == 1 else f


def _co(c):
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def key_mul(k1, k2):
    return (_ex(k1[0] + k2[0]), _ex(k1[1] + k2[1]), k1[2] + k2[2])


# ---------------------------------------------------------------------------
# plain poly dicts

def pone():
    return {(0, 0, 0): 1}

def pmono(eq=0, et=0, ea=0, c=1):
    c = _co(c)
    if c == 0:
        return {}
    return {(_ex(eq), _ex(et), ea): c}

def padd_into(acc, p, scale=1):
    if scale == 0:
        return acc
    for k, c in p.items():
        v = _co(acc.get(k, 0) + c * scale)
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc

def psub(p1, p2):
    return padd_into(dict(p1), p2, -1)

def pscale(p, c, key=(0, 0, 0)):
    c = _co(c)
    if c == 0:
        return {}
    if key == (0, 0, 0):
        return {k: _co(v * c) for k, v in p.items()}
    return {key_mul(k, key): _co(v * c) for k, v in p.items()}

def pmul(p1, p2):
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    acc = {}
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            k = key_mul(k1, k2)
            v = _co(acc.get(k, 0) + c1 * c2)
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
    return acc

def ppow(p, n):
    if n < 0:
        raise ValueError("negative power of a poly")
    out = pone()
    b = p
    while n:
        if n & 1:
            out = pmul(out, b)
        b = pmul(b, b)
        n >>= 1
    return out


def pdivexact(num, den):
    """Exact division of poly dicts; returns quotient or raises InexactDivision.

    Leading-term elimination under lex order on (e_q, e_t, e_a), the order
    of the key tuples.  Degrees in each variable add under multiplication,
    so an exact quotient lies in the box
    min_v(num) - min_v(den) <= e_v <= max_v(num) - max_v(den), v = q, t, a,
    and every key the loop produces is a key of that quotient.  The first
    key outside the box therefore proves the division inexact.  Leading keys
    fall strictly in lex order and the box holds finitely many of them, so
    the loop always ends.  (A lex floor alone does not bound the loop: lex
    order has infinitely many keys above any floor.)
    """
    if not den:
        raise ZeroDivisionError
    if not num:
        return {}
    lo = [min(k[v] for k in num) - min(k[v] for k in den) for v in range(3)]
    hi = [max(k[v] for k in num) - max(k[v] for k in den) for v in range(3)]
    dlead = max(den)
    dc = den[dlead]
    rem = dict(num)
    quo = {}
    while rem:
        lead = max(rem)
        qk = (_ex(lead[0] - dlead[0]), _ex(lead[1] - dlead[1]),
              lead[2] - dlead[2])
        if not all(lo[v] <= qk[v] <= hi[v] for v in range(3)):
            raise InexactDivision(f"quotient key {qk} outside its degree box")
        qc, r = divmod(rem[lead], dc)
        if r:
            qc = _co(Fraction(rem[lead], dc))
        quo[qk] = qc
        for k, c in den.items():
            kk = key_mul(qk, k)
            v = _co(rem.get(kk, 0) - qc * c)
            if v:
                rem[kk] = v
            else:
                rem.pop(kk, None)
    return quo


def psubstitute(p, q=None, t=None, a=None):
    """Substitute monomials-with-sign for the variables.

    Each of q, t, a may be None (identity) or a tuple (c, eq, et, ea) meaning
    the variable maps to c * q^eq * t^et * a^ea with c a rational scalar
    (commonly +-1).  Raises FractionalResidue if a sign is raised to a
    fractional power or a resulting a-exponent is fractional.
    """
    subs = (q, t, a)
    if subs == (None, None, None):
        return dict(p)
    out = {}
    for k, c in p.items():
        coeff = c
        parts = [0, 0, 0]
        for idx, (e, s) in enumerate(zip(k, subs)):
            if s is None:
                parts[idx] += e
                continue
            sc, *image = s
            if sc != 1:
                if e != int(e):
                    raise FractionalResidue("sign raised to fractional power")
                if sc == -1:
                    if int(e) & 1:
                        coeff = -coeff
                else:
                    coeff = coeff * Fraction(sc) ** int(e)
            for v in range(3):
                parts[v] += image[v] * e
        if coeff == 0:
            continue
        kk = (_ex(parts[0]), _ex(parts[1]), parts[2])
        if type(kk[2]) is not int:
            raise FractionalResidue(f"fractional a-exponent {kk}")
        v = _co(out.get(kk, 0) + coeff)
        if v:
            out[kk] = v
        else:
            out.pop(kk, None)
    return out


def hat_normalize(p):
    """Divide by +-q^i t^j so p(a=0) starts at q^0 t^0 with positive lead.

    Lead sign is taken from the coefficient at (minimal t, then minimal q)
    of p(a=0).  Returns (normalized poly, (sign, eq_shift, et_shift)) where
    p_normalized = sign * q^-eq * t^-et * p.
    """
    if not p:
        raise ZeroPolynomial
    a0 = {k: c for k, c in p.items() if k[2] == 0}
    if not a0:
        raise ZeroAtAEqualsZero
    eq0 = min(k[0] for k in a0)
    et0 = min(k[1] for k in a0)
    lead = min(a0, key=lambda k: (k[1], k[0]))
    sign = 1 if a0[lead] > 0 else -1
    out = pscale(p, sign, (_ex(-eq0), _ex(-et0), 0))
    return out, (sign, eq0, et0)


# ---------------------------------------------------------------------------
# atoms

@lru_cache(maxsize=None)
def _cyclo_coeffs(d):
    """Integer coefficients of Phi_d(x), low to high.

    x^d - 1 is the product of Phi_e over the divisors e of d, so Phi_d is
    x^d - 1 divided exactly by Phi_e for each proper divisor e.  The degree
    is phi(d).
    """
    p = {(d, 0, 0): 1, (0, 0, 0): -1}
    for e in _divisors(d)[:-1]:
        p = pdivexact(p, {(j, 0, 0): c
                          for j, c in enumerate(_cyclo_coeffs(e)) if c})
    return tuple(p.get((j, 0, 0), 0) for j in range(max(p)[0] + 1))


@lru_cache(maxsize=None)
def atom_expand_cached(atom):
    if atom[0] == 'c':
        _, d, aq, at = atom
        acc = {}
        for j, c in enumerate(_cyclo_coeffs(d)):
            if c:
                acc[(_ex(aq * j), _ex(at * j), 0)] = c
        return acc
    if atom[0] == 'a':
        _, mq, mt = atom
        return {(0, 0, 0): 1, (_ex(mq), _ex(mt), 1): 1}
    raise ValueError(atom)


def binomial_atoms(eq, et, plus=False):
    """Factor 1 -+ q^eq t^et into atoms; returns (coeff, mono_key, atoms).

    The value equals coeff * q^.. t^.. * prod(atoms).  For the minus shape the
    direction is normalized so atoms carry at >= 0 (and aq > 0 when at == 0).
    """
    eq = _ex(eq)
    et = _ex(et)
    if eq == 0 and et == 0:
        if plus:
            return (2, (0, 0, 0), ())
        raise ZeroPolynomial("1 - 1")
    coeff = 1
    key = (0, 0, 0)
    # normalize direction: want (at > 0) or (at == 0 and aq > 0)
    if (et, eq) < (0, 0) or (et == 0 and eq < 0):
        if not plus:
            # 1 - x^-g = -x^-g (1 - x^g)
            coeff = -1
            key = (eq, et, 0)
        else:
            # 1 + x^-g = x^-g (1 + x^g)
            key = (eq, et, 0)
        eq, et = -eq, -et
    # x = q^eq t^et = y^g with y = q^aq t^at primitive: g is the gcd of the
    # exponents scaled to integers by den, and y keeps the fractional part
    den = lcm(eq.denominator, et.denominator)
    g = gcd(int(eq * den), int(et * den))
    aq, at = _ex(Fraction(eq) / g), _ex(Fraction(et) / g)
    if plus:
        atoms = tuple(('c', d, aq, at) for d in _divisors(2 * g) if g % d != 0)
    else:
        # 1 - x^g = -(x^g - 1) = -prod_{d|g} Phi_d(x)
        coeff = -coeff
        atoms = tuple(('c', d, aq, at) for d in _divisors(g))
    return (coeff, key, atoms)


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def a_atom(mq, mt):
    return ('a', _ex(mq), _ex(mt))


# ---------------------------------------------------------------------------
# FactoredBinomial

class FactoredBinomial:
    """coeff * q^eq t^et a^ea * product of atoms, kept factored."""

    __slots__ = ('coeff', 'key', 'atoms')

    def __init__(self, coeff=1, key=(0, 0, 0), atoms=()):
        self.coeff = Fraction(coeff)
        self.key = key
        self.atoms = tuple(sorted(atoms))

    @staticmethod
    def one():
        return FactoredBinomial()

    def mul(self, other):
        return FactoredBinomial(self.coeff * other.coeff,
                                key_mul(self.key, other.key),
                                self.atoms + other.atoms)

    def div(self, other):
        atoms = list(self.atoms)
        for x in other.atoms:
            atoms.remove(x)
        return FactoredBinomial(
            self.coeff / other.coeff,
            (_ex(self.key[0] - other.key[0]), _ex(self.key[1] - other.key[1]),
             self.key[2] - other.key[2]),
            atoms)

    def cancel(self, other):
        """self / other as a pair of FactoredBinomials with no common atom."""
        common = Counter(self.atoms) & Counter(other.atoms)
        common = FactoredBinomial(1, (0, 0, 0), common.elements())
        return self.div(common), other.div(common)

    def expand(self):
        p = pmono(self.key[0], self.key[1], self.key[2], self.coeff)
        for atm in self.atoms:
            p = pmul(p, atom_expand_cached(atm))
        return p

    def __eq__(self, other):
        return (self.coeff == other.coeff and self.key == other.key
                and self.atoms == other.atoms)

    def __repr__(self):
        return (f"FactoredBinomial({self.coeff}, {self.key}, "
                f"{list(self.atoms)})")


def binomial_fb(eq, et):
    """1 - q^eq t^et as a FactoredBinomial."""
    return FactoredBinomial(*binomial_atoms(eq, et))


class Quotient(NamedTuple):
    """num / prod(den atoms), where no atom of den divides num."""
    num: dict
    den: tuple


def quotient(num, fb):
    """num / fb, fb a FactoredBinomial, as a Quotient: num scaled by fb's
    inverse unit and monomial, and divided by every atom of fb that
    divides it; the atoms left are the denominator, sorted."""
    num = pscale(num, 1 / fb.coeff,
                 (_ex(-fb.key[0]), _ex(-fb.key[1]), -fb.key[2]))
    den = []
    for atm in fb.atoms:
        try:
            num = pdivexact(num, atom_expand_cached(atm))
        except InexactDivision:
            den.append(atm)
    return Quotient(num, tuple(den))


# ---------------------------------------------------------------------------
# truncated series

def series_divide(p, p_t=0, p_q=0, cutoff=12):
    """Expand p / ((1-t)^p_t (1-q)^p_q) up to t- and q-order `cutoff`.

    Returns a poly dict holding all terms with e_t <= cutoff and
    e_q <= cutoff; those coefficients are exact.
    """
    out = dict(p)
    if p_t:
        ser = {(0, _ex(j), 0): comb(j + p_t - 1, p_t - 1)
               for j in range(cutoff + 1)}
        out = _trunc(pmul(out, ser), cutoff)
    if p_q:
        ser = {(_ex(j), 0, 0): comb(j + p_q - 1, p_q - 1)
               for j in range(cutoff + 1)}
        out = _trunc(pmul(out, ser), cutoff)
    return _trunc(out, cutoff)


def _trunc(p, cutoff):
    return {k: c for k, c in p.items() if k[0] <= cutoff and k[1] <= cutoff}


# ---------------------------------------------------------------------------
# canonical text form

def _fmt_exp(e):
    if isinstance(e, Fraction):
        return f"^({e})"
    if e == 1:
        return ""
    return f"^{e}"


def poly_text(p):
    """Canonical text: terms ascending by (a-exp, t-exp, q-exp)."""
    if not p:
        return "0"
    parts = []
    for k in sorted(p, key=lambda k: (k[2], k[1], k[0])):
        eq, et, ea = k
        c = p[k]
        factors = []
        if ea:
            factors.append("a" + _fmt_exp(ea))
        if eq:
            factors.append("q" + _fmt_exp(eq))
        if et:
            factors.append("t" + _fmt_exp(et))
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append((" + " if c > 0 else " - ") + term)
    return "".join(parts)


def poly_parse(s):
    """Parse the canonical text form back into a poly dict."""
    s = s.strip()
    if s == "0":
        return {}
    s = s.replace("- ", "+ -").replace(" ", "")
    out = {}
    for term in s.split("+"):
        if not term:
            continue
        sign = 1
        while term.startswith("-"):
            sign = -sign
            term = term[1:]
        coeff = Fraction(1)
        eq = et = ea = 0
        for fac in term.split("*"):
            if not fac:
                continue
            if fac[0] in "qta":
                var = fac[0]
                rest = fac[1:]
                if rest.startswith("^"):
                    rest = rest[1:]
                    if rest.startswith("(") and rest.endswith(")"):
                        rest = rest[1:-1]
                    e = Fraction(rest)
                else:
                    e = 1
                if var == 'q':
                    eq += e
                elif var == 't':
                    et += e
                else:
                    ea += int(e)
            else:
                coeff = coeff * Fraction(fac)
        k = (_ex(eq), _ex(et), ea)
        v = _co(out.get(k, 0) + sign * coeff)
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out
