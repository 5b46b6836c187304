"""The polynomial representation of the double affine Hecke algebra of A_n.

An XPoly is a dict mapping weight keys (fundamental-coordinate tuples) to
lattice polys: dicts {key: int} standing for the sum of the terms
c q^{iq/L} t^{it/L}, where L = 2(n+1) is the rank's unit and one int key
packs the exponent pair as iq * 2^32 + it, with it a balanced digit.  A
q/t shift is then one int add and key order is lex order on (iq, it).
Every exponent the operators below produce lies on that lattice (the
pairing of two weights has denominator n+1, and T_i brings t^{+-1/2}), and
no coefficient has a denominator, so the operators never meet a Fraction.
The key layout is private to this module, and four seams cross it to
the rational-key polys of `scalars`: `Rep.to_lattice` takes a poly in,
`Rep.expand` a FactoredBinomial (its atoms expanded once per rank),
`Rep.from_lattice` gives a poly back, and `Rep.normalized` gives a rank
value back already hat-normalized, the shift read off the packed keys.
Off-lattice input, or a t-exponent beyond T_LIMIT lattice units, raises
OffLattice.  Every division is one `lp_divexact` by a lattice poly:
Macdonald's J divides its symmetrized numerator by its factored divisor,
expanded once, and a coinvariant value is divided by J at the coinvariant
point.

Operators act through Atom sequences:

    ('T', i, s)   T_i^s, 1 <= i <= n, s = +-1
    ('P', r, s)   pi_r^s, 1 <= r <= n
    ('X', b)      multiplication by X_b

The image of an atom under a tau-word is one q-power times one atom word,
a pair (eq, atoms) standing for q^{eq/L} atoms; the leftmost atom is
applied last.  The images are composed from the generator images

    tau_+ : X, T_1..T_n fixed, pi_r -> q^{-(w_r,w_r)/2} X_r pi_r
    tau_- : T, pi fixed, X_r -> q^{(w_r,w_r)/2} Y_r X_r

with inverse letters obtained by formal inversion (locked by round-trip
tests), and Y_r = pi_r T_{i_1} ... T_{i_l} along a reduced word for
u_r = w_0 w_0^r, every i_k >= 1.  Only images of X are ever taken, and
neither letter brings in the affine T_0, so no atom word holds it and
`Rep.t_op` acts by T_1..T_n only.

A projection gamma-hat(word)(Q)(1) and the Y-pass f(Y) g of a pair are
sums of f_b O_b g over the weights b of f.  `apply_weights` builds O_b g
with the image words of O_{omega_r} for dominant b only; every other
weight is one T_i away from a weight nearer the dominant chamber, by the
affine Hecke relation between T_i and O_b (Lusztig, J. AMS 2 (1989)),
which holds on g because T_i g = t^{1/2} g there.  `Rep.y_op` is the plain
product of Y_{+-omega_r} steps, for any f.

The pipeline's value is a coinvariant, and the coinvariant satisfies
{T_i h} = t^{1/2} {h} for i = 1..n and any h (Cherednik, arXiv:1111.6195).
So where a caller keeps only the coinvariant of a sum of f_b O_b g (the
root projection of a knot, the Y-pass of a pair), `apply_weights` still
builds O_b g as an XPoly for dominant b, which the fundamental steps need,
but takes every other weight's value at the point only: the reflection
becomes a recursion on lattice polys.  A value at the point travels as an
XPoly on the zero weight, whose coinvariant is its coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .scalars import (InexactDivision, ZeroPolynomial, _ex,
                      atom_expand_cached)
from . import weights as wt


class OffLattice(ValueError):
    """A non-integer coefficient, or an exponent off the lattice of the
    rank's unit 1/(2(n+1)) or beyond the packing bound, where the operators
    need a lattice poly."""


# ---------------------------------------------------------------------------
# lattice polys and XPolys

# A key packs (iq, it) as iq * 2^32 + it, the t-digit balanced in
# [-2^31, 2^31).  Keys then add as the exponents do, and int order is lex
# order on (iq, it).  `Rep.to_lattice` admits |it| <= T_LIMIT, which leaves
# the digit room for sums of over a hundred such exponents (the operators'
# own shifts are a few units); iq is not bounded.
_T_BITS = 32
_T_HALF = 1 << (_T_BITS - 1)
_T_MASK = (1 << _T_BITS) - 1
T_LIMIT = 1 << 24


def _key(iq, it):
    return (iq << _T_BITS) + it

def _unkey(k):
    it = ((k + _T_HALF) & _T_MASK) - _T_HALF
    return (k - it) >> _T_BITS, it

def lp_shift(p, dq=0, dt=0):
    """q^dq t^dt p (lattice units) as a new lattice poly."""
    d = _key(dq, dt)
    return {k + d: c for k, c in p.items()}

def lp_add_into(acc, p, dq=0, dt=0):
    """acc += q^dq t^dt p in place (lattice units); zeros are dropped."""
    return _add_into(acc, p, _key(dq, dt))

def _add_into(acc, p, d, s=1):
    """acc += s p shifted by the packed key d, in place."""
    get = acc.get
    for k, c in p.items():
        k += d
        v = get(k, 0) + s * c
        if v:
            acc[k] = v
        else:
            del acc[k]
    return acc

def lp_mul(p1, p2):
    return _mul_into({}, p1, p2)

def _mul_into(acc, p1, p2):
    """acc += p1 p2 in place; zeros are dropped."""
    get = acc.get
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            k = k1 + k2
            v = get(k, 0) + c1 * c2
            if v:
                acc[k] = v
            else:
                del acc[k]
    return acc

def _box(p):
    """(min iq, max iq, min it, max it) over the keys of p."""
    qs, ts = zip(*map(_unkey, p))
    return min(qs), max(qs), min(ts), max(ts)

def lp_divexact(num, den):
    """The exact quotient num / den of lattice polys.

    Leading-term elimination in key order, as `scalars.pdivexact` does it:
    an exact quotient lies in the degree box
    min_v(num) - min_v(den) <= e_v <= max_v(num) - max_v(den), v = q, t, so
    the first quotient key outside it, or a coefficient that does not
    divide, proves the division inexact and raises InexactDivision; the
    message says which of the two it was, and prints the box.  An empty
    divisor raises ZeroDivisionError, as in `scalars.pdivexact`.
    """
    if not den:
        raise ZeroDivisionError("division by the zero lattice poly")
    if not num:
        return {}
    nq0, nq1, nt0, nt1 = _box(num)
    dq0, dq1, dt0, dt1 = _box(den)
    dlead = max(den)
    dc = den[dlead]
    rem = dict(num)
    get = rem.get
    quo = {}
    while rem:
        lead = max(rem)
        qk = lead - dlead
        iq, it = _unkey(qk)
        qc, r = divmod(rem[lead], dc)
        if r:
            raise InexactDivision(f"coefficient {rem[lead]} does not divide "
                                  f"by {dc} at q^({iq}/L) t^({it}/L)")
        if not (nq0 - dq0 <= iq <= nq1 - dq1
                and nt0 - dt0 <= it <= nt1 - dt1):
            raise InexactDivision(
                f"quotient key q^({iq}/L) t^({it}/L) is outside the degree "
                f"box q^[{nq0 - dq0}, {nq1 - dq1}] t^[{nt0 - dt0}, "
                f"{nt1 - dt1}] (L units)")
        quo[qk] = qc
        for k, c in den.items():
            k += qk
            v = get(k, 0) - qc * c
            if v:
                rem[k] = v
            else:
                del rem[k]
    return quo

def xp_one(n):
    return {wt.zero(n): {0: 1}}

def xp_add_into(acc, f, scale=None):
    """acc += scale * f in place.  acc owns its coefficient dicts: a new
    key gets a copy, so f is never changed."""
    for b, c in f.items():
        cur = acc.get(b)
        if cur is None:
            v = dict(c) if scale is None else lp_mul(c, scale)
            if v:
                acc[b] = v
        elif not (_add_into(cur, c, 0) if scale is None
                  else _mul_into(cur, c, scale)):
            del acc[b]
    return acc

def xp_mul(f, g):
    acc = {}
    for b1, c1 in f.items():
        for b2, c2 in g.items():
            xp_add_into(acc, {wt.wt_add(b1, b2): c1}, c2)
    return acc


# ---------------------------------------------------------------------------
# the representation at fixed rank

class Rep:

    def __init__(self, n):
        self.n = n
        self.n1 = n + 1
        self.L = 2 * self.n1
        self.half = self.n1                 # t^{1/2} in lattice units
        self._t_up, self._t_dn = _key(0, self.half), _key(0, -self.half)
        self.omegas = [None] + [wt.fundamental(n, i) for i in range(1, n + 1)]
        self.alphas = [None] + [wt.alpha(n, i) for i in range(1, n + 1)]
        # L (w_k, w_j) = 2((n+1) min(k, j) - k j), so L (w_k, b) is the dot
        # product of row k with b's fundamental coordinates
        self._gram = [None] + [
            tuple(2 * (self.n1 * min(k, j) - k * j) for j in range(1, n + 1))
            for k in range(1, n + 1)]
        self._rho_row = tuple(map(sum, zip(*self._gram[1:])))
        self._uword = [None] + [wt.reduced_word(wt.u_perm(self.n1, r))
                                for r in range(1, n + 1)]
        # L (w_r, w_r)/2 = r (n+1-r): the q-power of the tau-images
        self._c = [None] + [r * (self.n1 - r) for r in range(1, n + 1)]
        self._img_memo = {}
        self._atoms = {}
        self._t_steps = [None] + [{} for _ in range(n)]
        # the fundamental steps Y_{omega_r} for `apply_weights`
        self.y_steps = [None] + [(0, self.y_atoms(r))
                                 for r in range(1, self.n1)]

    # -- the seams to rational-key polys ---------------------------------

    def to_lattice(self, p):
        """A poly {(eq, et, 0): c} of `scalars` as a lattice poly."""
        L = self.L
        out = {}
        for (eq, et, ea), c in p.items():
            iq, it = eq * L, et * L
            if (ea or type(c) is not int or iq != int(iq) or it != int(it)
                    or abs(it) > T_LIMIT):
                raise OffLattice(f"c={c} at q^({eq}) t^({et}) a^({ea}) is "
                                 f"not a lattice term at rank {self.n}")
            out[_key(int(iq), int(it))] = c
        return out

    def atom(self, a):
        """An atom of `scalars` as a lattice poly."""
        hit = self._atoms.get(a)
        if hit is None:
            hit = self._atoms[a] = self.to_lattice(atom_expand_cached(a))
        return hit

    def expand(self, fb):
        """A FactoredBinomial of `scalars` as a lattice poly: its unit and
        monomial times its atoms (`atom`), each expanded once per rank.
        It equals `to_lattice(fb.expand())`; a unit with a denominator or a
        monomial off the lattice raises OffLattice."""
        c = fb.coeff
        if c.denominator != 1:
            raise OffLattice(f"the unit {c} of {fb} is not an integer")
        if not c:
            return {}
        p = self.to_lattice({fb.key: c.numerator})
        for a in fb.atoms:
            p = lp_mul(p, self.atom(a))
        return p

    def from_lattice(self, p):
        """A lattice poly as a poly of `scalars`."""
        L = self.L
        out = {}
        for k, c in p.items():
            iq, it = _unkey(k)
            out[(_ex(Fraction(iq, L)), _ex(Fraction(it, L)), 0)] = c
        return out

    def normalized(self, p):
        """`scalars.hat_normalize(from_lattice(p))`, taken in lattice
        units: the least exponents and the lead's sign are read off the
        packed keys, and each exponent is divided by L once.  Poly and
        shift have the same values and types: an exponent is an int where
        it is integral and a Fraction where it is not."""
        if not p:
            raise ZeroPolynomial
        L = self.L

        def ex(i):
            e, r = divmod(i, L)
            return Fraction(i, L) if r else e

        terms = [(*_unkey(k), c) for k, c in p.items()]
        iq0 = min(t[0] for t in terms)
        it0, _, lead = min((it, iq, c) for iq, it, c in terms)
        sign = 1 if lead > 0 else -1
        out = {(ex(iq - iq0), ex(it - it0), 0): sign * c
               for iq, it, c in terms}
        return out, (sign, ex(iq0), ex(it0))

    # -- generator actions -----------------------------------------------

    def t_op(self, i, f, sign=1):
        """T_i^sign on an XPoly, 1 <= i <= n, in closed form monomial by
        monomial.

        T_i is the Demazure-Lusztig operator
        t^{1/2} s_i + (t^{1/2} - t^{-1/2}) (s_i - 1)/(Z - 1), Z = X_{alpha_i}.
        With e = -(b, alpha_i) = -b_i, so that s_i X_b = X_b Z^e,

            T_i X_b = t^{1/2} X_b Z^e + (t^{1/2} - t^{-1/2}) X_b G_e(Z),

        G_e = 1 + Z + ... + Z^{e-1} for e > 0, -(Z^{-1} + ... + Z^e) for
        e < 0 and G_0 = 0.  T_i^{-1} = T_i - (t^{1/2} - t^{-1/2}) folds into
        the same pass: it subtracts X_b from the second sum.  Every term is
        added straight into the output, shifted by t^{+-1/2}, in lattice
        units one by n + 1.  Any other i raises ValueError: the affine T_0
        is never needed (module docstring).
        """
        if not 1 <= i <= self.n:
            raise ValueError(f"T_{i} is not one of T_1..T_{self.n}")
        steps = self._t_steps[i]
        up, dn = self._t_up, self._t_dn
        out = {}
        for b, c in f.items():
            e = -b[i - 1]
            if e > 0:
                js, s = range(0 if sign == 1 else 1, e), 1
            else:
                js, s = range(e, 0 if sign == 1 else 1), -1
            for j in js:
                jw = steps.get(j) or self._t_step(i, j)
                k = tuple(map(add, b, jw)) if j else b
                acc = out.get(k)
                if acc is None:
                    acc = out[k] = {key + up: s * v for key, v in c.items()}
                else:
                    _add_into(acc, c, up, s)
                if not _add_into(acc, c, dn, -s):
                    del out[k]
            ew = steps.get(e) or self._t_step(i, e)
            k = tuple(map(add, b, ew)) if e else b
            acc = out.get(k)
            if acc is None:
                out[k] = {key + up: v for key, v in c.items()}
            elif not _add_into(acc, c, up):
                del out[k]
        return out

    def _t_step(self, i, j):
        """The multiple j alpha_i (`t_op`), built once per rank."""
        hit = self._t_steps[i][j] = tuple(j * y for y in self.alphas[i])
        return hit

    def pi_op(self, r, f, sign=1):
        """pi_r^sign on an XPoly.  pi_r X_b = q^{(w_{n+1-r}, b)} X_{u_r b}
        pi_r, and u_r rotates b's epsilon coordinates r places to the
        right, so it rotates their cyclic differences
        (b_1, ..., b_n, -sum b) too: u_r b is that tuple rotated, less its
        last entry."""
        if sign == -1:
            r = self.n1 - r    # pi_r^{-1} = pi_{n+1-r}
        k = self.n1 - r
        row = self._gram[k]
        out = {}
        for b, c in f.items():
            ext = b + (-sum(b),)
            out[ext[k:] + ext[:k - 1]] = lp_shift(c, sum(map(mul, row, b)))
        return out

    def xmul(self, b, f):
        b = tuple(b)
        return {wt.wt_add(b, b2): c for b2, c in f.items()}

    def apply_atom(self, atom, f):
        kind = atom[0]
        if kind == 'T':
            return self.t_op(atom[1], f, atom[2])
        if kind == 'P':
            return self.pi_op(atom[1], f, atom[2])
        if kind == 'X':
            return self.xmul(atom[1], f)
        raise ValueError(atom)

    def apply_atoms(self, atoms, f):
        for atom in reversed(atoms):
            f = self.apply_atom(atom, f)
        return f

    # -- Y operators -----------------------------------------------------

    def y_atoms(self, r, sign=1):
        word = self._uword[r]
        if sign == 1:
            return (('P', r, 1),) + tuple(('T', i, 1) for i in word)
        return tuple(('T', i, -1) for i in reversed(word)) + (('P', r, -1),)

    def y_op(self, b, f):
        """Y_b f as the product of the fundamental steps Y_{+-omega_r},
        coordinate n first; it needs nothing of f.  No caller in the
        package remains: the tests use it as the reference route, valid
        for any f, against `apply_weights` and in the span solve of E."""
        for r in range(self.n, 0, -1):
            l = b[r - 1]
            if l:
                atoms = self.y_atoms(r, 1 if l > 0 else -1)
                for _ in range(abs(l)):
                    f = self.apply_atoms(atoms, f)
        return f

    # -- coinvariant -----------------------------------------------------

    def coinvariant(self, f):
        """f at q^{-rho_k}, where X_b -> t^{-(rho, b)}, as a lattice poly."""
        row = self._rho_row
        out = {}
        for b, c in f.items():
            lp_add_into(out, c, 0, -sum(map(mul, row, b)))
        return out

    # -- tau-letter images -----------------------------------------------

    def _img_letter(self, letter, atom):
        """Image of a single atom under one tau letter, as (eq, atoms)."""
        kind, sgn = letter          # kind in {'+', '-'}
        a0 = atom[0]
        if a0 == 'T':               # both letters fix T_1..T_n
            return 0, (atom,)
        if kind == '-':
            if a0 == 'P':
                return 0, (atom,)
            b = atom[1]
            # factor X_b through the fundamental images:
            #   tau_-^sgn(X_r) = q^{sgn c} Y_r^sgn X_r,  c = (w_r, w_r)/2,
            # and the formal inverse for negative exponents
            eq, atoms = 0, ()
            for r in range(1, self.n1):
                l = b[r - 1]
                if not l:
                    continue
                eq += sgn * l * self._c[r]
                if l > 0:
                    seq = self.y_atoms(r, sgn) + (('X', self.omegas[r]),)
                else:
                    seq = ((('X', wt.wt_neg(self.omegas[r])),)
                           + self.y_atoms(r, -sgn))
                atoms += seq * abs(l)
            return eq, atoms
        # tau_+ letters
        if a0 == 'X':
            return 0, (atom,)
        # pi_r
        r, s = atom[1], atom[2]
        c = self._c[r]
        om, mom = self.omegas[r], wt.wt_neg(self.omegas[r])
        if sgn == 1:
            if s == 1:      # tau_+(pi_r) = q^-c X_r pi_r
                return -c, (('X', om), ('P', r, 1))
            return c, (('P', r, -1), ('X', mom))
        if s == 1:          # tau_+^-1(pi_r) = q^c X_r^-1 pi_r
            return c, (('X', mom), ('P', r, 1))
        return -c, (('P', r, -1), ('X', om))

    def image_atom(self, word, atom):
        """Image of one atom under a tau-word (rightmost letter first)."""
        word = tuple(word)
        key = (word, atom)
        memo = self._img_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not word:
            out = (0, (atom,))
        else:
            eq, inner = self._img_letter(word[-1], atom)
            atoms = ()
            for a in inner:
                e, seq = self.image_atom(word[:-1], a)
                eq += e
                atoms += seq
            out = (eq, atoms)
        memo[key] = out
        return out


@lru_cache(maxsize=None)
def get_rep(n):
    return Rep(n)


# ---------------------------------------------------------------------------
# tau words

class NotCoprime(Exception):
    pass


TAU_MATS = {('+', 1): (1, 1, 0, 1), ('+', -1): (1, -1, 0, 1),
            ('-', 1): (1, 0, 1, 1), ('-', -1): (1, 0, -1, 1)}


def word_matrix(word):
    m = (1, 0, 0, 1)
    for letter in word:
        a, b, c, d = m
        e, f, g, h = TAU_MATS[letter]
        m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return m


_MINUS_ID = (('+', 1), ('-', -1), ('+', 1)) * 2       # matrix -identity
_S_WORD = (('-', 1), ('+', -1), ('-', 1))             # first column (0, 1)


def word_of_rs(r, s):
    """A det +1 tau-word whose matrix has first column (r, s).

    Continued-fraction peeling: tau_+^k.(r', s) has first column (r'+ks, s),
    tau_-^k.(r, s') has first column (r, s'+kr).  Exact-quotient steps are
    shortened by one so the recursion passes through (1, 1)-type corners,
    matching the lifts used for the printed examples.
    """
    from math import gcd
    if (r, s) == (0, 0) or gcd(abs(r), abs(s)) != 1:
        raise NotCoprime((r, s))

    def build(r, s):
        if s == 0:
            return () if r == 1 else _MINUS_ID
        if r == 0:
            return _S_WORD if s == 1 else _MINUS_ID + _S_WORD
        if abs(r) > abs(s):
            k = r // s
            rr = r - k * s
            if rr == 0 and abs(k) > 1:
                k -= 1 if k > 0 else -1
                rr = r - k * s
            return (('+', 1 if k > 0 else -1),) * abs(k) + build(rr, s)
        k = s // r
        ss = s - k * r
        if ss == 0 and abs(k) > 1:
            k -= 1 if k > 0 else -1
            ss = s - k * r
        return (('-', 1 if k > 0 else -1),) * abs(k) + build(r, ss)

    out = build(r, s)
    m = word_matrix(out)
    if (m[0], m[2]) != (r, s):
        raise AssertionError(f"word construction failed for {(r, s)}: {m}")
    return out


# ---------------------------------------------------------------------------
# the projection gamma-hat(Q) evaluated at 1

def gamma_hat_project(word, Q, rep, point=False):
    """Apply the tau-word lift to a polynomial and project back to V.

    Trailing tau_+ letters fix every X_b, so they are stripped before the
    rest of the word is lifted by `_core_project`.  With `point`, the
    caller keeps only the coinvariant of the result, and the result may be
    that value on the zero weight (`apply_weights`).
    """
    if not Q:
        return {}
    core = tuple(word)
    while core and core[-1][0] == '+':
        core = core[:-1]
    return _core_project(core, Q, rep, point)


def _core_project(word, Q, rep, point=False):
    if not word:
        return dict(Q)
    steps = [None] + [rep.image_atom(word, ('X', om)) for om in rep.omegas[1:]]
    return apply_weights(rep, Q, steps, xp_one(rep.n), 1, point)


# ---------------------------------------------------------------------------
# polynomials in commuting operators

def _xp_add_shifted(acc, f, d, s):
    """acc += s f, every coefficient shifted by the packed key d, in place;
    a new weight gets its own coefficient dict."""
    for b, c in f.items():
        cur = acc.get(b)
        if cur is None:
            acc[b] = {k + d: s * v for k, v in c.items()}
        elif not _add_into(cur, c, d, s):
            del acc[b]


def apply_weights(rep, f, steps, g, s, point=False):
    """The sum over b of f_b O_b g, for commuting operators O_b with
    O_{b+c} = O_b O_c, reached through dominant weights and reflections.

    steps[r] = (eq, atoms) gives the fundamental step O_{omega_r} =
    q^{eq/L} atoms (steps[0] is unused).  A dominant b is reached from
    b - omega_r by one step, r its first nonzero coordinate.  Any other b
    has a coordinate b_i = -k < 0; with b' = s_i b = b + k alpha_i, the
    affine Hecke relation between O_b and T_i gives

        O_b g = t^{s/2} [T_i^s O_{b'} g
                 + s (t^{1/2} - t^{-1/2}) sum_{0<j<k} O_{b'-j alpha_i} g],

    provided T_i g = t^{1/2} g for i = 1..n.  The two callers meet that
    precondition: s = +1 for the tau-images of X acting on g = 1
    (`_core_project`; the tau's fix T_1..T_n), s = -1 for the Y-steps on a
    symmetric g (`pipeline._apply_fY`).  The recursion ends: b' is one
    reflection nearer the dominant chamber, and each b' - j alpha_i lies
    strictly inside the convex hull of b's Weyl orbit.

    With `point`, the caller keeps only the coinvariant of the sum, where
    T_i^s acts as t^{s/2} for i = 1..n (Cherednik, arXiv:1111.6195), so

        {O_b g} = t^s {O_{b'} g} + (t^s - 1) sum_{0<j<k} {O_{b'-j alpha_i} g}.

    Dominant weights are still built as XPolys, for the steps; every other
    weight, and the result, is its value at the point on the zero weight.

    Each O_b g is memoized as a packed q, t monomial times an XPoly.  The
    weights whose f_b are equal (a symmetric f is constant on each Weyl
    orbit) have their O_b g summed, each shifted by its monomial, and then
    multiplied by f_b once.
    """
    half = _key(0, s * rep.half)          # t^{s/2}
    zero = wt.zero(rep.n)
    memo = {zero: (0, g)}
    at_point = {}

    def value(b):
        hit = memo.get(b)
        if hit is not None:
            return hit
        i = next((i for i, l in enumerate(b, 1) if l < 0), 0)
        if not i:
            r = next(i for i, l in enumerate(b, 1) if l)
            prev = list(b)
            prev[r - 1] -= 1
            d, v = value(tuple(prev))
            eq, atoms = steps[r]
            out = memo[b] = (d + _key(eq, 0), rep.apply_atoms(atoms, v))
            return out
        k = -b[i - 1]
        alpha = rep.alphas[i]
        top = tuple(x + k * y for x, y in zip(b, alpha))
        d, v = get(top)
        d += half
        if point:           # T_i^s is t^{s/2} at the point
            d += half
            v = xp_add_into({}, v)
        else:
            v = rep.t_op(i, v, s)
        # t^{s/2} s (t^{1/2} - t^{-1/2}) = t^s - 1
        for j in range(1, k):
            dj, vj = get(tuple(x - j * y for x, y in zip(top, alpha)))
            _xp_add_shifted(v, vj, dj - d + 2 * half, 1)
            _xp_add_shifted(v, vj, dj - d, -1)
        out = memo[b] = (d, v)
        return out

    def point_value(b):
        """O_b g at the point: a weight that is not dominant already is."""
        if min(b) < 0:
            return value(b)
        hit = at_point.get(b)
        if hit is None:
            d, v = value(b)
            c = rep.coinvariant(v)
            hit = at_point[b] = (d, {zero: c} if c else {})
        return hit

    get = point_value if point else value
    groups = {}
    for b, c in f.items():
        d, v = get(b)
        key = tuple(sorted(c.items()))
        hit = groups.get(key)
        if hit is None:
            hit = groups[key] = (c, {})
        _xp_add_shifted(hit[1], v, d, 1)
    out = {}
    for c, acc in groups.values():
        xp_add_into(out, acc, c)
    return out
