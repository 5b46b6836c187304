"""Scal, the fraction type of the test oracles: a poly over a product of
atoms.

The package divides only in lattice form or into a `scalars.Quotient`.
The oracles and checks in the tests add, subtract and compare fractions
with unlike denominators, which a Scal does: it never factors its
numerator, divides only by a FactoredBinomial, whose atoms join the
denominator, and an atom leaves the denominator when it divides the
numerator exactly.
"""

from fractions import Fraction

from dahalink.scalars import (InexactDivision, pmono, pone, padd_into,
                              pmul, pscale, pdivexact, atom_expand_cached,
                              poly_text, _ex)


def padd(p1, p2):
    return padd_into(dict(p1), p2)


def pdivides(num, den):
    try:
        return pdivexact(num, den)
    except InexactDivision:
        return None


class Scal:
    """num / prod(den atoms); auto-cancels atoms that divide the numerator.

    The numerator is never factored, so a Scal has no general inverse:
    divisors come as FactoredBinomials (`div`).
    """

    __slots__ = ('num', 'den')

    def __init__(self, num, den=(), reduce=True):
        if isinstance(num, (int, Fraction)):
            num = pmono(c=num)
        if den and num and reduce:
            den = list(den)
            i = 0
            while i < len(den):
                quo = pdivides(num, atom_expand_cached(den[i]))
                if quo is not None:
                    num = quo
                    den.pop(i)
                else:
                    i += 1
            den = tuple(sorted(den))
        elif den:
            den = tuple(sorted(den)) if num else ()
        self.num = num
        self.den = den

    @staticmethod
    def one():
        return Scal(pone())

    @staticmethod
    def zero():
        return Scal({})

    @staticmethod
    def mono(eq=0, et=0, ea=0, c=1):
        return Scal(pmono(eq, et, ea, c))

    def is_zero(self):
        return not self.num

    def is_poly(self):
        return not self.den

    def __eq__(self, other):
        if not isinstance(other, Scal):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.sub(other).is_zero()

    def __hash__(self):
        raise TypeError("Scal is unhashable")

    def add(self, other):
        if self.den == other.den:
            return Scal(padd(self.num, other.num), self.den)
        common = _multiset_union(self.den, other.den)
        n1 = self.num
        for atm in _multiset_sub(common, self.den):
            n1 = pmul(n1, atom_expand_cached(atm))
        n2 = other.num
        for atm in _multiset_sub(common, other.den):
            n2 = pmul(n2, atom_expand_cached(atm))
        return Scal(padd(n1, n2), common)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return Scal({k: -c for k, c in self.num.items()}, self.den,
                    reduce=False)

    def mul(self, other):
        return Scal(pmul(self.num, other.num), self.den + other.den)

    def scale(self, c, key=(0, 0, 0)):
        # self is reduced, and a unit times a monomial cannot make one of
        # its denominator atoms divide
        return Scal(pscale(self.num, c, key), self.den, reduce=False)

    def div(self, fb):
        """Divide by a FactoredBinomial: scale by its inverse unit and
        monomial, and append its atoms to the denominator."""
        inv_key = (_ex(-fb.key[0]), _ex(-fb.key[1]), -fb.key[2])
        return Scal(pscale(self.num, 1 / fb.coeff, inv_key),
                    self.den + fb.atoms)

    def as_poly(self):
        if self.den:
            raise InexactDivision(f"uncancelled denominator {self.den}")
        return self.num

    def __repr__(self):
        if self.is_poly():
            return f"Scal({poly_text(self.num)})"
        return f"Scal(({poly_text(self.num)})/{self.den})"


def _multiset_union(a, b):
    out = list(a)
    pool = list(a)
    for x in b:
        if x in pool:
            pool.remove(x)
        else:
            out.append(x)
    return tuple(sorted(out))


def _multiset_sub(a, b):
    out = list(a)
    for x in b:
        out.remove(x)
    return tuple(out)
