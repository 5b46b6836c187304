"""Rational q,t-Catalan numbers by area and dinv of lattice paths.

A reference that does not use DAHA, written on `scalars` poly dicts.  For
coprime (m, n), c_{m,n}(q, t) sums q^area t^dinv over the lattice paths
from (0, 0) to (m, n) that stay weakly above the diagonal (Gorsky-Mazin,
arXiv:1105.1151).  Row j = 0, ..., n-1 has its north step at x = p_j, with
p nondecreasing and p_j <= floor(m j / n); its cells left of the path are
x = 0, ..., p_j - 1.

  * area = sum_j (floor(m j / n) - p_j);
  * dinv counts the cells with arm n < m (leg + 1) and, unless leg = 0,
    m leg < n (arm + 1): arm/(leg+1) < m/n < (arm+1)/leg, where
    arm = p_j - x - 1 counts the cells to its right in its row and
    leg = #{j' < j : x < p_j'} the cells below it in its column.

The a^0 part of the uncolored superpolynomial of T(m, n) is
`hat_normalize(c_{m,n}(q^-1, t))` (Gorsky-Negut, arXiv:1304.3328;
Cherednik, arXiv:1111.6195).
"""

from dahalink.scalars import padd_into


def _paths(m, n):
    """Every admissible p = (p_0, ..., p_{n-1})."""
    def grow(p):
        j = len(p)
        if j == n:
            yield p
            return
        for x in range(p[-1] if p else 0, m * j // n + 1):
            yield from grow(p + (x,))
    return grow(())


def _dinv(p, m, n):
    out = 0
    for j, pj in enumerate(p):
        for x in range(pj):
            arm = pj - x - 1
            leg = sum(1 for pk in p[:j] if x < pk)
            if arm * n < m * (leg + 1) and (leg == 0 or m * leg < n * (arm + 1)):
                out += 1
    return out


def rational_catalan(m, n):
    """c_{m,n}(q, t) as a poly dict, for coprime m, n >= 1."""
    out = {}
    for p in _paths(m, n):
        area = sum(m * j // n - pj for j, pj in enumerate(p))
        padd_into(out, {(area, _dinv(p, m, n), 0): 1})
    return out
