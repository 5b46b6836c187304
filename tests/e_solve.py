"""The span solve: a test oracle for `Mac.E`'s intertwiner recursion.

E_b is produced as the joint Y-eigenvector on the dominance-bounded monomial
span.  The Y-operators are triangular there with monomial diagonal
q^{-(w_i, c-sharp)}, so each coefficient is solved once, after those its row
reaches (a dependency cycle means Y is not triangular):

    x_c  =  (sum_{d != c} (Y_i X_d)_c x_d) / (lam_b - lam_c)

All divisions are by monomial differences lam_b - lam_c, i.e. by binomial
atoms, so the coefficients are Scals.  The Y-columns come from `chains.y_op`,
one monomial at a time, and no intertwiner is used.
"""

from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from itertools import permutations

from dahalink import weights as wt
from dahalink.scalars import FactoredBinomial, binomial_fb, _ex
from chains import xp_mono, y_op
from scal import Scal
from weyl import sharp_point


class EigenvalueCollision(Exception):
    pass


class NonTerminating(Exception):
    pass


def _dominated_partitions(vplus):
    """All weakly decreasing integer vectors below vplus in dominance order
    (same length, same sum)."""
    n1 = len(vplus)
    total = sum(vplus)
    prefix = [0]
    for x in vplus:
        prefix.append(prefix[-1] + x)
    out = []

    def rec(acc, ssum):
        i = len(acc)
        if i == n1:
            out.append(tuple(acc))
            return
        hi = acc[-1] if acc else vplus[0]
        hi = min(hi, prefix[i + 1] - ssum)
        # the entries from here on are <= x, so ssum + x*(n1 - i) >= total
        lo = -((ssum - total) // (n1 - i))
        for x in range(hi, lo - 1, -1):
            rec(acc + [x], ssum + x)

    rec([], 0)
    return out


def span_weights(b):
    """Weights c with c_+ dominated by b_+ and c = b mod Q."""
    b_plus, _ = wt.sort_perm_maximal(b)
    vplus = wt.to_eps(b_plus)
    out = []
    for mu in _dominated_partitions(vplus):
        for v in set(permutations(mu)):
            out.append(wt.from_eps(v))
    return out


def eigen_exp(rep, i, c):
    """(q-exp, t-exp) of q^{-(w_i, c-sharp)}, the Y_{omega_i} eigenvalue
    of E_c."""
    _, _, pt = sharp_point(c)
    eq, et = pt.exponents(rep.omegas[i])
    return (_ex(-eq), _ex(-et))


def span_solve(rep, b):
    """E_b as {weight: Scal}, with coefficient 1 at X_b, solved on the span
    of b from the Y-columns of `chains.y_op`."""
    n = rep.n
    b = tuple(b)
    span = span_weights(b)
    lam_b = [None] + [eigen_exp(rep, i, b) for i in range(1, n + 1)]
    # pick a resolving Y-direction for every other span weight
    direction = {}
    lam = {}
    for c in span:
        if c == b:
            continue
        for i in range(1, n + 1):
            e = eigen_exp(rep, i, c)
            if e != lam_b[i]:
                direction[c] = i
                lam[c] = e
                break
        else:
            raise EigenvalueCollision((b, c))
    cols = {i: {} for i in set(direction.values())}
    for i in cols:
        for d in span:
            col = y_op(rep, rep.omegas[i], xp_mono(d))
            eq, et = eigen_exp(rep, i, d)
            if col.get(d) != rep.to_lattice({(eq, et, 0): 1}):
                raise NonTerminating(f"Y_{i} not triangular at {d}")
            cols[i][d] = col
    # row c of Y_i E_b = lam_b E_b gives x_c from the x_d whose column
    # has an X_c term; sums and the result run in span order, b first
    rows = [b] + list(direction)
    deps = {c: [d for d in rows if d != c and c in cols[i][d]]
            for c, i in direction.items()}
    try:
        order = [c for c in TopologicalSorter(deps).static_order() if c != b]
    except CycleError as e:
        raise NonTerminating(f"Y not triangular: {e.args[1]}") from None
    x = {b: Scal.one()}
    for c in order:
        i = direction[c]
        acc = Scal.zero()
        for d in deps[c]:
            if d in x:
                y = Scal(rep.from_lattice(cols[i][d][c]))
                acc = acc.add(y.mul(x[d]))
        if acc.is_zero():
            continue
        # lam_b - lam_c = q^. t^. (1 - q^. t^.), kept factored
        lb, lc = lam_b[i], lam[c]
        diff = binomial_fb(lc[0] - lb[0], lc[1] - lb[1]).mul(
            FactoredBinomial(1, (lb[0], lb[1], 0)))
        x[c] = acc.div(diff)
    return {c: x[c] for c in rows if c in x}


@lru_cache(maxsize=None)
def solved(rep, b):
    """`span_solve`, memoized per rank and weight."""
    return span_solve(rep, b)
