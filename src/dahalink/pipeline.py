"""End-to-end invariants of colored iterated torus links.

Pre-polynomials via the tree recursion, fixed-rank polynomials, their
a-stabilization, specializations (HOMFLY-PT, Alexander, Khovanov recipes)
and the symmetry / positivity checkers.

The a-stabilization adds one rank at a time to Newton's divided-difference
table in a and stops at the first zero difference, so the a-degree is read
off the result; the bound (5.40) only limits how far one window may grow.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb

from . import weights as wt
from .scalars import (
    FactoredBinomial, InexactDivision, Quotient, quotient, hat_normalize,
    pone, padd_into, psub, pmul, ppow, pdivexact, psubstitute, poly_text,
    series_divide, binomial_fb,
)
from .weights import RankTooSmall
from .daha import (
    get_rep, xp_one, xp_mul, word_of_rs, gamma_hat_project, _core_project,
    apply_weights, lp_divexact,
)
from .macdonald import get_mac
from .links import (
    LinkPair, ColoredForest, Path, Vertex, trees, lower_twist, deg_a_bound,
    norm_diagram, drop_r0, contract_r1, MoveNotApplicable,
)


class StabilizationFailed(Exception):
    pass


MAX_WINDOW_SHIFTS = 3


# ---------------------------------------------------------------------------
# pre-polynomials

def pre_polynomial(forest, rank):
    """Product over the root trees (`links.trees`) of their projected
    towers of cable words.

    Every vertex applies the lift of its [r, s] column to the product of
    the trees below it and projects back to the polynomial module;
    arrowheads seed the recursion with the integral Macdonald polynomial J.
    The result is a lattice XPoly (`daha`).
    """
    return _product(trees(forest), get_rep(rank))


def _product(level, rep):
    """The product of the trees of one level, as a lattice XPoly."""
    return reduce(xp_mul, (_tree(t, rep) for t in level))


def _tree(tree, rep):
    """A vertex's projection of the trees below it, or J of a color."""
    if isinstance(tree, Vertex):
        return gamma_hat_project(word_of_rs(*tree.label),
                                 _product(tree.below, rep), rep)
    return get_mac(rep.n).J(tree) if tree else xp_one(rep.n)


# ---------------------------------------------------------------------------
# fixed-rank invariants

def _all_colors(pair):
    return [p.color for f in pair.forests() for p in f.paths]


def _apply_fY(rep, f, g, sign=1):
    """f(Y^{-sign}) applied to g, a pre-polynomial, at the coinvariant
    point, as a lattice poly.

    g must be symmetric (T_i g = t^{1/2} g for i = 1..n): `apply_weights`
    reaches every Y_b with b not dominant by a reflection, which holds only
    on such g.  `Rep.y_op` is the route for any g."""
    if sign == 1:
        f = {wt.wt_neg(b): c for b, c in f.items()}
    return rep.coinvariant(apply_weights(rep, f, rep.y_steps, g, -1,
                                         point=True))


def _root_value(rep, forest):
    """The coinvariant of the pre-polynomial of a lone forest.

    A root that is one tree with a vertex (`links.trees`) is projected at
    the coinvariant point, and only the trees below it are built in full.
    A product of several root trees, or a lone arrowhead, is built in full,
    since the coinvariant is not multiplicative."""
    roots = trees(forest)
    if len(roots) > 1 or not isinstance(roots[0], Vertex):
        return rep.coinvariant(_product(roots, rep))
    root, = roots
    Q = _product(root.below, rep)
    return rep.coinvariant(gamma_hat_project(word_of_rs(*root.label), Q, rep,
                                             point=True))


@lru_cache(maxsize=None)
def _j_eval(rank, lam):
    """J_lam(q^{-rho_k}), the coinvariant of J_lam, as a lattice poly.
    It comes from E_b alone (`Mac.J_value`), so a normalization color that
    is none of the link's colors costs no J."""
    return get_mac(rank).J_value(lam)


def _div_j_eval(p, rank, lam):
    """p, a coinvariant value in lattice form, over J_lam at the coinvariant
    point.  A value that it does not divide raises InexactDivision."""
    return lp_divexact(p, _j_eval(rank, lam)) if lam else p


def _rank_value(pair, rank, norm):
    """The coinvariant value divided by the normalization, as a lattice
    poly.

    Only the coinvariant of the root is needed: a pair takes it from the
    Y-pass, and a lone forest from its root projection where the root is
    one tree (`_root_value`); both reach the weights that are not dominant
    at the coinvariant point (`daha.apply_weights`)."""
    pair = lower_twist(pair)
    lam = norm_diagram(pair, norm)
    rep = get_rep(rank)
    if pair.second is None:
        val = _root_value(rep, pair.first)
    else:
        f = pre_polynomial(pair.first, rank)
        g = pre_polynomial(pair.second, rank)
        val = _apply_fY(rep, g, f, sign=-1 if pair.vee else 1)
    return _div_j_eval(val, rank, lam)


def jd_raw(pair, rank, norm="min"):
    """The rank value before hat-normalization, as a poly of `scalars`."""
    return get_rep(rank).from_lattice(_rank_value(pair, rank, norm))


@dataclass(frozen=True)
class RankInvariant:
    rank: int
    poly: dict
    shift: tuple
    norm: object


def jd(pair, rank, norm="min"):
    """The hat-normalized rank value, normalized in lattice units
    (`daha.Rep.normalized`): the same poly and shift as
    `hat_normalize(jd_raw(pair, rank, norm))`."""
    poly, shift = get_rep(rank).normalized(_rank_value(pair, rank, norm))
    return RankInvariant(rank, poly, shift, norm)


# ---------------------------------------------------------------------------
# a-stabilization

@dataclass(frozen=True)
class SuperPoly:
    poly: dict
    shift: tuple
    norm: object
    ranks: tuple
    verified_rank: int
    link: object
    deg_a: int


def _interpolate_a(row, ranks, val):
    """One Newton step in a: extend the divided-difference table by `val`,
    the value at the node a = -t^{m+1} of the newest rank m = ranks[-1].

    `row` holds the differences f[x_{n-k}, ..., x_n], k = 0, 1, ..., of the
    previous node; the new node's row is returned, and its last entry is the
    next Newton coefficient.  Every division is by a binomial in t and must
    be exact, otherwise the window does not stabilize.
    """
    out = [val]
    m = ranks[-1]
    for k, prev in enumerate(row, start=1):
        # x_n - x_{n-k} = t^{ranks[n-k]+1} - t^{m+1}
        den = {(0, ranks[-1 - k] + 1, 0): 1, (0, m + 1, 0): -1}
        out.append(pdivexact(psub(out[-1], prev), den))
    return out


def _at_rank(poly, m):
    """Specialize a = -t^{m+1} and hat-normalize."""
    return hat_normalize(psubstitute(poly, a=(-1, 0, m + 1, 0)))[0]


def superpolynomial(pair, norm="min"):
    """The polynomial in a whose value at a = -t^{m+1} is the rank-m value.

    Ranks are added one at a time from the longest color's length, each
    extending Newton's divided-difference table in a; the first zero
    difference ends the window.  `ranks` are the nodes of the result, so its
    a-degree is len(ranks) - 1, and `verified_rank` is the rank whose
    difference was zero: the result already took its value there.  An
    inexact division, or no zero difference within the a-degree bound
    (5.40), moves the start up by one rank; ranks already evaluated are
    reused.  After MAX_WINDOW_SHIFTS shifts it raises StabilizationFailed.
    """
    low = lower_twist(pair)
    bound = deg_a_bound(pair, norm)
    m0 = max([1] + [len(c) for c in _all_colors(low)])
    vals = {}
    for _ in range(MAX_WINDOW_SHIFTS + 1):
        ranks, row, out, basis = [], [], {}, pone()
        for m in range(m0, m0 + bound + 2):
            if m not in vals:
                vals[m] = jd(low, m, norm).poly
            try:
                row = _interpolate_a(row, ranks + [m], vals[m])
            except InexactDivision:
                break
            if ranks and not row[-1]:
                poly, shift = hat_normalize(out)
                return SuperPoly(poly, shift, norm, tuple(ranks), m, pair,
                                 len(ranks) - 1)
            # Newton form: coefficient k times prod over ranks[:k] of a+t^{r+1}
            padd_into(out, pmul(row[-1], basis))
            basis = pmul(basis, {(0, 0, 1): 1, (0, m + 1, 0): 1})
            ranks.append(m)
        m0 += 1
    raise StabilizationFailed(
        f"no zero Newton difference within the a-degree bound {bound} "
        f"after {MAX_WINDOW_SHIFTS} window shifts for {pair}")


# ---------------------------------------------------------------------------
# Hopf star / vertex

@dataclass(frozen=True)
class VertexValue:
    super: SuperPoly
    dagger: Quotient
    c_num: dict


def hopf_star(diagrams, meridian=None, vee=True):
    """The [1,-1]-star link over the given colors, optionally paired with a
    [1,0]-tree colored by `meridian`."""
    paths = tuple(Path(((1, -1),), lam, 1 if i else 0)
                  for i, lam in enumerate(diagrams))
    first = ColoredForest(paths)
    second = None
    if meridian is not None:
        second = ColoredForest((Path(((1, 0),), meridian),))
    return LinkPair(first, second, vee and second is not None)


def hopf_vertex(diagrams, meridian=None, vee=True):
    pair = hopf_star(diagrams, meridian, vee)
    sup = superpolynomial(pair, "min")
    union = reduce(wt.diagram_union, diagrams, ())
    dag = quotient(pmul(sup.poly, wt.pi_dagger(union).expand()),
                   reduce(FactoredBinomial.mul, map(wt.pi_dagger, diagrams)))
    lead = {(k[0], k[1], 0): c for k, c in sup.poly.items()
            if k[2] == sup.deg_a}
    c_num = hat_normalize(psubstitute(lead, t=(1, 1, 0, 0)))[0]
    return VertexValue(sup, dag, c_num)


# ---------------------------------------------------------------------------
# specializations

def _kappa(pair):
    """The number of components, counted after the twist is lowered (a
    twist without a second tree gains one)."""
    return sum(len(f.paths) for f in lower_twist(pair).forests())


def _hooks_tq(lam):
    """prod over boxes (1 - q^{arm+leg+1}): lam's hook binomials at t = q."""
    out = FactoredBinomial.one()
    for arm, leg in wt.arm_leg(lam):
        out = out.mul(binomial_fb(arm + leg + 1, 0))
    return out


def _den_jo(colors, jo=0):
    """Reduced-HOMFLY denominator at t = q, as (dag, hooks): the denominator
    is hooks / dag.  dag is the dagger product of the union of the colors
    over that of the jo-th color, as a poly; hooks is the hook product of
    the other colors.  The t = q hooks are built from hook lengths, so
    their atoms are primitive."""
    union = reduce(wt.diagram_union, colors, ())
    dag = wt.pi_dagger(union).div(wt.pi_dagger(colors[jo]))
    hooks = FactoredBinomial.one()
    for j, lam in enumerate(colors):
        if j != jo:
            hooks = hooks.mul(_hooks_tq(lam))
    return psubstitute(dag.expand(), t=(1, 1, 0, 0)), hooks


def spec_homfly(sup, jo=0, reduced=True):
    """t -> q, a -> -a, divided by the reduced denominator, as a Quotient;
    unreduced multiplies back the stable value of the jo-colored unknot,
    its dagger rows over its hook binomials."""
    colors = _all_colors(lower_twist(sup.link))
    if not 0 <= jo < len(colors):
        raise ValueError(f"jo={jo} is out of range for a link with "
                         f"{len(colors)} color(s)")
    to_homfly = dict(t=(1, 1, 0, 0), a=(-1, 0, 0, 1))
    dag, hooks = _den_jo(colors, jo)
    num = pmul(psubstitute(sup.poly, **to_homfly), dag)
    if not reduced:
        lam = colors[jo] or (1,)
        num = pmul(num, psubstitute(wt.pi_dagger(lam).expand(), **to_homfly))
        hooks = hooks.mul(_hooks_tq(lam))
    return quotient(num, hooks)


def spec_alexander(sup):
    """q -> q is kept, t -> q, a -> -1, divided by (1-q)^{kappa-[kappa=1]}."""
    kappa = _kappa(sup.link)
    p = psubstitute(sup.poly, t=(1, 1, 0, 0), a=(-1, 0, 0, 0))
    power = kappa - (1 if kappa == 1 else 0)
    out = pdivexact(p, ppow({(0, 0, 0): 1, (1, 0, 0): -1}, power))
    return hat_normalize(out)[0]


def spec_khovanov(sup, N, variant="A", cutoff=None):
    """Khovanov-recipe substitutions; exact when the division comes out
    polynomial, otherwise a truncated series (cutoff required).

    Variant A: ((1+a) * sup / (1-t)^kappa) in topological parameters with
    a -> -q^{2(N+1)}.  Variant B: switch to the modified parameters
    (q -> (qt)^2, t -> q^2, a -> -a^2), then ((1-a^2) * sup / (1-q^2)^kappa)
    at a = q^N.  Either division is exact only after the substitution."""
    kappa = _kappa(sup.link)
    if variant == "A":
        num = pmul(sup.poly, {(0, 0, 0): 1, (0, 0, 1): 1})
        num = psubstitute(num, q=(1, 2, 2, 0), t=(1, 2, 0, 0),
                          a=(-1, 2 * (N + 1), 0, 0))
    elif variant == "B":
        num = psubstitute(sup.poly, q=(1, 2, 2, 0), t=(1, 2, 0, 0),
                          a=(-1, 0, 0, 2))
        num = pmul(num, {(0, 0, 0): 1, (0, 0, 2): -1})
        num = psubstitute(num, a=(1, N, 0, 0))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    try:
        quo = pdivexact(num, ppow({(0, 0, 0): 1, (2, 0, 0): -1}, kappa))
    except InexactDivision:
        if cutoff is None:
            raise
        quo = _series_q2(num, kappa, cutoff)
    return hat_normalize(quo)[0]


def _series_q2(num, power, cutoff):
    """num / (1-q^2)^power as a q-truncated series."""
    geo = {(2 * i, 0, 0): comb(i + power - 1, power - 1)
           for i in range(cutoff // 2 + 1)}
    full = pmul(num, geo)
    base = min(k[0] for k in num)
    return {k: c for k, c in full.items() if k[0] <= base + cutoff}


def to_standard(p):
    """Topological parameters: q -> (q t)^2, t -> q^2, a -> a^2 t (the
    a-slot counts the standard a)."""
    return psubstitute(p, q=(1, 2, 2, 0), t=(1, 2, 0, 0), a=(1, 0, 1, 2))


# ---------------------------------------------------------------------------
# checkers

def _hat_eq(p1, p2):
    return hat_normalize(p1)[0] == hat_normalize(p2)[0]


def check_positivity(sup, p_t, p_q=0, cutoff=12, margin=0):
    """Expand sup / ((1-t)^p_t (1-q)^p_q) and report the first negative
    coefficient, if any, among the reliably computed terms."""
    ser = series_divide(sup.poly, p_t=p_t, p_q=p_q, cutoff=cutoff)
    lim = cutoff - margin
    bad = sorted((k, c) for k, c in ser.items()
                 if c < 0 and k[0] <= lim and k[1] <= lim)
    if bad:
        k, c = bad[0]
        return {"ok": False,
                "first_negative": {"q": k[0], "t": k[1], "a": k[2],
                                   "coeff": c}}
    return {"ok": True, "cutoff": cutoff}


def check_symmetries(pair, suite, rank=1, norm="min", sup=None):
    """Run the requested identity checks on the pair with its twist
    lowered (`links.lower_twist`); returns {name: report}."""
    unknown = [name for name in suite if name not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; the known checks are "
                         f"{sorted(_CHECKS)}")
    low = lower_twist(pair)
    out = {}
    for name in suite:
        try:
            out[name] = _CHECKS[name](low, rank, norm, sup)
        except MoveNotApplicable:
            out[name] = {"ok": True, "skipped": "no applicable site"}
    return out


def _check_lifts(low, rank, norm, sup):
    base = jd(low, rank, norm).poly
    forest = low.first
    labels = [l for p in forest.paths for l in p.labels]
    if not labels:
        return {"ok": True, "skipped": "no vertices"}
    # same matrix, different words: the full lift of the word with an
    # identity pair on each side, trailing tau_+ letters kept, must give
    # the projection of the bare word with its trailing tau_+ stripped
    rep = get_rep(rank)
    r, s = labels[0]
    w = word_of_rs(r, s)
    alt = (('+', 1), ('+', -1)) + w + (('+', 1), ('+', -1))
    probe = get_mac(rank).J((1,))
    ok = gamma_hat_project(w, probe, rep) == _core_project(alt, probe, rep)
    return {"ok": ok, "word": w, "base": poly_text(base)}


def _check_moves(low, rank, norm, sup):
    base = jd(low, rank, norm).poly
    lam = norm_diagram(low, norm)
    tried = []
    for comp, forest in enumerate(low.forests()):
        for j, p in enumerate(forest.paths):
            for i, (r, s) in enumerate(p.labels, start=1):
                move = {0: drop_r0, 1: contract_r1}.get(r)
                if move is None:
                    continue
                if move is contract_r1 and i == 1:
                    continue        # changes the closed link component-wise
                try:
                    moved = move(low, (comp, j, i))
                except MoveNotApplicable:
                    continue
                # `drop_r0` may reorder the paths: ("j_o", idx) follows the
                # color it names
                mnorm = norm if norm in ("min", "none") else \
                    ("j_o", _all_colors(moved).index(lam))
                got = jd(moved, rank, mnorm).poly
                tried.append((move.__name__, (comp, j, i), got == base))
    ok = all(t[2] for t in tried)
    return {"ok": ok, "tried": tried} if tried else \
        {"ok": True, "skipped": "no applicable site"}


def _check_duality(low, rank, norm, sup):
    s = sup if sup is not None else superpolynomial(low, norm)
    flipped = psubstitute(s.poly, q=(1, 0, -1, 0), t=(1, -1, 0, 0))
    s2 = superpolynomial(_transpose_pair(low), norm)
    ok = _hat_eq(flipped, s2.poly)
    return {"ok": ok}


def _transpose_pair(low):
    def tf(forest):
        if forest is None:
            return None
        return ColoredForest(tuple(
            Path(p.labels, wt.transpose(p.color), p.share)
            for p in forest.paths))
    return LinkPair(tf(low.first), tf(low.second), low.vee)


def _check_phi_swap(low, rank, norm, sup):
    if low.second is None or low.vee:
        return {"ok": True, "skipped": "needs a plain pair"}
    a = jd_raw(low, rank, norm)
    b = jd_raw(LinkPair(low.second, low.first), rank, norm)
    return {"ok": a == b}


def _check_q1(low, rank, norm, sup):
    """q = 1 factors into the component (knot) values up to a cofactor of
    the shape (1+a)^i q^j t^k."""
    s = sup if sup is not None else superpolynomial(low, norm)
    whole = psubstitute(s.poly, q=(1, 0, 0, 0))
    prod = pone()
    for forest in low.forests():
        for sub in _component_trees(forest):
            ksup = superpolynomial(LinkPair(sub), norm)
            prod = pmul(prod, psubstitute(ksup.poly, q=(1, 0, 0, 0)))
    ok = _cofactor_ok(whole, prod)
    return {"ok": ok, "lhs": poly_text(whole), "rhs": poly_text(prod)}


def _component_trees(forest):
    """Each path as its own one-component tree (colors kept)."""
    for p in forest.paths:
        yield ColoredForest((Path(p.labels, p.color, 0),))


def _cofactor_ok(p1, p2):
    """p1 == +-(1+a)^i * q^j t^k * p2 for some i >= 0, j, k (either way).

    The a-degrees fix the power: i is the difference of the top a-degrees.
    """
    i = max(k[2] for k in p1) - max(k[2] for k in p2)
    if i < 0:
        p1, p2, i = p2, p1, -i
    try:
        q = pdivexact(p1, pmul(p2, ppow({(0, 0, 0): 1, (0, 0, 1): 1}, i)))
    except InexactDivision:
        return False
    return len(q) == 1 and next(iter(q.values())) in (1, -1)


def _check_stab_extra(low, rank, norm, sup):
    s = sup if sup is not None else superpolynomial(low, norm)
    m = s.verified_rank + 1
    try:
        got = jd(low, m, norm).poly
    except RankTooSmall:
        return {"ok": True, "skipped": "rank"}
    return {"ok": _at_rank(s.poly, m) == got, "rank": m}


_CHECKS = {
    "lifts": _check_lifts,
    "moves": _check_moves,
    "duality": _check_duality,
    "phi_swap": _check_phi_swap,
    "q1": _check_q1,
    "stab_extra": _check_stab_extra,
}
