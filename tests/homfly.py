"""HOMFLY-PT of uncolored torus knots by the Rosso-Jones formula.

A reference that does not use DAHA, written on `scalars` poly dicts (q in
the first slot, a in the third).  For T(m, n) on n strands,

    H = sum over hooks lam of n of (-1)^leg(lam) theta_lam^{m/n} dim_q(lam)

divided by dim_q of the box, where theta_lam = q^kappa(lam) a^n, kappa is
twice the sum of the contents, and dim_q(lam) is the product over cells of
(a q^c - a^-1 q^-c) / (q^h - q^-h), c the content and h the hook length.
Mapping a -> a^-1 and halving every exponent gives the t = q slice of the
superpolynomial, up to a monomial (Rosso-Jones, J. Knot Theory Ramif. 2
(1993); Jones, Ann. of Math. 126 (1987)).
"""

from dahalink.scalars import pmul, padd_into, pdivexact


def _hook_cells(n, leg):
    """(content, hook length) of the cells of the hook (n - leg, 1^leg)."""
    arm = n - leg - 1
    yield 0, n
    for c in range(1, arm + 1):
        yield c, arm - c + 1
    for r in range(1, leg + 1):
        yield -r, leg - r + 1


def _diff(k1, k2):
    """q^k1[0] a^k1[1] - q^k2[0] a^k2[1]."""
    return {(k1[0], 0, k1[1]): 1, (k2[0], 0, k2[1]): -1}


def _product(polys):
    out = {(0, 0, 0): 1}
    for p in polys:
        out = pmul(out, p)
    return out


def rosso_jones(m, n):
    """The HOMFLY-PT of T(m, n) as a poly in q and a, both shifted to
    start at exponent 0."""
    nums, dens = [], []
    for leg in range(n):
        cells = list(_hook_cells(n, leg))
        # theta^{m/n}: kappa m / n = (arm - leg) m for a hook of n
        theta = {((n - 2 * leg - 1) * m, 0, m): (-1) ** leg}
        nums.append(pmul(theta, _product(_diff((c, 1), (-c, -1))
                                         for c, _ in cells)))
        dens.append(_product(_diff((h, 0), (-h, 0)) for _, h in cells))
    total = {}
    for i, num in enumerate(nums):
        padd_into(total, _product([num] + dens[:i] + dens[i + 1:]))
    # over dim_q of the box, (a - a^-1)/(q - q^-1)
    total = pmul(total, _diff((1, 0), (-1, 0)))
    h = pdivexact(total, pmul(_product(dens), _diff((0, 1), (0, -1))))
    # a -> a^-1, shift to exponent 0 and halve
    h = {(k[0], 0, -k[2]): c for k, c in h.items()}
    q0 = min(k[0] for k in h)
    a0 = min(k[2] for k in h)
    out = {}
    for (eq, _, ea), c in h.items():
        if (eq - q0) % 2 or (ea - a0) % 2:
            raise AssertionError(f"odd exponent in {h}")
        out[((eq - q0) // 2, 0, (ea - a0) // 2)] = c
    return out
