"""The fundamental-step chain: a test oracle for `daha.apply_weights`.

Every O_b g is built from O_{b'} g for a shorter weight b' by one step
O_{+-omega_r}, so no relation with T_i is used and any g will do; the
reflections of `apply_weights` are checked against it.
"""

from dahalink import weights as wt
from dahalink.daha import lp_shift, xp_add_into, xp_one


def xp_mono(b):
    """X_b as a lattice XPoly."""
    return {tuple(b): {0: 1}}


def chain_apply_weights(rep, f, steps, g):
    """The sum over b of f_b O_b g, where steps[(r, s)] = (eq, atoms) gives
    O_{s omega_r} = q^{eq/L} atoms.  The atom part of O_b g is built one
    step from that of a shorter weight (the first nonzero coordinate of b
    steps last) and memoized; the q-powers add up along the way and scale
    f_b alone."""
    memo = {wt.zero(rep.n): (0, g)}

    def value(b):
        hit = memo.get(b)
        if hit is not None:
            return hit
        r = next(i + 1 for i, l in enumerate(b) if l)
        s = 1 if b[r - 1] > 0 else -1
        prev = list(b)
        prev[r - 1] -= s
        e, v = value(tuple(prev))
        eq, atoms = steps[(r, s)]
        out = memo[b] = (e + eq, rep.apply_atoms(atoms, v))
        return out

    out = {}
    for b, c in f.items():
        e, v = value(b)
        xp_add_into(out, v, lp_shift(c, e) if e else c)
    return out


def tau_steps(rep, word):
    """The tau-images of X_{+-omega_r} under `word`."""
    out = {}
    for r in range(1, rep.n1):
        om = rep.omegas[r]
        out[(r, 1)] = rep.image_atom(word, ('X', om))
        out[(r, -1)] = rep.image_atom(word, ('X', wt.wt_neg(om)))
    return out


def y_steps(rep):
    """The fundamental steps Y_{+-omega_r}."""
    return {(r, s): (0, rep.y_atoms(r, s))
            for r in range(1, rep.n1) for s in (1, -1)}


def core_project(word, Q, rep):
    """`daha._core_project` along the chain."""
    if not word:
        return dict(Q)
    return chain_apply_weights(rep, Q, tau_steps(rep, word), xp_one(rep.n))


def apply_fY(rep, f, g, sign=1):
    """`pipeline._apply_fY` along the chain: f(Y^{-sign}) applied to any
    g."""
    if sign == 1:
        f = {wt.wt_neg(b): c for b, c in f.items()}
    return chain_apply_weights(rep, f, y_steps(rep), g)
