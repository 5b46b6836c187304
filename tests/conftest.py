"""Every normalization divide the tests make is checked against its oracle.

`pipeline._div_j_eval` divides a coinvariant value by J_lam at the
coinvariant point (`Mac.J_value`), in lattice units.  For the whole session it is wrapped
so that each call also runs the closed-form route (`norms.div_j_eval_scal`,
h_lam times Macdonald's product for P_lam(q^{-rho_k}), in Scal form): both
must give the same poly, or the lattice route raises InexactDivision
exactly when the Scal route keeps a denominator atom.
"""

import pytest

from dahalink import pipeline as pl
from dahalink.daha import get_rep
from dahalink.scalars import InexactDivision
from norms import div_j_eval_scal
from scal import Scal


@pytest.fixture(autouse=True, scope="session")
def normalization_divide_matches_scal_route():
    lattice = pl._div_j_eval

    def checked(p, rank, lam):
        rep = get_rep(rank)
        want = div_j_eval_scal(Scal(rep.from_lattice(p)), rank, lam)
        try:
            got = lattice(p, rank, lam)
        except InexactDivision:
            assert not want.is_poly(), ("an exact division was reported "
                                        "inexact", rank, lam)
            raise
        assert want.is_poly(), ("the Scal route keeps a denominator",
                                rank, lam)
        assert rep.from_lattice(got) == want.num, (rank, lam)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "_div_j_eval", checked)
        yield
