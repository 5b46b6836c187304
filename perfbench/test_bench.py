"""The benchmark's own code: each check accepts a correct output and
rejects a perturbed one, a wrong output counts as a failed operation, span
times add up, and pass times are scaled by the machine speed sampled
around them.

    python3 -m pytest perfbench -q
"""

import time
from fractions import Fraction

import pytest

import oracles as o
import run

TREFOIL = "1 + q*t + a*q"
HOPF = "1 - t + q*t + a*q"


def P(text):
    return o.parse(text)


def test_parse_signs_and_fractional_exponents():
    p = P("-1 + 2*q^(1/2)*t^-1 - a^2*q^(-3/2)")
    assert p == {(0, 0, 0): -1, (Fraction(1, 2), -1, 0): 2,
                 (Fraction(-3, 2), 0, 2): -1}
    assert P("0") == {}


def test_divide_exact_long_quotient():
    num = {(0, 0, 0): 1, (5000, 0, 0): -1}
    quo = o.divide(num, {(0, 0, 0): 1, (1, 0, 0): -1})
    assert quo == {(e, 0, 0): 1 for e in range(5000)}


def test_divide_inexact_terminates_where_a_floor_would_not():
    # Quotient keys (0,-1,0), (0,-2,0), ... all lie above the lex floor
    # min(num) - min(den) = (-1,0,0); only the per-variable box stops them.
    assert o.divide(P("1 + q^-1"), P("1 - t")) is None


def test_cable_product():
    assert o.cable_alexander([(3, 2)]) == P("1 - q + q^2")
    assert o.cable_alexander([(3, 2)], boxes=2) == P("1 - q^2 + q^4")
    assert o.cable_alexander([(2, 1), (2, 1)]) == \
        P("1 - q + q^2 - q^3 + q^4")


def test_linking_numbers():
    assert o.tree_linking_number([(1, 1)], [(1, 1)], 1) == 1
    assert o.tree_linking_number([(1, 1), (2, 1)], [(1, 1)], 1) == 2
    assert o.meridian_linking_number([(3, 2)]) == 3


@pytest.mark.parametrize("check, good, bad", [
    (lambda s: o.check_alexander_cable(P(s), [(3, 2)], 1),
     TREFOIL, "1 + q*t + 2*a*q"),
    (lambda s: o.check_torres(P(s), 1), HOPF, "1 - t + q*t + a*q^2"),
    (lambda s: o.check_torres(P(s), 1), HOPF, "1 - t + q*t + 3*a*q"),
    (lambda s: o.check_dual(P(s), P(s)), HOPF, "1 - t + q*t + a*q*t"),
    (lambda s: o.check_dual(P(s), P(HOPF)), HOPF, "1 + q*t + a*q"),
    (lambda s: o.check_unknot(P(s)), "1", "1 + a"),
    (lambda s: o.check_alexander_op(P(s), P(TREFOIL), 1),
     "1 - q + q^2", "1 + q^2"),
    (lambda s: o.check_homfly_op(P(s), [], P(TREFOIL), 1),
     "1 + q^2 - a*q", "1 + q^2 - a*q^2"),
    (lambda s: o.check_rank_value(P(s), P(TREFOIL), 1),
     "1 + q*t - q*t^2", "1 + q*t + q*t^2"),
    (lambda s: o.check_q1(P(s), P("1"), P(HOPF)), "1 + a", "1 + 2*a"),
    (lambda s: o.check_vertex_c(P(s), P("1 + a*q^2 + a*t^-1 - a*q^2*t^-1")),
     "1 - q^2 + q^3", "1 - q + q^3"),
])
def test_check_rejects_perturbed_output(check, good, bad):
    assert check(good) is None
    assert check(bad) is not None


def test_homfly_rejects_wrong_denominator():
    assert o.check_homfly_op(P("1 + q^2 - a*q"), [("c", 1, 1, 0)],
                             P(TREFOIL), 1) is not None


def test_check_pass_counts_a_wrong_output_as_failed():
    ops = [{"kind": "super", "id": "T32"}, {"kind": "alexander", "of": "T32"}]
    good = {0: {"out": {"poly": TREFOIL}}, 1: {"out": {"poly": "1 - q + q^2"}}}
    assert run.check_pass(ops, good) == (0, 0)
    bad = {0: {"out": {"poly": TREFOIL}}, 1: {"out": {"poly": "1 + q"}}}
    assert run.check_pass(ops, bad) == (1, 1)
    cut = {0: {"out": {"poly": TREFOIL}}}
    assert run.check_pass(ops, cut) == (1, 0)


def test_span_self_time_and_recursion():
    from spans import Tracer
    tr = Tracer()
    ix = tr.name_ix["daha.t_op"]
    g = tr.name_ix["daha.gamma_hat_project"]
    # gamma_hat_project [0, 10] calls t_op [1, 5], which calls t_op [2, 4]
    for name, start, end, parent, outer in ((g, 0, 10, -1, 1),
                                            (ix, 1, 5, 0, 1),
                                            (ix, 2, 4, 1, 0)):
        tr.name.append(name)
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
        tr.failed.append(0)
        tr.outer.append(outer)
    m = tr.metrics()
    assert m["daha.gamma_hat_project.self_s"] == 6
    assert m["daha.t_op.calls"] == 2
    assert m["daha.t_op.self_s"] == 4
    assert m["daha.gamma_hat_project.s"] == 10


def test_reference_speed_scales_each_stretch_by_its_bursts():
    from speed import REF_BURST_S, Sampler
    sp = Sampler()
    # three stretches at reference speed, then four at half speed, in which
    # one burst is slowed further by an interruption
    bursts = [1, 1, 1, 2, 2, 9, 2]
    sp.stretches = [(1.0, b * REF_BURST_S) for b in bursts]
    assert sp.own_s() == 7.0
    assert sp.normalized() == pytest.approx(3 * 1.0 + 4 * 0.5)
    assert sp.normalized(before_s=0.2) == pytest.approx(5.2)


def test_sampler_times_bursts_while_code_runs():
    from speed import PERIOD_S, Sampler
    sp = Sampler()
    sp.start()
    end = time.perf_counter() + 10 * PERIOD_S
    while time.perf_counter() < end:
        pass
    sp.stop()
    assert len(sp.stretches) >= 5
    assert 0 < sp.own_s() < 11 * PERIOD_S
    assert sp.normalized() > 0
