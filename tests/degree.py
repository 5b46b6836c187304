"""Test oracle: the conjectured exact a-degree (5.41) of positive links.

The package reads the a-degree off the stabilized superpolynomial and uses
only the bound (5.40), `links.deg_a_bound`.  The paper conjectures the
exact degree for positive trees and positive vee-pairs (§4.3, §9.3); tests
check the computed degree against it.
"""

from math import prod

from dahalink.links import lower_twist, norm_diagram


def _positive(forest):
    return all(r > 0 and s > 0 for p in forest.paths for r, s in p.labels)


def _meridian(forest):
    return all(p.labels in ((), ((1, 0),)) for p in forest.paths)


def _head(forest):
    for p in forest.paths:
        if p.labels:
            return p.labels[0]
    return None


def classify_positive(pair):
    """positive_tree / positive_pair / generic (§4.3, §9.3)."""
    if pair.twist is not None:
        alpha, beta = pair.twist
        trees = [f for f in pair.forests()]
        if pair.vee and alpha > 0 and beta > 0 and all(map(_positive, trees)):
            head = _head(pair.second) if pair.second else _head(pair.first)
            if head is None or alpha * head[1] > beta * head[0]:
                return "positive_pair"
        return "generic"
    if pair.second is None:
        return "positive_tree" if _positive(pair.first) else "generic"
    if pair.vee and _positive(pair.first) and \
            (_meridian(pair.second) or _positive(pair.second)):
        h1, h2 = _head(pair.first), _head(pair.second)
        if _meridian(pair.second) or h1 is None or \
                h1[1] * h2[1] > h1[0] * h2[0]:
            return "positive_pair"
    return "generic"


def exact_deg_a(pair, normalization="min"):
    """The conjectured exact a-degree (5.41) of a positive tree or positive
    vee-pair, after the twist is lowered; None for any other link."""
    pair = lower_twist(pair)
    if classify_positive(pair) == "generic":
        return None
    exact = -sum(norm_diagram(pair, normalization))
    for f in pair.forests():
        for p in f.paths:
            boxes = sum(p.color)
            if p.labels:
                r1, s1 = p.labels[0]
                tail = prod(abs(r) for r, _ in p.labels[1:])
                exact += max(1, min(abs(r1), abs(s1)) * tail) * boxes
            else:
                exact += boxes
    return exact
