"""The three workloads: which links, which operations, and how each is checked.

A link is computed once per pass by a `super` (or `vertex`) operation and
then used by the operations after it in its group.  The seed only permutes
the groups: every group runs in every pass, and the union of what the
per-rank caches hold is the same in any order, so a pass does the same work
whatever the seed.
"""

import random

from oracles import meridian_linking_number, tree_linking_number


def _link(dsl, components, **oracle):
    """A link's DSL text, its number of components, and the properties its
    superpolynomial is checked against:

      dual=ID or "self"     super-duality partner (transposed coloring)
      cable=(labels, b)     Seifert cabling product for a knot, b boxes
      lk=N                  Torres condition for two components
      unknot=True           the value is 1
      same_as=ID            the same link written another way
    """
    return {"dsl": dsl, "components": components, **oracle}


# A color of b boxes counts as b parallel strands in the linking number.
LINKS = {
    # uncolored torus knots and links, and pairs
    "T32": _link("{[3,2]->(1)}", 1, dual="self", cable=([(3, 2)], 1)),
    "T22": _link("{[1,1]->(1) | [1,1]->(1)}", 2, dual="self",
                 lk=tree_linking_number([(1, 1)], [(1, 1)], 1)),
    "T22neg": _link("{[1,-1]->(1) | [1,-1]->(1)}", 2, dual="self",
                    lk=tree_linking_number([(1, -1)], [(1, -1)], 1)),
    "chain3": _link("{[1,0]->(1) | [1,0]->(1)} ; vee {[1,0]->(1)}", 3,
                    dual="self"),
    # uncolored depth-2 cables
    "C21_21": _link("{[2,1],[2,1]->(1)}", 1, dual="self",
                    cable=([(2, 1), (2, 1)], 1)),
    "C21_23": _link("{[2,1],[2,3]->(1)}", 1, dual="self",
                    cable=([(2, 1), (2, 3)], 1)),
    "C32_11": _link("{[1,1],[2,1]->(1) | ^1 [1,1]->(1)}", 2, dual="self",
                    lk=tree_linking_number([(1, 1), (2, 1)], [(1, 1)], 1)),
    "twist11": _link("twist [1,1] {[1,0]->(1)} ; vee {[2,1]->(1)}", 2,
                     dual="self", same_as="C32_11"),
    # colored
    "T32c11": _link("{[3,2]->(1,1)}", 1, cable=([(3, 2)], 2)),
    "mer11": _link("{[1,0]->(1,1)} ; vee {[1,0]->(1)}", 2,
                   lk=meridian_linking_number([(1, 0)]) * 2 * 1),
    "U11": _link("{[1,0]->(1,1)}", 1, unknot=True),
}

# The DAHA-vertex of the Hopf star {[1,-1]->(1,1) | [1,-1]->(1)}.
VERTICES = {
    "V11_1": {"colors": [[1, 1], [1]], "components": 2,
              "lk": tree_linking_number([(1, -1)], [(1, -1)], 1) * 2 * 1},
}


def _group(link, *follow):
    first = {"kind": "vertex" if link in VERTICES else "super", "id": link}
    return [first] + [dict(f, of=link) for f in follow]


ALEX = {"kind": "alexander"}
HOMFLY = {"kind": "homfly"}
EXTRA = {"kind": "extra_rank"}
DUALITY = {"kind": "check", "name": "duality"}
Q1 = {"kind": "check", "name": "q1"}


def lifts_at(rank):
    return {"kind": "check", "name": "lifts", "rank": rank}

WORKLOADS = {
    "uncolored_batch": [
        _group("T32", ALEX, HOMFLY, EXTRA, DUALITY),
        _group("T22", ALEX, HOMFLY, EXTRA, Q1),
        _group("T22neg", ALEX, HOMFLY),
        _group("chain3", ALEX, HOMFLY),
    ],
    "iterated_cables": [
        _group("C21_21", ALEX, EXTRA, lifts_at(1)),
        _group("C21_23", ALEX),
        _group("C32_11", ALEX),
        _group("twist11", ALEX),
    ],
    "colored_hopf": [
        _group("T32c11", ALEX, lifts_at(2)),
        _group("V11_1"),
        _group("mer11", ALEX),
        _group("U11", ALEX),
    ],
}


def operations(workload, seed):
    """The pass's operations, groups permuted by the seed, each op carrying
    what the child needs to run it."""
    groups = [list(g) for g in WORKLOADS[workload]]
    random.Random(seed).shuffle(groups)
    ops = []
    for group in groups:
        for op in group:
            op = dict(op)
            key = op.get("of", op.get("id"))
            if key in LINKS:
                op["dsl"] = LINKS[key]["dsl"]
            else:
                op["colors"] = VERTICES[key]["colors"]
            ops.append(op)
    return ops
