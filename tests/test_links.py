"""Link forests: parsing, cab parameters, moves, positivity, a-degrees."""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dahalink.links import (
    Path, ColoredForest, LinkPair, Vertex,
    NonCoprimeLabel, BadShareDepth, MoveNotApplicable,
    parse_dsl, to_dsl, to_json, cab_params, linking_number, trees,
    drop_r0, contract_r1, transpose_first, mirror, reorient,
    lower_twist, deg_a_bound, splice_export,
)
from degree import classify_positive, exact_deg_a


TREFOIL = "{[3,2]->(1)}"
TWO_TREFOIL = "{[3,2]->(1) | ^1 [3,2]->(1)}"
SHARED_R1 = "{[1,1],[3,2]->(1) | ^1 [1,1],[2,1]->(1)}"
# the paths through the r = 0 vertex sit in the middle of their root tree
MIDDLE_R0 = ("{[1,1],[2,1]->(1) | ^1 [1,1],[0,1],[3,2]->(1)"
             " | ^1 [1,1],[2,3]->(1)}")


# ---------------------------------------------------------------------------
# parsing and serialization

def test_parse_trefoil():
    pair = parse_dsl(TREFOIL)
    assert pair.second is None and not pair.vee and pair.twist is None
    (p,) = pair.first.paths
    assert p.labels == ((3, 2),) and p.color == (1,) and p.share == 0


def test_parse_two_fold():
    pair = parse_dsl(TWO_TREFOIL)
    assert len(pair.first.paths) == 2
    assert pair.first.paths[1].share == 1
    assert pair.first.incidence(0, 1) == 1


def test_parse_pair_with_vee():
    pair = parse_dsl("{[3,2]->(1)} ; vee {[1,0]->(1)}")
    assert pair.vee and pair.second.paths[0].labels == ((1, 0),)


def test_parse_twist_and_arrowhead():
    pair = parse_dsl("twist [2,1] {()->(2,1)}")
    assert pair.twist == (2, 1)
    assert pair.first.paths[0].labels == ()
    assert pair.first.paths[0].color == (2, 1)


def test_parse_default_share_is_common_prefix():
    pair = parse_dsl("{[3,2],[1,1]->(1) | [3,2],[1,2]->(2)}")
    assert pair.first.paths[1].share == 1


def test_parse_comments_and_whitespace():
    text = "# a knot\n{ [3, 2] -> (1) }  # trailing\n"
    assert parse_dsl(text) == parse_dsl(TREFOIL)


def test_parse_errors():
    with pytest.raises(SyntaxError):
        parse_dsl("{[3,2]->(1)")
    with pytest.raises(SyntaxError):
        parse_dsl("{[3,2]->(1)} extra")
    with pytest.raises(NonCoprimeLabel):
        parse_dsl("{[4,2]->(1)}")
    with pytest.raises(BadShareDepth):
        parse_dsl("{[3,2]->(1) | ^2 [3,2]->(1)}")
    with pytest.raises(BadShareDepth):
        parse_dsl("{[3,2]->(1) | ^1 [2,3]->(1)}")
    with pytest.raises(BadShareDepth, match="first path"):
        parse_dsl("{^1 [3,2]->(1)}")
    with pytest.raises(BadShareDepth):      # deeper than the previous path
        parse_dsl("{[3,2]->(1) | ^2 [3,2],[2,1]->(1)}")
    with pytest.raises(NonCoprimeLabel):
        parse_dsl("twist [2,4] {[3,2]->(1)}")
    for text in ("{[3,2]->(1,2)}", "{[3,2]->(0)}"):
        with pytest.raises(ValueError, match="bad diagram"):
            parse_dsl(text)
    for text, match in (("{[3,2]->(1)} $", "bad character"),
                        ("{[3,2]->[1]}", "expected '\\('"),
                        ("{[3,x]->(1)}", "expected integer")):
        with pytest.raises(SyntaxError, match=match):
            parse_dsl(text)


def test_vee_needs_partner():
    with pytest.raises(ValueError):
        LinkPair(parse_dsl(TREFOIL).first, None, vee=True)


labels_st = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
        lambda rs: math.gcd(*rs) == 1),
    min_size=0, max_size=3)
color_st = st.sampled_from([(1,), (2,), (1, 1), (2, 1), (3,)])


@st.composite
def forests(draw, min_paths=1):
    n = draw(st.integers(min_paths, 3))
    paths = []
    for j in range(n):
        lab = tuple(draw(labels_st))
        share = 0
        if j:
            prev = paths[-1].labels
            cap = 0
            while cap < min(len(prev), len(lab)) and prev[cap] == lab[cap]:
                cap += 1
            share = draw(st.integers(0, cap))
        paths.append(Path(lab, draw(color_st), share))
    return ColoredForest(tuple(paths))


@given(forests())
@settings(max_examples=60, deadline=None)
def test_dsl_roundtrip(forest):
    pair = LinkPair(forest)
    assert parse_dsl(to_dsl(pair)) == pair
    assert parse_dsl(to_json(pair)) == pair


def test_pair_roundtrip():
    for text in ["{[3,2]->(1)} ; vee {[1,0]->(1)}",
                 "twist [2,1] {[1,2]->(2)} ; vee {[3,4],[2,5]->(1,1)}",
                 "{()->(1) | ()->(2)}"]:
        pair = parse_dsl(text)
        assert parse_dsl(to_dsl(pair)) == pair
        assert parse_dsl(to_json(pair)) == pair


@pytest.mark.parametrize("text", [
    '5', '[1]', 'null', '"abc"', '{"components": 3}',
    '{"components": [3]}',
    '{"components": [[{"labels": []}]]}',
    '{"components": [[{"labels": [], "color": [1], "share": "x"}]]}',
    '{"components": [[{"labels": [[3]], "color": [1]}]]}',
    '{"components": [[{"labels": [[3, 2]], "color": ["1"]}]]}',
    '{"components": [[{"labels": [[3, 2]], "color": [1]}], '
    '[{"labels": [], "color": [1]}]], "vee": 1}',
    '{"components": [[{"labels": [[3, 2]], "color": [1]}]], "twist": 2}',
    '{"components": [[{"labels": 5, "color": [1]}]]}',
    '{"components": []}',
    '{"components": [[{"labels": [], "color": [1]}], '
    '[{"labels": [], "color": [1]}], [{"labels": [], "color": [1]}]]}',
])
def test_malformed_json_raises_syntax_error(text):
    with pytest.raises(SyntaxError):
        parse_dsl(text)


# ---------------------------------------------------------------------------
# cab parameters and linking numbers

# ---------------------------------------------------------------------------
# root trees

def _arrowheads(level, above=()):
    """(vertices on the way down, color) for each arrowhead, in order."""
    for tree in level:
        if isinstance(tree, Vertex):
            yield from _arrowheads(tree.below, above + (tree,))
        else:
            yield above, tree


@given(forests())
@settings(max_examples=60, deadline=None)
def test_trees_decode_the_paths(forest):
    heads = list(_arrowheads(trees(forest)))
    assert [c for _, c in heads] == [p.color for p in forest.paths]
    for (down, _), p in zip(heads, forest.paths):
        assert tuple(v.label for v in down) == p.labels
    for (prev, _), (down, _), p in zip(heads, heads[1:], forest.paths[1:]):
        shared = 0
        while (shared < min(len(prev), len(down))
               and prev[shared] is down[shared]):
            shared += 1
        assert shared == p.share


def test_trees_of_a_shared_root():
    forest = parse_dsl("{[3,2]->(1) | ^1 [3,2],[2,1]->(2) | ()->(1,1)}").first
    assert trees(forest) == (
        Vertex((3, 2), ((1,), Vertex((2, 1), ((2,),)))), (1, 1))


def test_cab_single_vertex():
    (row,) = cab_params(parse_dsl(TREFOIL).first)
    assert row == ((2, 3),)


def test_cab_iterated():
    # a_2 = a_1 r_1 r_2 + s_2
    (row,) = cab_params(parse_dsl("{[3,2],[2,1]->(1)}").first)
    assert row == ((2, 3), (13, 2))
    (row,) = cab_params(parse_dsl("{[2,1],[3,2]->(1)}").first)
    assert row == ((1, 2), (8, 3))


@given(forests())
@settings(max_examples=40, deadline=None)
def test_cab_prefix_stable(forest):
    rows = cab_params(forest)
    for p, row in zip(forest.paths, rows):
        longer = ColoredForest((Path(p.labels + ((5, 1),), p.color),))
        assert cab_params(longer)[0][:len(row)] == row


def test_linking_two_fold_trefoil():
    f = parse_dsl(TWO_TREFOIL).first
    assert linking_number(f, 0, 1) == 6
    with pytest.raises(ValueError, match="j != k"):
        linking_number(f, 1, 1)


def test_linking_cab_examples():
    f = parse_dsl("{[3,2],[1,1]->(1) | ^2 [3,2],[1,1]->(1)}").first
    assert linking_number(f, 0, 1) == 7          # Cab(7,1) of T(6,4)
    f = parse_dsl("{[2,1],[3,2]->(1) | ^1 [2,1]->(1)}").first
    assert linking_number(f, 0, 1) == 6


def test_linking_disjoint_is_zero():
    f = parse_dsl("{[3,2]->(1) | [2,3]->(1)}").first
    assert f.incidence(0, 1) == 0
    assert linking_number(f, 0, 1) == 0


# ---------------------------------------------------------------------------
# moves

def test_contract_r1():
    # [1,m] -> [3,2] becomes [3, 3m+2]
    for m in (0, 1, 5, -2):
        pair = parse_dsl("{[1,%d],[3,2]->(1)}" % m)
        out = contract_r1(pair, (0, 0, 1))
        assert out.first.paths[0].labels == ((3, 3 * m + 2),)


def test_contract_r1_shared():
    # the paths part at the [1,1] vertex, which carries their linking
    for dsl in (SHARED_R1, "{[1,1]->(1) | [1,1]->(1)}"):
        with pytest.raises(MoveNotApplicable):
            contract_r1(parse_dsl(dsl), (0, 0, 1))
    # s0 = 0 carries none, so the paths may part there
    out = contract_r1(parse_dsl("{[1,0],[3,2]->(1) | ^1 [1,0],[2,1]->(1)}"),
                      (0, 0, 1))
    assert [p.labels for p in out.first.paths] == [((3, 2),), ((2, 1),)]


def test_contract_r1_folds_into_a_shared_next_vertex():
    # every path keeps vertex 2, so s0 folds into it on each of them
    pair = parse_dsl("{[1,1],[3,2]->(1) | [1,1],[3,2],[2,1]->(1)"
                     " | ^2 [1,1],[3,2],[2,3]->(1)}")
    out = contract_r1(pair, (0, 0, 1))
    assert [p.labels for p in out.first.paths] == [
        ((3, 5),), ((3, 5), (2, 1)), ((3, 5), (2, 3))]
    assert [p.share for p in out.first.paths] == [0, 1, 1]
    assert _all_linking(out.first) == _all_linking(pair.first) == [30, 30, 60]


def test_transpose_first():
    out = transpose_first(parse_dsl(TREFOIL), (0, 0))
    assert out.first.paths[0].labels == ((2, 3),)


def test_drop_r0():
    pair = parse_dsl("{[0,1],[3,2]->(1) | ^1 [0,1]->(2)}")
    out = drop_r0(pair, (0, 0, 1))
    assert out.first.paths[0].labels == ((3, 2),)
    assert out.first.paths[1].labels == ()       # unknot arrowhead


def test_drop_r0_keeps_the_tree_of_a_middle_block():
    # the later path of the tree still shares [1,1] with the first path
    out = drop_r0(parse_dsl(MIDDLE_R0), (0, 1, 2))
    assert to_dsl(out) == "{[1,1],[2,1]->(1) | [1,1],[2,3]->(1) | [3,2]->(1)}"
    assert _all_linking(out.first) == [4, 0, 0]


def test_drop_r0_splits_subtree():
    # untouched deeper branch survives with its prefix intact
    pair = parse_dsl("{[2,1],[0,1]->(1) | ^1 [2,1],[3,2]->(1)}")
    out = drop_r0(pair, (0, 0, 2))
    assert out.first.paths[0].labels == ()
    assert out.first.paths[1].labels == ((2, 1), (3, 2))
    assert out.first.paths[1].share == 0


def test_mirror_negates_s():
    out = mirror(parse_dsl(TWO_TREFOIL))
    assert all(p.labels == ((3, -2),) for p in out.first.paths)


def test_reorient():
    out = reorient(parse_dsl(TREFOIL), [(0, 0)])
    assert out.first.paths[0].labels == ((-3, -2),)


def test_reorient_shared_vertex_guard():
    pair = parse_dsl(TWO_TREFOIL)
    with pytest.raises(MoveNotApplicable):
        reorient(pair, [(0, 0)])
    out = reorient(pair, [(0, 0), (0, 1)])
    assert all(p.labels == ((-3, -2),) for p in out.first.paths)
    # a longer path runs through the last vertex, before or after the path
    for dsl, site in (("{[3,2]->(1) | ^1 [3,2],[2,1]->(1)}", (0, 0)),
                      ("{[3,2],[2,1]->(1) | ^1 [3,2]->(1)}", (0, 1))):
        with pytest.raises(MoveNotApplicable, match="kept path"):
            reorient(parse_dsl(dsl), [site])


def test_move_not_applicable():
    pair = parse_dsl(TREFOIL)
    with pytest.raises(MoveNotApplicable):
        contract_r1(pair, (0, 0, 1))   # r = 3
    with pytest.raises(MoveNotApplicable):
        drop_r0(pair, (0, 0, 1))
    with pytest.raises(MoveNotApplicable):
        transpose_first(parse_dsl("{()->(1)}"), (0, 0))
    with pytest.raises(MoveNotApplicable, match="pure arrowhead"):
        reorient(parse_dsl("{()->(1)}"), [(0, 0)])


def test_moves_on_the_second_component():
    # each move edits the forest it names and leaves the other one
    pair = parse_dsl("{[3,2]->(1)} ; vee {[1,2],[2,1]->(1)}")
    first = pair.first
    cases = [(transpose_first(pair, (1, 0)), ((2, 1), (2, 1))),
             (contract_r1(pair, (1, 0, 1)), ((2, 5),)),
             (reorient(pair, [(1, 0)]), ((1, 2), (-2, -1)))]
    for out, labels in cases:
        assert out.first == first and out.vee
        assert out.second.paths[0].labels == labels
    out = mirror(pair)
    assert out.first.paths[0].labels == ((3, -2),)
    assert out.second.paths[0].labels == ((1, -2), (2, -1))


@pytest.mark.parametrize("move,site", [
    (reorient, [(1, 0, 1)]),        # a vertex site is not a path site
    (reorient, [5]),
    (reorient, [(2, 0)]),
    (transpose_first, (0, 3)),
    (transpose_first, (2, 0)),
    (transpose_first, (0, 0, 1)),
    (drop_r0, (2, 0, 1)),
    (contract_r1, (0, 3, 1)),
    (drop_r0, (0, 0, 2)),           # path 0 has one vertex
    (contract_r1, (1, 0, 0)),
])
def test_moves_reject_missing_sites(move, site):
    pair = parse_dsl("{[3,2]->(1) | [2,1]->(1)} ; vee {[2,1]->(1)}")
    with pytest.raises(MoveNotApplicable):
        move(pair, site)


def _all_linking(forest):
    n = len(forest.paths)
    return [linking_number(forest, j, k)
            for j in range(n) for k in range(j + 1, n)]


@given(forests(min_paths=2))
@example(parse_dsl("{[1,1]->(1) | [1,1]->(1)}").first)
@example(parse_dsl(SHARED_R1).first)
@example(parse_dsl(MIDDLE_R0).first)
@settings(max_examples=60, deadline=None)
def test_moves_preserve_linking(forest):
    pair = LinkPair(forest)
    base = _all_linking(forest)
    for j, p in enumerate(forest.paths):
        for i, (r, s) in enumerate(p.labels, start=1):
            if r == 1:
                try:
                    out = contract_r1(pair, (0, j, i))
                except MoveNotApplicable:
                    continue
                assert _all_linking(out.first) == base
            if r == 0:
                out = drop_r0(pair, (0, j, i))
                ref = dict(zip(_pairs(forest), [
                    0 if forest.incidence(a, b) >= i and
                    _through(forest, j, i, a, b) else v
                    for (a, b), v in zip(_pairs(forest), base)]))
                # drop_r0 may reorder the paths; colors that name each
                # path's index say where each one went
                tags = ColoredForest(tuple(replace(q, color=(k + 1,))
                                           for k, q in enumerate(
                                               forest.paths)))
                tagged = drop_r0(LinkPair(tags), (0, j, i)).first
                old = [q.color[0] - 1 for q in tagged.paths]
                assert sorted(old) == list(range(len(forest.paths)))
                for k, (q, t) in enumerate(zip(out.first.paths,
                                               tagged.paths)):
                    src = forest.paths[old[k]]
                    cut = i if _through(forest, j, i, old[k], old[k]) else 0
                    assert (q.labels, q.share, q.color) == \
                        (src.labels[cut:], t.share, src.color)
                for (a, b), v in zip(_pairs(out.first),
                                     _all_linking(out.first)):
                    assert v == ref[tuple(sorted((old[a], old[b])))]
        if p.labels:
            out = transpose_first(pair, (0, j))
            assert _all_linking(out.first) == base


def _pairs(forest):
    n = len(forest.paths)
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def _through(forest, j0, i, a, b):
    return forest.incidence(a, j0) >= i and forest.incidence(b, j0) >= i


# ---------------------------------------------------------------------------
# positivity and twisting

def test_classify_examples():
    assert classify_positive(parse_dsl(TREFOIL)) == "positive_tree"
    pair = parse_dsl("{[3,2]->(1)} ; vee {[1,0]->(1)}")
    assert classify_positive(pair) == "positive_pair"
    assert classify_positive(parse_dsl("{[1,-1]->(1)}")) == "generic"


def test_classify_pair_inequality():
    # 's_1 s_1 > 'r_1 r_1 required
    good = parse_dsl("{[2,3]->(1)} ; vee {[2,3]->(1)}")
    bad = parse_dsl("{[3,2]->(1)} ; vee {[3,2]->(1)}")
    assert classify_positive(good) == "positive_pair"
    assert classify_positive(bad) == "generic"
    no_vee = parse_dsl("{[2,3]->(1)} ; {[2,3]->(1)}")
    assert classify_positive(no_vee) == "generic"


def test_classify_twist():
    good = parse_dsl("twist [2,1] {[1,2]->(1)} ; vee {[1,2]->(1)}")
    bad = parse_dsl("twist [1,2] {[1,2]->(1)} ; vee {[2,1]->(1)}")
    assert classify_positive(good) == "positive_pair"
    assert classify_positive(bad) == "generic"


@given(forests())
@settings(max_examples=40, deadline=None)
def test_mirror_kills_positivity(forest):
    pair = LinkPair(forest)
    assume(any(p.labels for p in forest.paths))
    if classify_positive(pair) == "positive_tree":
        assert classify_positive(mirror(pair)) == "generic"


def test_lower_twist():
    pair = parse_dsl("twist [0,1] {[3,2]->(1)} ; vee {[2,1]->(1)}")
    low = lower_twist(pair)
    assert low.twist is None and low.vee
    assert low.second.paths[0].labels == ((1, 0), (2, 1))
    # without vee the prepended column is negated
    pair = parse_dsl("twist [0,1] {[3,2]->(1)} ; {[2,1]->(1)}")
    low = lower_twist(pair)
    assert low.second.paths[0].labels == ((-1, 0), (2, 1)) and low.vee


def test_lower_twist_empty_second():
    # parsed without vee, so the new column is negated
    low = lower_twist(parse_dsl("twist [3,2] {[2,1]->(1)}"))
    assert low.second.paths[0].labels == ((-2, -3),)
    assert low.second.paths[0].color == (1,)
    first = parse_dsl("{[2,1]->(1)}").first
    low = lower_twist(LinkPair(first, None, True, (3, 2)))
    assert low.second.paths[0].labels == ((2, 3),)


# ---------------------------------------------------------------------------
# a-degree

def test_deg_a_two_fold_trefoil():
    pair = parse_dsl(TWO_TREFOIL)
    assert exact_deg_a(pair, "min") == 3          # s(2|l|) - |l|
    assert deg_a_bound(pair, "min") == 5


def test_deg_a_cable_link():
    pair = parse_dsl("{[1,1],[3,2]->(1) | ^1 [1,1],[2,1]->(1)}")
    assert deg_a_bound(pair, "min") == exact_deg_a(pair, "min") == 4


def test_deg_a_unknot():
    pair = parse_dsl("{()->(1)}")
    assert deg_a_bound(pair, "min") == exact_deg_a(pair, "min") == 0


def test_deg_a_normalizations():
    pair = parse_dsl("{[3,2]->(2) | ^1 [3,2]->(1,1)}")
    b_min = deg_a_bound(pair, "min")
    b_jo = deg_a_bound(pair, ("j_o", 1))
    b_none = deg_a_bound(pair, "none")
    assert b_none - b_min == 3        # |(2) v (1,1)| = |(2,1)|
    assert b_none - b_jo == 2


def test_deg_a_counts_the_labels_after_the_last_r0_vertex():
    # by (4.4) the vertices up to an r = 0 vertex drop out
    assert deg_a_bound(parse_dsl("{[2,1],[0,1],[3,2]->(1)}")) == \
        deg_a_bound(parse_dsl(TREFOIL)) == 2
    pair = parse_dsl(MIDDLE_R0)
    assert deg_a_bound(pair) == deg_a_bound(drop_r0(pair, (0, 1, 2))) == 6


@given(forests())
@settings(max_examples=60, deadline=None)
def test_drop_r0_keeps_the_deg_a_bound(forest):
    pair = LinkPair(forest)
    for j, p in enumerate(forest.paths):
        for i, (r, _) in enumerate(p.labels, start=1):
            if r == 0:
                out = drop_r0(pair, (0, j, i))
                assert deg_a_bound(out) == deg_a_bound(pair), (j, i)


def test_deg_a_nonpositive_no_claim():
    pair = parse_dsl("{[1,-1]->(1) | ^1 [1,-1]->(1)}")
    assert exact_deg_a(pair, "min") is None
    assert deg_a_bound(pair, "min") == 1


# ---------------------------------------------------------------------------
# splice export

def test_splice_trefoil():
    text = splice_export(parse_dsl(TREFOIL))
    assert "node a=2 r=3" in text and text.count("arrow") == 1


def test_splice_hopf():
    text = splice_export(parse_dsl(
        "{[1,-1]->(1) | ^1 [1,-1]->(2) | ^1 [1,-1]->(1,1)}"))
    assert text.count("node") == 1 and "a=-1 r=1" in text
    assert text.count("arrow") == 3


def test_splice_pair():
    text = splice_export(parse_dsl("{[3,2]->(1)} ; vee {[1,0]->(1)}"))
    assert "arc vee" in text and text.count("node") == 2


# the full texts, as the forest's own scan of the share depths wrote them
SPLICE_TEXTS = {
    SHARED_R1:
        "splice\n  node a=1 r=1\n    node a=5 r=3\n      arrow (1)\n"
        "    node a=3 r=2\n      arrow (1)\n",
    "{[1,1]->(1) | ^0 [1,1]->(1)}":
        "splice\n  node a=1 r=1\n    arrow (1)\n  node a=1 r=1\n"
        "    arrow (1)\n",
    "twist [2,1] {[1,2]->(2)} ; vee {[3,4],[2,5]->(1,1)}":
        "splice\n  twist [2,1]\n  arc vee\n    node a=2 r=1\n"
        "      arrow (2)\n  --\n    node a=4 r=3\n      node a=29 r=2\n"
        "        arrow (1,1)\n",
}


@pytest.mark.parametrize("dsl", sorted(SPLICE_TEXTS))
def test_splice_text_pinned(dsl):
    assert splice_export(parse_dsl(dsl)) == SPLICE_TEXTS[dsl]


def test_splice_deterministic():
    pair = parse_dsl(TWO_TREFOIL)
    assert splice_export(pair) == splice_export(pair)
