"""Colored iterated torus links as labeled forests, plus their normalizer.

A link is a forest of [r,s]-labeled paths; each path ends in an arrowhead
carrying a Young-diagram color.  Incidence is stored as a per-path share
depth with the previous path, so the incidence number v(j,k) between paths
is the minimum share depth over the interval (j, k].  `trees` decodes the
share depths once into the forest's root trees, which the pipeline and the
splice export walk.  A LinkPair joins two forests (twisted union),
optionally reversing the second component (vee) or twisting by a coprime
column (alpha, beta).

Text format (whitespace-insensitive, # comments):

    linkfile  := ["twist" "[" INT "," INT "]"] component
                 [";" ["vee"] component]
    component := "{" pathline ("|" pathline)* "}"
    pathline  := ["^" INT] (labels | "()") "->" diagram
    labels    := "[" INT "," INT "]" ("," "[" INT "," INT "]")*
    diagram   := "(" INT ("," INT)* ")"

A JSON object with the same fields is accepted and emitted as well.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import reduce
from math import gcd, prod

from .weights import diagram_union


class NonCoprimeLabel(ValueError):
    pass


class BadShareDepth(ValueError):
    pass


class MoveNotApplicable(ValueError):
    pass


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class Path:
    labels: tuple          # ((r, s), ...), possibly empty (pure arrowhead)
    color: tuple           # Young diagram, weakly decreasing positive rows
    share: int = 0         # depth shared with the previous path

    def __post_init__(self):
        for r, s in self.labels:
            if gcd(r, s) != 1:
                raise NonCoprimeLabel(f"[{r},{s}]")
        if not all(v > 0 for v in self.color) or \
                any(a < b for a, b in zip(self.color, self.color[1:])):
            raise ValueError(f"bad diagram {self.color}")
        if self.share < 0 or self.share > len(self.labels):
            raise BadShareDepth(str(self.share))


@dataclass(frozen=True)
class ColoredForest:
    paths: tuple

    def __post_init__(self):
        if not self.paths:
            raise ValueError("a component needs at least one path")
        prev = None
        for p in self.paths:
            if prev is None:
                if p.share:
                    raise BadShareDepth("first path cannot share")
            else:
                if p.share > len(prev.labels):
                    raise BadShareDepth(str(p.share))
                if p.labels[:p.share] != prev.labels[:p.share]:
                    raise BadShareDepth("shared prefix labels differ")
            prev = p

    def incidence(self, j, k):
        """v(j,k): number of shared vertices between paths j and k."""
        if j == k:
            return len(self.paths[j].labels)
        lo, hi = min(j, k), max(j, k)
        return min(p.share for p in self.paths[lo + 1:hi + 1])


@dataclass(frozen=True)
class Vertex:
    """A splice vertex: its [r, s] label and the trees below it, each a
    Vertex or the color of a path that ends there."""
    label: tuple
    below: tuple


def trees(forest):
    """The root trees of a forest in path order, each a Vertex or the color
    of a path without labels.  Path k ends at the k-th color met in
    depth-first order, and the labels on the way down to it are its own."""
    paths = forest.paths

    def level(lo, hi, depth):
        out = []
        k = lo
        while k <= hi:
            p = paths[k]
            if len(p.labels) == depth:
                out.append(p.color)
                k += 1
                continue
            end = k
            while end < hi and paths[end + 1].share > depth:
                end += 1
            out.append(Vertex(p.labels[depth], level(k, end, depth + 1)))
            k = end + 1
        return tuple(out)

    return level(0, len(paths) - 1, 0)


@dataclass(frozen=True)
class LinkPair:
    first: ColoredForest
    second: ColoredForest = None
    vee: bool = False
    twist: tuple = None    # (alpha, beta) column

    def __post_init__(self):
        if self.twist is not None and gcd(*self.twist) != 1:
            raise NonCoprimeLabel(f"twist {self.twist}")
        if self.vee and self.second is None and self.twist is None:
            raise ValueError("vee needs a second component or twist")

    def forests(self):
        return (self.first,) if self.second is None else \
            (self.first, self.second)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s+|#[^\n]*|(->|-?\d+|[][(){},;|^]|\w+)")


def _tokenize(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise SyntaxError(f"bad character {text[pos]!r} at {pos}")
        if m.group(1):
            out.append((m.group(1), pos))
        pos = m.end()
    return out


def _default_share(prev, labels):
    """The share a path gets when none is written: the longest common prefix
    of its labels with the previous path's (prev is () for the first)."""
    share = 0
    while share < min(len(prev), len(labels)) and prev[share] == labels[share]:
        share += 1
    return share


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self, want=None):
        if self.i >= len(self.toks):
            raise SyntaxError(f"unexpected end of input, expected {want}")
        tok, pos = self.toks[self.i]
        if want is not None and tok != want:
            raise SyntaxError(f"expected {want!r} at {pos}, got {tok!r}")
        self.i += 1
        return tok

    def int_(self):
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise SyntaxError(f"expected integer, got {tok!r}") from None

    def pair(self, close="]"):
        self.take("[")
        r = self.int_()
        self.take(",")
        s = self.int_()
        self.take(close)
        return (r, s)

    def pathline(self, prev):
        share = None
        if self.peek() == "^":
            self.take()
            share = self.int_()
        labels = []
        if self.peek() == "(":
            self.take("(")
            self.take(")")
        else:
            labels.append(self.pair())
            while self.peek() == ",":
                self.take()
                labels.append(self.pair())
        self.take("->")
        self.take("(")
        color = [self.int_()]
        while self.peek() == ",":
            self.take()
            color.append(self.int_())
        self.take(")")
        labels = tuple(labels)
        if share is None:
            share = _default_share(prev, labels)
        return Path(labels, tuple(color), share)

    def component(self):
        self.take("{")
        paths = [self.pathline(())]
        while self.peek() == "|":
            self.take()
            paths.append(self.pathline(paths[-1].labels))
        self.take("}")
        return ColoredForest(tuple(paths))

    def linkfile(self):
        twist = None
        if self.peek() == "twist":
            self.take()
            a, b = self.pair()
            twist = (a, b)
        first = self.component()
        second, vee = None, False
        if self.peek() == ";":
            self.take()
            if self.peek() == "vee":
                self.take()
                vee = True
            second = self.component()
        if self.i < len(self.toks):
            raise SyntaxError(f"trailing input at {self.toks[self.i][1]}")
        return LinkPair(first, second, vee, twist)


def _json_ints(v, what, size=None):
    """v as a tuple of ints; anything else raises SyntaxError."""
    if (type(v) is not list or any(type(x) is not int for x in v)
            or size is not None and len(v) != size):
        count = "" if size is None else f"{size} "
        raise SyntaxError(f"{what} must be a list of {count}integers, "
                          f"not {v!r}")
    return tuple(v)


def _json_path(p):
    if type(p) is not dict or "labels" not in p or "color" not in p:
        raise SyntaxError(f"a path needs labels and a color, not {p!r}")
    if type(p["labels"]) is not list:
        raise SyntaxError(f"labels must be a list, not {p['labels']!r}")
    share = p.get("share", 0)
    if type(share) is not int:
        raise SyntaxError(f"share must be an integer, not {share!r}")
    return Path(tuple(_json_ints(l, "a label", 2) for l in p["labels"]),
                _json_ints(p["color"], "a color"), share)


def _from_json(obj):
    """The JSON form of `to_json` as a LinkPair; a field of the wrong shape
    raises SyntaxError."""
    if type(obj) is not dict or type(obj.get("components")) is not list:
        raise SyntaxError("a JSON link is an object with a list of "
                          "components")
    comps = []
    for comp in obj["components"]:
        if type(comp) is not list:
            raise SyntaxError(f"a component is a list of paths, not {comp!r}")
        comps.append(ColoredForest(tuple(map(_json_path, comp))))
    if not 1 <= len(comps) <= 2:
        raise SyntaxError("need one or two components")
    vee = obj.get("vee", False)
    if type(vee) is not bool:
        raise SyntaxError(f"vee must be true or false, not {vee!r}")
    twist = obj.get("twist")
    return LinkPair(comps[0], comps[1] if len(comps) > 1 else None, vee,
                    None if twist is None else _json_ints(twist, "twist", 2))


def parse_dsl(text):
    try:
        obj = json.loads(text)
    except ValueError:
        return _Parser(text).linkfile()
    return _from_json(obj)


def to_dsl(pair):
    def comp(forest):
        lines, prev = [], ()
        for p in forest.paths:
            lab = ",".join(f"[{r},{s}]" for r, s in p.labels) or "()"
            mark = "" if p.share == _default_share(prev, p.labels) \
                else f"^{p.share} "
            lines.append(f"{mark}{lab}->({','.join(map(str, p.color))})")
            prev = p.labels
        return "{" + " | ".join(lines) + "}"

    out = ""
    if pair.twist:
        out += f"twist [{pair.twist[0]},{pair.twist[1]}] "
    out += comp(pair.first)
    if pair.second is not None:
        out += " ; " + ("vee " if pair.vee else "") + comp(pair.second)
    return out


def to_json(pair):
    return json.dumps({
        "twist": list(pair.twist) if pair.twist else None,
        "vee": pair.vee,
        "components": [[{"share": p.share,
                         "labels": [list(l) for l in p.labels],
                         "color": list(p.color)} for p in f.paths]
                       for f in pair.forests()]})


# ---------------------------------------------------------------------------
# cab parameters and linking numbers


def cab_params(forest):
    """Per-path cable parameters (a_i, r_i): a_1 = s_1, a_i = a_{i-1}
    r_{i-1} r_i + s_i.  Shared prefixes produce identical values."""
    out = []
    for p in forest.paths:
        row, a = [], 0
        for i, (r, s) in enumerate(p.labels):
            a = s if i == 0 else a * p.labels[i - 1][0] * r + s
            row.append((a, r))
        out.append(tuple(row))
    return tuple(out)


def linking_number(forest, j, k):
    if j == k:
        raise ValueError("j != k required")
    io = forest.incidence(j, k)
    if io == 0:
        return 0
    a, r = cab_params(forest)[j][io - 1]
    tail = lambda p: prod(rr for rr, _ in p.labels[io:])
    return a * r * tail(forest.paths[j]) * tail(forest.paths[k])


# ---------------------------------------------------------------------------
# moves

def _block(forest, j, depth):
    """Contiguous range of paths sharing vertex `depth` with path j."""
    lo = hi = j
    while lo > 0 and forest.paths[lo].share >= depth:
        lo -= 1
    while hi + 1 < len(forest.paths) and forest.paths[hi + 1].share >= depth:
        hi += 1
    return lo, hi


def _edit(pair, comp, forest):
    if comp == 0:
        return replace(pair, first=forest)
    return replace(pair, second=forest)


def _path_site(pair, site):
    """The (comp, j) of a path given as j, (j,) or (comp, j)."""
    site = tuple(site) if isinstance(site, (tuple, list)) else (site,)
    if len(site) == 1:
        site = (0,) + site
    forests = pair.forests()
    if len(site) != 2 or site[0] not in range(len(forests)) or \
            site[1] not in range(len(forests[site[0]].paths)):
        raise MoveNotApplicable(f"no path at {site}")
    return site


def _site(pair, site):
    *path, i = site
    comp, j = _path_site(pair, path)
    forest = pair.forests()[comp]
    if i not in range(1, len(forest.paths[j].labels) + 1):
        raise MoveNotApplicable(f"no vertex at {site}")
    return comp, forest, j, i


def drop_r0(pair, site):
    """Delete vertices 1..i0 from every path through an r=0 vertex (4.4).

    The paths through it become a root tree of their own.  Where they sit
    inside their root tree, the tree's later paths move up ahead of them,
    so that those still share with the paths before the vertex."""
    comp, forest, j, i = _site(pair, site)
    if forest.paths[j].labels[i - 1][0] != 0:
        raise MoveNotApplicable("r != 0")
    lo, hi = _block(forest, j, i)
    paths = forest.paths
    block = [Path(p.labels[i:], p.color, p.share - i if k else 0)
             for k, p in enumerate(paths[lo:hi + 1])]
    end = hi + 1
    while end < len(paths) and paths[end].share:
        end += 1
    later = list(paths[hi + 1:end])
    inside = paths[lo].share > 0
    if later:
        # the prefix they shared with the block is gone
        share = forest.incidence(lo - 1, hi + 1) if inside else 0
        later[0] = replace(later[0], share=share)
    moved = later + block if inside else block + later
    return _edit(pair, comp,
                 ColoredForest(paths[:lo] + tuple(moved) + paths[end:]))


def contract_r1(pair, site):
    """Remove an r=1 vertex, folding its s into the next one (4.5).

    Paths of the block that part at vertex i link through it; when s0 != 0
    the contraction would lose that linking, so it is refused there.
    """
    comp, forest, j, i = _site(pair, site)
    if forest.paths[j].labels[i - 1][0] != 1:
        raise MoveNotApplicable("r != 1")
    lo, hi = _block(forest, j, i)
    s0 = forest.paths[j].labels[i - 1][1]
    if s0 and any(forest.paths[k].share == i for k in range(lo + 1, hi + 1)):
        raise MoveNotApplicable("paths part at the contracted vertex")
    paths = []
    for k, p in enumerate(forest.paths):
        if lo <= k <= hi:
            lab = list(p.labels)
            del lab[i - 1]
            if i - 1 < len(lab):
                r1, s1 = lab[i - 1]
                lab[i - 1] = (r1, s1 + s0 * r1)
            share = p.share - 1 if p.share >= i else p.share
            p = Path(tuple(lab), p.color, share)
        paths.append(p)
    return _edit(pair, comp, ColoredForest(tuple(paths)))


def transpose_first(pair, site=(0, 0)):
    """Swap [r1,s1] at the initial vertex of the subtree of a path (4.6)."""
    comp, j = _path_site(pair, site)
    forest = pair.forests()[comp]
    if not forest.paths[j].labels:
        raise MoveNotApplicable("pure arrowhead")
    lo, hi = _block(forest, j, 1)
    paths = []
    for k, p in enumerate(forest.paths):
        if lo <= k <= hi:
            r, s = p.labels[0]
            p = replace(p, labels=((s, r),) + p.labels[1:])
        paths.append(p)
    return _edit(pair, comp, ColoredForest(tuple(paths)))


def mirror(pair):
    """Mirror image: negate every s (4.8)."""
    def neg(forest):
        return ColoredForest(tuple(
            replace(p, labels=tuple((r, -s) for r, s in p.labels))
            for p in forest.paths))
    out = replace(pair, first=neg(pair.first))
    if pair.second is not None:
        out = replace(out, second=neg(pair.second))
    return out


def reorient(pair, sites):
    """Reverse the selected components: negate [r,s] at the last vertex of
    each selected path (4.9 with i = l, a single orientation change)."""
    sites = {_path_site(pair, s) for s in sites}
    forests = list(pair.forests())
    done = set()
    for comp, j in sorted(sites):
        if (comp, j) in done:
            continue
        forest = forests[comp]
        p = forest.paths[j]
        if not p.labels:
            raise MoveNotApplicable("pure arrowhead")
        lo, hi = _block(forest, j, len(p.labels))
        block = range(lo, hi + 1)
        if any((comp, k) not in sites
               or len(forest.paths[k].labels) > len(p.labels)
               for k in block):
            raise MoveNotApplicable("last vertex shared with kept path")
        paths = list(forest.paths)
        for k in block:
            q = paths[k]
            r, s = q.labels[-1]
            paths[k] = replace(q, labels=q.labels[:-1] + ((-r, -s),))
            done.add((comp, k))
        forests[comp] = ColoredForest(tuple(paths))
    out = replace(pair, first=forests[0])
    if pair.second is not None:
        out = replace(out, second=forests[1])
    return out


# ---------------------------------------------------------------------------
# twisting, normalization, a-degree


def lower_twist(pair):
    """Replace a twist column (alpha, beta) by the vertex [beta, alpha]
    prepended to every path of the second component (9.12); the result is
    a plain vee-pair ([-beta, -alpha] when vee was not requested)."""
    if pair.twist is None:
        return pair
    alpha, beta = pair.twist
    if not pair.vee:
        alpha, beta = -alpha, -beta
    second = pair.second or ColoredForest((Path((), (1,)),))
    paths = tuple(replace(p, labels=((beta, alpha),) + p.labels,
                          share=p.share + 1 if i else 0)
                  for i, p in enumerate(second.paths))
    return LinkPair(pair.first, ColoredForest(paths), True, None)


def norm_diagram(pair, norm):
    """The diagram whose J-evaluation normalizes the pair.

    "min" takes the union of all colors, "none" the empty diagram and
    ("j_o", idx) the color of the idx-th path (first tree, then second),
    for an int 0 <= idx < the number of paths.
    """
    colors = [p.color for f in pair.forests() for p in f.paths]
    if norm == "min":
        return reduce(diagram_union, colors, ())
    if norm == "none":
        return ()
    if isinstance(norm, tuple) and len(norm) == 2 and norm[0] == "j_o":
        idx = norm[1]
        if isinstance(idx, int) and not isinstance(idx, bool) and \
                0 <= idx < len(colors):
            return colors[idx]
    raise ValueError(f"bad normalization {norm!r}")


def deg_a_bound(pair, normalization="min"):
    """The a-degree bound (5.40) of the superpolynomial.

    A path counts its boxes times the |r| of its labels after its last
    r = 0 vertex: by (4.4), the vertices up to that one can be dropped."""
    pair = lower_twist(pair)
    bound = -sum(norm_diagram(pair, normalization))
    for f in pair.forests():
        for p in f.paths:
            rs = [abs(r) for r, _ in p.labels]
            while 0 in rs:
                rs = rs[rs.index(0) + 1:]
            bound += prod(rs) * sum(p.color)
    return bound


# ---------------------------------------------------------------------------
# splice export


def _splice_tree(forest, out, indent):
    def emit(tree, a, r, pad):
        if not isinstance(tree, Vertex):
            out.append(f"{pad}arrow ({','.join(map(str, tree))})")
            return
        r1, s = tree.label
        a = a * r * r1 + s          # the cab parameter (`cab_params`)
        out.append(f"{pad}node a={a} r={r1}")
        for sub in tree.below:
            emit(sub, a, r1, pad + "  ")

    for tree in trees(forest):
        emit(tree, 0, 0, indent)


def splice_export(pair):
    """Deterministic indented splice diagram; pairs are joined through the
    arc / intermediate-node convention of (4.13)."""
    out = ["splice"]
    if pair.twist:
        out.append(f"  twist [{pair.twist[0]},{pair.twist[1]}]")
    if pair.second is None and pair.twist is None:
        _splice_tree(pair.first, out, "  ")
    else:
        out.append("  arc" + (" vee" if pair.vee else ""))
        _splice_tree(pair.first, out, "    ")
        if pair.second is not None:
            out.append("  --")
            _splice_tree(pair.second, out, "    ")
    return "\n".join(out) + "\n"
