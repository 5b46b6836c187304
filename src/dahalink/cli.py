"""Console entry point: `dahalink super DSL` and `dahalink rank DSL M`.

Each command prints one JSON object on standard output.  The link is given
in the forest DSL or its JSON form (see `links.parse_dsl`).
"""

import argparse
import json

from .links import parse_dsl
from .pipeline import jd, superpolynomial
from .scalars import poly_text
from .weights import RankTooSmall


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="dahalink",
        description="Exact DAHA invariants of colored iterated torus links.")
    sub = ap.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("super", help="stabilized superpolynomial")
    sp.add_argument("link", help="link in the forest DSL or JSON")
    sp.add_argument("--norm", choices=("min", "none"), default="min")
    rp = sub.add_parser("rank", help="hat-normalized value at rank A_M")
    rp.add_argument("link", help="link in the forest DSL or JSON")
    rp.add_argument("rank", type=int, help="the rank M >= 1")
    args = ap.parse_args(argv)
    try:
        pair = parse_dsl(args.link)
    except (SyntaxError, ValueError) as e:
        ap.error(f"bad link: {e}")
    if args.command == "super":
        sup = superpolynomial(pair, args.norm)
        out = {"poly_text": poly_text(sup.poly), "ranks": list(sup.ranks),
               "verified_rank": sup.verified_rank, "deg_a": sup.deg_a}
    else:
        if args.rank < 1:
            ap.error("rank must be at least 1")
        try:
            inv = jd(pair, args.rank)
        except RankTooSmall as e:
            ap.error(str(e))
        out = {"poly_text": poly_text(inv.poly), "rank": args.rank}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
