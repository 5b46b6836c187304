"""One pass: a fresh interpreter that computes one workload's operations.

    child.py SRC SPAWN_TIME TRACE_FILE|-  < operations.json

Prints a first JSON line with the set-up time, from SPAWN_TIME (the
parent's wall clock just before it started this process) to the end of
`import dahalink`; then one line per operation as it finishes; then a
summary with the pass's wall time from the end of set-up to the last
result, its peak RSS and its fixed-rank evaluation count.  Set-up and an
untraced pass are also given at reference machine speed (`speed.py`),
from a burst of fixed arithmetic timed every 50 ms while they run.
With a TRACE_FILE the layer functions are wrapped and their spans written
there, and the pass is not sampled, so that no burst falls in a span.
"""

import json
import os
import resource
import sys
import time

from speed import Sampler


def main():
    src, spawn_time, trace_file = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    before_s = time.time() - spawn_time
    setup_sampler = Sampler()
    setup_sampler.start()
    ops = json.load(sys.stdin)
    sys.path.insert(0, src)
    from dahalink import pipeline as pl
    from dahalink.links import parse_dsl, lower_twist
    from dahalink.scalars import poly_text
    setup_s = time.time() - spawn_time
    setup_sampler.stop()
    setup_ref_s = setup_sampler.normalized(before_s)
    here = os.path.realpath(pl.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"dahalink imported from {here}, not from {src}")
    print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}),
          flush=True)

    tracer = None
    if trace_file != "-":
        from spans import Tracer
        tracer = Tracer()
        tracer.install("dahalink")
    rank_evals = 0
    jd = pl.jd

    def counted_jd(*args, **kwargs):
        nonlocal rank_evals
        rank_evals += 1
        return jd(*args, **kwargs)

    pl.jd = counted_jd

    def run(op, sups):
        kind = op["kind"]
        if kind == "super":
            s = pl.superpolynomial(parse_dsl(op["dsl"]))
            sups[op["id"]] = s
            return {"poly": poly_text(s.poly)}
        if kind == "vertex":
            v = pl.hopf_vertex(tuple(tuple(c) for c in op["colors"]))
            sups[op["id"]] = v.super
            return {"poly": poly_text(v.super.poly),
                    "c_num": poly_text(v.c_num)}
        s = sups[op["of"]]
        if kind == "alexander":
            return {"poly": poly_text(pl.spec_alexander(s))}
        if kind == "homfly":
            h = pl.spec_homfly(s)
            return {"num": poly_text(h.num), "den": [list(a) for a in h.den]}
        if kind == "extra_rank":
            m = s.verified_rank + 1
            return {"rank": m,
                    "poly": poly_text(pl.jd(lower_twist(s.link), m).poly)}
        if kind == "check":
            rep = pl.check_symmetries(s.link, [op["name"]],
                                      rank=op.get("rank", 1), sup=s)
            return {"report": rep[op["name"]]}
        raise ValueError(f"unknown operation {kind!r}")

    sups = {}
    sampler = None
    if tracer is None:
        sampler = Sampler()
        sampler.start()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        try:
            line = {"i": i, "out": run(op, sups)}
        except Exception as e:  # an operation that raises counts as failed
            line = {"i": i, "error": f"{type(e).__name__}: {e}"[:300]}
        line["rank_evals"] = rank_evals
        print(json.dumps(line), flush=True)
    wall_s = time.perf_counter() - t0
    if sampler is not None:
        sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = {"done": True, "wall_s": wall_s,
               "peak_rss_mb": rss_mb, "rank_evals": rank_evals}
    if sampler is not None:
        summary["own_s"] = sampler.own_s()
        summary["wall_ref_s"] = sampler.normalized()
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        summary["missing"] = tracer.missing
        tracer.write(trace_file)
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
