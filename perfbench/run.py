"""Benchmark of dahalink: one workload per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; dahalink is imported from its
`src`.  A pass is one fresh child interpreter that computes the workload's
operations in the order the seed fixes.  Passes run one at a time until the
next one would end after S seconds.  Every output is checked by `oracles`;
an operation fails when it raises, is cut off by the per-pass limits, or
gives an output that fails its check.

With --trace 0 the last line reports the end-to-end metrics (median over
passes, except set-up, which is the first pass's cold start).  Times are
given at reference machine speed (`speed.py`): the host's speed drifts by
a third within a minute, and a raw wall time would measure that drift.
Each pass's raw times are printed on its progress line.  With
--trace 1 passes alternate between untraced and traced, and the last line
reports the per-layer metrics of the traced passes and the tracing overhead.
The last line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

import corpus  # noqa: E402
import oracles  # noqa: E402
from spans import METRICS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# A run must end within 180 s; a pass still going at this point is killed.
RUN_LIMIT_S = 170
# Limits every pass inherits from this process: a division that does not
# terminate ends as a failed operation instead of taking the machine down.
PASS_MEMORY_BYTES = 1 << 30
PASS_CPU_S = RUN_LIMIT_S
PYTHONHASHSEED = "0"


def set_limits():
    resource.setrlimit(resource.RLIMIT_AS,
                       (PASS_MEMORY_BYTES, PASS_MEMORY_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (PASS_CPU_S, PASS_CPU_S))


def run_pass(ops, trace_file, deadline):
    """Run one child pass; returns (lines by op index, ready, summary).

    A pass cut off by its limits has no summary of its own; one is made up
    from what it reported before it ended, and it is marked "cut"."""
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED,
               PYTHONDONTWRITEBYTECODE="1")
    spawn = time.time()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), SRC, repr(spawn),
         trace_file or "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(
            json.dumps(ops), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += "\npass killed at the run's time limit"
    ready, summary, lines = None, None, {}
    for raw in out.splitlines():
        rec = json.loads(raw)
        if "setup_s" in rec:
            ready = rec
        elif rec.get("done"):
            summary = rec
        else:
            lines[rec["i"]] = rec
    if summary is None and ready is not None:
        tail = err.strip().splitlines()[-1:]
        print(f"pass cut off (exit {proc.returncode}): {tail}")
        last = lines[max(lines)] if lines else {}
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # a cut pass reports no samples, so its raw time stands in
        wall_s = time.time() - spawn - ready["setup_s"]
        summary = {"cut": True, "wall_s": wall_s, "own_s": wall_s,
                   "wall_ref_s": wall_s,
                   "peak_rss_mb": rss_kb / 1024,
                   "rank_evals": last.get("rank_evals", 0)}
    elif ready is None:
        print(err, file=sys.stderr)
    return lines, ready, summary


# ---------------------------------------------------------------------------
# checking one pass

def _link_info(key):
    return corpus.LINKS.get(key) or corpus.VERTICES[key]


def check_op(op, out, results):
    """None if the output holds, else the reason.  `results` maps link ids
    to their parsed superpolynomials; a link whose op failed is absent."""
    kind = op["kind"]
    if kind in ("super", "vertex"):
        key = op["id"]
        info = _link_info(key)
        sup = results[key]
        reasons = []
        dual = info.get("dual")
        if dual is not None:
            partner = sup if dual == "self" else results.get(dual)
            reasons.append("dual partner failed" if partner is None
                           else oracles.check_dual(sup, partner))
        if "cable" in info:
            labels, boxes = info["cable"]
            reasons.append(oracles.check_alexander_cable(sup, labels, boxes))
        if "lk" in info:
            reasons.append(oracles.check_torres(sup, info["lk"],
                                                info["components"]))
        if info.get("unknot"):
            reasons.append(oracles.check_unknot(sup))
        if "same_as" in info:
            other = results.get(info["same_as"])
            if other is None or not oracles.same_up_to_unit(sup, other):
                reasons.append(f"differs from {info['same_as']}")
        if kind == "vertex":
            reasons.append(oracles.check_vertex_c(
                oracles.parse(out["c_num"]), sup))
        if not reasons:
            return "no check applies"
        return next((r for r in reasons if r is not None), None)
    key = op["of"]
    sup = results.get(key)
    if sup is None:
        return f"{key} failed"
    info = _link_info(key)
    if kind == "alexander":
        return oracles.check_alexander_op(oracles.parse(out["poly"]), sup,
                                          info["components"])
    if kind == "homfly":
        return oracles.check_homfly_op(oracles.parse(out["num"]),
                                       [tuple(a) for a in out["den"]], sup,
                                       info["components"])
    if kind == "extra_rank":
        return oracles.check_rank_value(oracles.parse(out["poly"]), sup,
                                        out["rank"])
    report = out["report"]
    if not report.get("ok"):
        return f"{op['name']} check reported failure"
    if op["name"] == "duality":
        return oracles.check_dual(sup, sup)
    if op["name"] == "q1":
        return oracles.check_q1(oracles.parse(report["lhs"]),
                                oracles.parse(report["rhs"]), sup)
    if op["name"] == "lifts":
        return oracles.check_rank_value(oracles.parse(report["base"]), sup,
                                        op["rank"])
    return f"no check for {op['name']}"


def check_pass(ops, lines):
    """(failed op count, wrong output count) for one pass; prints reasons."""
    results = {}
    for i, op in enumerate(ops):
        rec = lines.get(i, {})
        if op["kind"] in ("super", "vertex") and "out" in rec:
            results[op["id"]] = oracles.parse(rec["out"]["poly"])
    failed = wrong = 0
    for i, op in enumerate(ops):
        rec = lines.get(i)
        name = f"{op['kind']} {op.get('id', op.get('of'))}"
        if rec is None or "error" in rec:
            failed += 1
            print(f"FAILED {name}: "
                  f"{rec['error'] if rec else 'no result (pass cut off)'}")
            continue
        reason = check_op(op, rec["out"], results)
        if reason is not None:
            failed += 1
            wrong += 1
            print(f"WRONG {name}: {reason}")
    return failed, wrong


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dahalink", "__init__.py")):
        sys.exit(f"no dahalink sources under {SRC}")
    set_limits()

    ops = corpus.operations(args.workload, args.seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    attempted = failed = wrong = 0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        trace_file = None
        if traced:
            os.makedirs(OUT, exist_ok=True)
            trace_file = os.path.join(
                OUT, f"{args.workload}-seed{args.seed}-pass{len(passes) + 1}"
                     ".spans.json")
        t0 = time.monotonic()
        lines, ready, summary = run_pass(ops, trace_file, deadline)
        if ready is None:
            sys.exit("the pass did not start: dahalink failed to import")
        f, w = check_pass(ops, lines)
        attempted += len(ops)
        failed += f
        wrong += w
        passes.append({"traced": traced, "ready": ready, "summary": summary,
                       "took": time.monotonic() - t0})
        at_ref = (f" ({summary['wall_ref_s']:.3f} s at reference speed)"
                  if "wall_ref_s" in summary else "")
        print(f"pass {len(passes)}{' traced' if traced else ''}: "
              f"wall {summary['wall_s']:.3f} s{at_ref}, set-up "
              f"{ready['setup_s']:.3f} s ({ready['setup_ref_s']:.3f} s), "
              f"rss {summary['peak_rss_mb']:.1f} MB, "
              f"rank evals {summary['rank_evals']}, failed {f}")
        if summary.get("cut"):
            break
        elapsed = time.monotonic() - start
        longest = max(p["took"] for p in passes)
        both = not args.trace or len(passes) >= 2
        if both and elapsed + longest > args.seconds:
            break
        if elapsed + longest > RUN_LIMIT_S:
            break

    plain = [p["summary"] for p in passes if not p["traced"]]
    traced = [p["summary"] for p in passes
              if p["traced"] and not p["summary"].get("cut")]
    if args.trace:
        metrics = {}
        for layer, field in METRICS:
            name = f"{layer}.{field}"
            unit = "count" if field in ("calls", "failed") else \
                "ratio" if field == "useful_ratio" else "s"
            vals = [s["layers"][name] for s in traced] or [0]
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
        missing = sorted({m for s in traced for m in s["missing"]})
        for m in missing:
            print(f"MISSING wrapped function {m}")
        overhead = (statistics.median(s["wall_s"] for s in traced)
                    - statistics.median(s["own_s"] for s in plain)
                    if traced else 0.0)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.missing"] = {"value": len(missing), "unit": "count"}
    else:
        metrics = {
            "wall_ref_s": {"value": statistics.median(
                s["wall_ref_s"] for s in plain), "unit": "s"},
            "setup_s": {"value": passes[0]["ready"]["setup_ref_s"],
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                s["peak_rss_mb"] for s in plain), "unit": "MB"},
            "rank_evals": {"value": statistics.median_low(
                s["rank_evals"] for s in plain), "unit": "count"},
        }
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
