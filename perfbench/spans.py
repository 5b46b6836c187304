"""Per-layer spans, recorded by wrapping dahalink's functions from outside.

Each layer function is replaced, at every place where callers look it up,
by a wrapper that records a span: name, start, end, parent span and whether
it raised.  Spans are kept in memory as parallel arrays and written out when
the pass ends.  A span's self time is its duration minus the time covered
by its child spans; a layer's total time counts only its outermost spans, so
recursion is not counted twice.
"""

from array import array
import importlib
import json
import time

# Layer name -> the (module, attribute path) places where callers look the
# function up.  `pipeline` imports pdivexact and gamma_hat_project by name,
# so those are patched there too.  `links` and `weights` are leaves that
# take under 1 % of any workload and are not wrapped.
LAYERS = {
    "scalars.pdivexact": [("scalars", "pdivexact"),
                          ("pipeline", "pdivexact")],
    "scalars.factor_binomials": [("scalars", "factor_binomials")],
    "scalars.Scal.inv": [("scalars", "Scal.inv")],
    "daha.gamma_hat_project": [("daha", "gamma_hat_project"),
                               ("pipeline", "gamma_hat_project")],
    "daha.t_op": [("daha", "Rep.t_op")],
    "daha.y_op": [("daha", "Rep.y_op")],
    "daha.coinvariant": [("daha", "Rep.coinvariant")],
    "macdonald.E": [("macdonald", "Mac.E")],
    "macdonald.symmetrize": [("macdonald", "Mac.symmetrize")],
    "macdonald.J": [("macdonald", "Mac.J")],
    "pipeline.pre_polynomial": [("pipeline", "pre_polynomial")],
    "pipeline.apply_fY": [("pipeline", "_apply_fY")],
    "pipeline.interpolate_a": [("pipeline", "_interpolate_a")],
    "pipeline.superpolynomial": [("pipeline", "superpolynomial")],
    "pipeline.spec": [("pipeline", "spec_alexander"),
                      ("pipeline", "spec_homfly")],
    "pipeline.checks": [("pipeline", "check_symmetries")],
}

# The metrics reported per layer: (layer, field).
METRICS = [
    ("scalars.pdivexact", "calls"), ("scalars.pdivexact", "failed"),
    ("scalars.pdivexact", "useful_ratio"), ("scalars.pdivexact", "s"),
    ("scalars.pdivexact", "failed_s"),
    ("scalars.factor_binomials", "calls"), ("scalars.factor_binomials", "s"),
    ("scalars.Scal.inv", "calls"), ("scalars.Scal.inv", "s"),
    ("daha.gamma_hat_project", "calls"), ("daha.gamma_hat_project", "s"),
    ("daha.gamma_hat_project", "self_s"),
    ("daha.t_op", "calls"), ("daha.t_op", "self_s"),
    ("daha.y_op", "calls"), ("daha.y_op", "s"),
    ("daha.coinvariant", "s"),
    ("macdonald.E", "calls"), ("macdonald.E", "s"),
    ("macdonald.symmetrize", "calls"), ("macdonald.symmetrize", "s"),
    ("macdonald.J", "calls"), ("macdonald.J", "s"),
    ("pipeline.pre_polynomial", "s"), ("pipeline.apply_fY", "s"),
    ("pipeline.interpolate_a", "calls"), ("pipeline.interpolate_a", "s"),
    ("pipeline.superpolynomial", "calls"),
    ("pipeline.spec", "s"), ("pipeline.checks", "s"),
]

FAILURE = "InexactDivision"


class Tracer:

    def __init__(self):
        self.names = list(LAYERS)
        self.name_ix = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("b")
        self.outer = array("b")
        self._stack = []
        self._active = [0] * len(self.names)
        self.missing = []

    def install(self, package):
        """Wrap every layer function; a place that no longer exists is
        recorded as missing and skipped."""
        for layer, places in LAYERS.items():
            ix = self.name_ix[layer]
            for module, path in places:
                try:
                    owner = importlib.import_module(f"{package}.{module}")
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module}.{path}")
                    continue
                setattr(owner, attr, self._wrap(fn, ix))

    def _wrap(self, fn, ix):
        clock = time.perf_counter
        stack = self._stack
        active = self._active

        def wrapper(*args, **kwargs):
            k = len(self.start)
            self.name.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.outer.append(active[ix] == 0)
            self.failed.append(0)
            self.end.append(0.0)
            stack.append(k)
            active[ix] += 1
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                if type(e).__name__ == FAILURE:
                    self.failed[k] = 1
                raise
            finally:
                self.end[k] = clock()
                active[ix] -= 1
                stack.pop()

        return wrapper

    def metrics(self):
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        agg = {name: {"calls": 0, "failed": 0, "s": 0.0, "failed_s": 0.0,
                      "self_s": 0.0} for name in self.names}
        for k in range(n):
            a = agg[self.names[self.name[k]]]
            dur = self.end[k] - self.start[k]
            a["calls"] += 1
            a["self_s"] += dur - child[k]
            if self.outer[k]:
                a["s"] += dur
            if self.failed[k]:
                a["failed"] += 1
                a["failed_s"] += dur
        for a in agg.values():
            a["useful_ratio"] = ((a["calls"] - a["failed"]) / a["calls"]
                                 if a["calls"] else 0.0)
        return {f"{layer}.{field}": agg[layer][field]
                for layer, field in METRICS}

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"names": self.names, "missing": self.missing,
                       "fields": ["name", "start", "end", "parent", "failed"],
                       "spans": list(zip(self.name, self.start, self.end,
                                         self.parent, self.failed))}, f)
