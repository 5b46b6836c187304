"""The benchmark's per-layer spans still find the functions they wrap."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "perfbench", "spans.py")

# taken out of the pipeline on purpose; perfbench/spans.py still names them
REMOVED = {"scalars.factor_binomials", "scalars.Scal.inv"}


def _spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_place_resolves():
    # resolve by getattr alone: Tracer.install would patch the package
    missing = set()
    for places in _spans().LAYERS.values():
        for module, path in places:
            owner = importlib.import_module(f"dahalink.{module}")
            try:
                for part in path.split("."):
                    owner = getattr(owner, part)
            except AttributeError:
                missing.add(f"{module}.{path}")
    assert missing <= REMOVED
