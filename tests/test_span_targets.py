"""Every name the layer tracer in ``perfbench/spans.py`` wraps exists in
``poncelet``.

The tracer looks its targets up by (module, attribute) when it installs,
so a renamed or deleted function breaks only a traced benchmark run.  The
file is loaded by path and only read here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    if not SPANS.exists():
        pytest.skip("perfbench/spans.py is not in this checkout")
    spans = load_spans()
    targets = spans.SPAN_TARGETS + spans.COUNT_TARGETS
    assert ("ratpoly", "chain_next_vector") in targets
    for mod_name, attr in targets:
        owner = importlib.import_module(f"poncelet.{mod_name}")
        if "." in attr:
            # a method is wrapped as the class attribute of its own class
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{mod_name}.{attr}"
