"""The benchmark's span targets name functions that exist in the package.

``perfbench/spans.py`` wraps the functions its ``TARGETS`` name and skips,
as missing, any it cannot find, so a refactor that deletes a spanned function
leaves the benchmark running with a hole in its trace.  This resolves every
target the way ``Tracer.install`` does.  The comparison is exact, as in
``test_surface.py``: a deleted target joins the list below and fails here,
and a repaired one leaves it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

STALE = {  # spanned functions that later refactors removed
    "protocol.SamplesMsg.check_against",
    "protocol.SamplesMsg.to_vectors",
    "bitlin.add_column",
    "model.partition",
    "chform.CHForm.apply_h",
    "chform.CHForm.apply_cx",
    "experiments.parallel_map",
}


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def resolves(spans, target):
    """Whether ``Tracer.install`` finds the target: a method must be defined on its own class."""
    *owner_path, attr = target.attr.split(".")
    try:
        owner = importlib.import_module(f"{spans.PACKAGE}.{target.module}")
        for part in owner_path:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return attr in vars(owner)


def test_missing_targets_are_exactly_the_known_stale_ones(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = {t.name for t in spans.TARGETS if not resolves(spans, t)}
    assert missing == STALE
