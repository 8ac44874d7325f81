"""The benchmark's tracer (``perfbench/spans.py``) wraps program functions by
module or class attribute name. A rename or a removed import would silently
drop a span from ``--trace``, so every name it patches must still exist."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    table = spans.patch_table()
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        for owner, attr, _, _ in table
        if attr not in vars(owner)
    ]
    assert table
    assert missing == []
