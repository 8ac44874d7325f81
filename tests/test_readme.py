"""README stays in step with the code: one Layout row per module, and every
CLI subcommand shown in use."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from ragroute.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def layout_rows() -> list[str]:
    """The module named by each row of README's Layout table."""
    section = README.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `ragroute\.(\w+)` \|", section, re.M)


def test_every_module_has_one_layout_row():
    modules = sorted(p.stem for p in (ROOT / "src" / "ragroute").glob("*.py"))
    modules.remove("__init__")
    assert sorted(layout_rows()) == modules


def test_every_subcommand_is_shown_in_use():
    [subcommands] = [
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    missing = [c for c in subcommands if not re.search(rf"ragroute +{re.escape(c)}\b", README)]
    assert subcommands and not missing
