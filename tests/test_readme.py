"""README stays in step with the code: one Layout row per module, no name
in the Layout table that the code lacks, and every CLI subcommand shown in
use."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from ragroute.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ragroute"
README = (ROOT / "README.md").read_text(encoding="utf-8")
LAYOUT = README.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
# Backticked names in the Layout table that are not the program's: a JSON
# value, and the module the tests read the source with.
NOT_PROGRAM_NAMES = {"true", "ast"}


def layout_rows() -> list[str]:
    """The module named by each row of README's Layout table."""
    return re.findall(r"^\| `ragroute\.(\w+)` \|", LAYOUT, re.M)


def test_every_module_has_one_layout_row():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
    modules.remove("__init__")
    assert sorted(layout_rows()) == modules


def test_every_layout_name_is_in_the_source():
    """Each backticked Python name of the Layout table (an identifier, a
    dotted one, or the callee of a call) has every dotted part among the
    words of ``src/ragroute`` and its module names, so a helper that is
    deleted while it is still documented fails here."""
    words = {p.stem for p in PACKAGE.glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)(?:\([^`]*\))?`", LAYOUT))
    missing = sorted(n for n in names - NOT_PROGRAM_NAMES if not set(n.split(".")) <= words)
    assert len(names) > 90 and missing == []


def test_every_subcommand_is_shown_in_use():
    [subcommands] = [
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    missing = [c for c in subcommands if not re.search(rf"ragroute +{re.escape(c)}\b", README)]
    assert subcommands and not missing
