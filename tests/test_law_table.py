"""The law table is the one place that turns a violation into a `Report`."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import ordalg

SRC = Path(ordalg.__file__).parent
REPORT_CALL = re.compile(r"Report\.(failing|passing)\(")


def _evaluate_lines() -> range:
    tree = ast.parse((SRC / "laws.py").read_text(encoding="utf-8"))
    node = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "evaluate")
    return range(node.lineno, node.end_lineno + 1)


def test_reports_are_built_only_by_evaluate():
    inside = _evaluate_lines()
    stray = [f"{path.name}:{no}: {line.strip()}"
             for path in sorted(SRC.glob("*.py"))
             for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if REPORT_CALL.search(line)
             and not (path.name == "laws.py" and no in inside)]
    assert stray == []
