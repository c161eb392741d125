"""Golden CLI output of `con FILE --report full`.

Three groups of files run through ``ordalg.cli.main``:

* ``models``: every ialg and ralg model up to size ``MAX_SIZE["models"]``,
  serialized to a file;
* ``edits``: each single-token edit of the ``imp``, ``r`` and ``q`` blocks
  of those files up to size ``MAX_SIZE["edits"]``, one per cell and other
  element label.  The edits still parse and are total algebras, mostly
  outside the variety, so every verdict and witness of ``con`` is reached;
* ``trivial_r``: the serialized ``_trivial_r_family`` of
  ``test_congruence.py``, on which all three verdicts fail.

Each run gives one line

    <file> exit=<code> out=<stdout> err=<stderr>

with ``<file>`` the model name, plus ``<table>(<cell>)=<token>`` for an
edit, and the captured streams in ``repr`` form.  The fixture stores, per
group, the line count and the sha256 of the lines, as ``cli_lines.json``
does.

Regenerate the fixture, after checking that a change of output is meant,
with ``PYTHONPATH=src python tests/test_con_lines.py``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from ordalg import ClassTag, SearchSpec, enumerate_models, serialize_algebra

from test_cli_lines import _run
from test_congruence import _trivial_r_family
from test_fail_lines import _digest

FIXTURE = Path(__file__).parent / "fixtures" / "con_lines.json"

# largest model size run as it is, and largest whose tables are edited
MAX_SIZE = {"models": 6, "edits": 3}

EDITED = ("imp", "r", "q")


def _edits(text: str, n: int, labels: list[str]):
    """(cell name, edited text) for each other label in each cell of the
    edited tables."""
    lines = text.splitlines(keepends=True)
    op, row = None, 0
    for at, line in enumerate(lines):
        words = line.split()
        if line.startswith("op "):
            op, row = words[1].rstrip(":"), 0
            continue
        if op not in EDITED or not line.startswith("  "):
            continue
        # a ternary block k fixes the third argument: row `row` is (i, k)
        k, i = divmod(row, n)
        for j, old in enumerate(words):
            cell = [labels[i], labels[j]] + ([labels[k]] if op != "imp" else [])
            for new in labels:
                if new == old:
                    continue
                edited = words[:j] + [new] + words[j + 1:]
                yield (f"{op}({','.join(cell)})={new}",
                       "".join(lines[:at]) + "  " + " ".join(edited) + "\n"
                       + "".join(lines[at + 1:]))
        row += 1


def _files():
    """(group, file name, text) of every file `con` runs on."""
    for tag in (ClassTag.IALG, ClassTag.RALG):
        for n in range(1, MAX_SIZE["models"] + 1):
            for alg in enumerate_models(SearchSpec(tag, n)):
                text = serialize_algebra(alg)
                yield "models", alg.name, text
                if n <= MAX_SIZE["edits"]:
                    for cell, edited in _edits(text, n, list(alg.labels)):
                        yield "edits", f"{alg.name} {cell}", edited
    for alg in _trivial_r_family():
        yield "trivial_r", alg.name, serialize_algebra(alg)


def con_lines(workdir: Path) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {"models": [], "edits": [], "trivial_r": []}
    path = workdir / "model.alg"
    for group, name, text in _files():
        path.write_text(text, encoding="utf-8")
        rc, out, err = _run(["con", str(path), "--report", "full"], str(workdir))
        groups[group].append(f"{name} exit={rc} out={out!r} err={err!r}")
    return groups


def test_con_lines_match_fixture(tmp_path):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert want["max_size"] == MAX_SIZE
    groups = con_lines(tmp_path)
    assert sorted(groups) == sorted(want["groups"])
    for key, lines in groups.items():
        if _digest(lines) != want["groups"][key]:
            print(f"first differing group {key}: new lines follow")
            print("\n".join(lines))
            raise AssertionError(f"con lines of {key} differ from {FIXTURE.name}: "
                                 f"{_digest(lines)} != {want['groups'][key]}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        groups = con_lines(Path(tmp))
    FIXTURE.write_text(json.dumps(
        {"max_size": MAX_SIZE,
         "groups": {key: _digest(lines) for key, lines in sorted(groups.items())}},
        indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}: {sum(len(v) for v in groups.values())} lines")
