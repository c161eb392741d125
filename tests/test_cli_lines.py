"""Golden CLI output: what `check`, `tables`, `derive` and `roundtrip`
print and return.

Every enumerated model of every class up to size 4 is serialized to a file,
and so is a single-cell token edit of each table cell of that text: each
binary table cell of the models up to size 4 and each r and q cell of the
models up to size 3.  The edit puts in one other token, turning in the
cell's order through the other labels and the undefined token ``-``, so
edits of total tables reach the parser's errors and edits of the other
tables reach the validators and the maps.  The join table is edited in the
jsl models only: every other model carries the join table of a jsl model,
and the parser checks it before any other table.  The srs models are not
edited: they serialize as the rrs models do, under other names, so the
commands whose source class is srs read the rrs edits.

Each unedited model runs through ``ordalg.cli.main`` once per command of
``COMMANDS``; an edit runs through the commands that name its class: the
checks, maps and pairs that read it as their source class, and ``tables``
for the edits of jsl, ncis and rrs, which between them edit every binary
table.
On an edit, ``tables --op`` would print a part of what ``tables`` prints,
so it reads the unedited models only.  Each run gives one line

    <file> exit=<code> out=<stdout> err=<stderr>

with ``<file>`` the model name, plus ``<table>(<cell>)=<token>`` for an
edit, and the captured streams in ``repr`` form.  The fixture stores, per
command, the line count and the sha256 of the lines, as ``fail_lines.json``
does.

Regenerate the fixture, after checking that a change of output is meant,
with ``PYTHONPATH=src python tests/test_cli_lines.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from ordalg import ClassTag, SearchSpec, enumerate_models, serialize_algebra
from ordalg.cli import main

from test_fail_lines import _digest

FIXTURE = Path(__file__).parent / "fixtures" / "cli_lines.json"

# largest model size whose cells are edited, by table arity
MAX_SIZE = {"binary": 4, "ternary": 3}

# (command, classes whose edits it runs on): a check, a map or a pair reads
# the edits of its source class (rrs for srs)
COMMANDS = (
    *((["check", "--class", c], ("rrs" if c == "srs" else c,)) for c in
      ("jsl", "sectioned", "ncis", "rrs", "srs", "ialg", "ralg")),
    (["check", "--class", "ncis", "--props"], ("ncis",)),
    (["check", "--class", "rrs", "--props"], ("rrs",)),
    (["check", "--class", "rrs", "--subvariety"], ("rrs",)),
    (["check", "--class", "rrs", "--props", "--subvariety"], ("rrs",)),
    (["check", "--class", "ralg", "--subvariety"], ("ralg",)),
    (["tables"], ("jsl", "ncis", "rrs")),
    *((["tables", "--op", op], ()) for op in ("join", "meet", "imp", "prod")),
    (["derive", "--map", "A"], ("ncis",)),
    (["derive", "--map", "B"], ("rrs",)),
    (["derive", "--map", "I"], ("sectioned",)),
    (["derive", "--map", "J"], ("ialg",)),
    (["derive", "--map", "Q"], ("ralg",)),
    (["derive", "--map", "R"], ("rrs",)),
    (["derive", "--map", "S"], ("ncis",)),
    (["roundtrip", "--pair", "ncis-ialg"], ("ncis",)),
    (["roundtrip", "--pair", "ncis-rrs"], ("ncis",)),
    (["roundtrip", "--pair", "rrs-ralg"], ("rrs",)),
    (["roundtrip", "--pair", "sectioned-ncis"], ("sectioned",)),
    (["roundtrip", "--pair", "srs-rrs"], ("rrs",)),
)


def _edits(text: str, n: int, labels: list[str], tag: ClassTag):
    """(cell name, edited text) for one token edit of each table cell."""
    lines = text.splitlines(keepends=True)
    tokens = labels + ["-"]
    op, row, cell_no = None, 0, 0
    for at, line in enumerate(lines):
        words = line.split()
        if line.startswith("op "):
            op, row = words[1].rstrip(":"), 0
            continue
        if op is None or not line.startswith("  "):
            continue
        ternary = op in ("r", "q")
        if n > MAX_SIZE["ternary" if ternary else "binary"] or \
                (op == "join" and tag != ClassTag.JSL):
            continue
        # a ternary block k fixes the third argument: row `row` is (i, k)
        k, i = divmod(row, n)
        for j, old in enumerate(words):
            others = [t for t in tokens if t != old]
            new = others[cell_no % len(others)]
            cell_no += 1
            cell = [labels[i], labels[j]] + ([labels[k]] if ternary else [])
            edited = words[:j] + [new] + words[j + 1:]
            yield (f"{op}({','.join(cell)})={new}",
                   "".join(lines[:at]) + "  " + " ".join(edited) + "\n"
                   + "".join(lines[at + 1:]))
        row += 1


def _files():
    """(class, file name, edited?, text) of every model up to size 4 and of
    its edits."""
    for tag in ClassTag:
        for n in range(1, max(MAX_SIZE.values()) + 1):
            for alg in enumerate_models(SearchSpec(tag, n)):
                text = serialize_algebra(alg)
                yield tag.value, alg.name, False, text
                if tag == ClassTag.SRS:
                    continue
                for cell, edited in _edits(text, n, list(alg.labels), tag):
                    yield tag.value, f"{alg.name} {cell}", True, edited


def _run(argv: list[str], where: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue().replace(where, "<dir>"), err.getvalue().replace(where, "<dir>")


def cli_lines(workdir: Path) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {" ".join(c): [] for c, _ in COMMANDS}
    path = workdir / "model.alg"
    for tag, name, edited, text in _files():
        path.write_text(text, encoding="utf-8")
        for command, classes in COMMANDS:
            if edited and tag not in classes:
                continue
            rc, out, err = _run([command[0], str(path), *command[1:]], str(workdir))
            groups[" ".join(command)].append(f"{name} exit={rc} out={out!r} err={err!r}")
    return groups


def test_cli_lines_match_fixture(tmp_path):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert want["max_size"] == MAX_SIZE
    groups = cli_lines(tmp_path)
    assert sorted(groups) == sorted(want["groups"])
    for key, lines in groups.items():
        if _digest(lines) != want["groups"][key]:
            print(f"first differing group {key}: new lines follow")
            print("\n".join(lines))
            raise AssertionError(f"CLI lines of {key} differ from {FIXTURE.name}: "
                                 f"{_digest(lines)} != {want['groups'][key]}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        groups = cli_lines(Path(tmp))
    FIXTURE.write_text(json.dumps(
        {"max_size": MAX_SIZE,
         "groups": {key: _digest(lines) for key, lines in sorted(groups.items())}},
        indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}: {sum(len(v) for v in groups.values())} lines")
