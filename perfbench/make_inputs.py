"""Write the inputs of con-sweep and check-mix.

    python3 perfbench/make_inputs.py --seed N --out DIR

``DIR/corpus/<class>/`` holds every model of every class at sizes 1-7, as
``ordalg search --class <class> --size 7 --upto --out`` writes it; it does
not depend on the seed and is written only when missing.
``DIR/seed-N/`` holds the single-cell mutations drawn from the seed and
``manifest.json``, the check-mix operations in their seeded order.  File
paths in the manifest are relative to DIR.  Serialization is canonical and
every draw comes from one seeded generator, so running the command again
gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

from workloads import CLASSES, MAX_SIZE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Valid-file operations per class: (kind, arguments after the file).  The
# first entry is the class check, which a mutation of that class also runs.
VERBS = {
    "jsl": [("check", ["--class", "jsl"]), ("tables", [])],
    "sectioned": [("check", ["--class", "sectioned"]), ("derive", ["--map", "I"]),
                  ("roundtrip", ["--pair", "sectioned-ncis"]), ("tables", [])],
    "ncis": [("check", ["--class", "ncis", "--props"]), ("derive", ["--map", "A"]),
             ("roundtrip", ["--pair", "ncis-ialg"]), ("roundtrip", ["--pair", "ncis-rrs"]),
             ("tables", [])],
    "rrs": [("check", ["--class", "rrs", "--props", "--subvariety"]),
            ("derive", ["--map", "B"]), ("roundtrip", ["--pair", "rrs-ralg"]),
            ("tables", [])],
    "srs": [("check", ["--class", "srs"]), ("derive", ["--map", "R"]),
            ("roundtrip", ["--pair", "srs-rrs"]), ("tables", [])],
    "ialg": [("check", ["--class", "ialg"]), ("derive", ["--map", "J"]), ("tables", [])],
    "ralg": [("check", ["--class", "ralg", "--subvariety"]), ("derive", ["--map", "Q"]),
             ("tables", [])],
}

# One file in this many of each (class, size) group stays unmutated.
VALID_EVERY = 3

# ``check --class srs`` reads the product only inside sections, so a value
# stored for an unbounded pair is never checked and such a mutation passes.
# How many seeded draws hit such a cell depends on the seed, while the share
# of failed operations must not, so seeded mutations of srs products leave
# undefined cells alone.  Every manifest instead carries this one fixed
# instance of the fault: (file stem, cell, new value).  The exclusion holds
# only while the fault does: once ``check --class srs`` rejects these files,
# stop passing ``keep_undefined`` so that the seeded draws cover undefined
# srs product cells again (a change to the benchmark, with a fresh baseline).
KNOWN_FAULT = ("srs_3_1", [0, 1], "1")

_HEADERS = {"op join:": ("join", 2, False), "op meet partial:": ("meet", 2, True),
            "op imp:": ("imp", 2, False), "op prod partial:": ("prod", 2, True),
            "op r:": ("r", 3, False), "op q:": ("q", 3, False)}


def write_corpus(out: Path) -> Path:
    """Enumerate every class into ``out/corpus`` unless it is already there."""
    corpus = out / "corpus"
    if (corpus / "complete").exists():
        return corpus
    sys.path.insert(0, str(ROOT / "src"))
    from ordalg import cli
    tmp = out / "corpus.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    for cls in CLASSES:
        rc = cli.main(["search", "--class", cls, "--size", str(MAX_SIZE), "--upto",
                       "--out", str(tmp / cls)])
        if rc != 0:
            raise SystemExit(f"ordalg search --class {cls} exited {rc}")
    (tmp / "complete").write_text("", encoding="utf-8")
    shutil.rmtree(corpus, ignore_errors=True)
    tmp.rename(corpus)
    return corpus


def _locate(lines: list[str], head: int, n: int, cell: list[int]) -> tuple[int, int]:
    """Line and token index of a table cell whose header is line ``head``."""
    if len(cell) == 2:
        return head + 1 + cell[0], cell[1]
    # block k fixes the third argument; blocks are separated by a blank line
    return head + 1 + cell[2] * (n + 1) + cell[0], cell[1]


def _set_cell(lines: list[str], row: int, col: int, value: str) -> None:
    toks = lines[row].split()
    toks[col] = value
    lines[row] = "  " + " ".join(toks)


def mutate(text: str, table_no: int, rng: random.Random,
           keep_undefined: bool = False) -> tuple[str, str, list[int]]:
    """Change one cell of the file's table number ``table_no`` (in file
    order) to another value; returns (new text, table name, cell).  With
    ``keep_undefined`` the cell is drawn among the defined ones."""
    lines = text.split("\n")
    labels = next(l.split()[1:] for l in lines if l.startswith("elements:"))
    n = len(labels)
    tables = [(i, _HEADERS[l]) for i, l in enumerate(lines) if l in _HEADERS]
    head, (name, arity, partial) = tables[table_no % len(tables)]
    while True:
        cell = [rng.randrange(n) for _ in range(arity)]
        row, col = _locate(lines, head, n, cell)
        old = lines[row].split()[col]
        if not (keep_undefined and old == "-"):
            break
    choices = [t for t in labels + (["-"] if partial else []) if t != old]
    _set_cell(lines, row, col, rng.choice(choices))
    return "\n".join(lines), name, cell


def known_fault_text(corpus: Path) -> str:
    stem, cell, value = KNOWN_FAULT
    lines = (corpus / "srs" / f"{stem}.alg").read_text(encoding="utf-8").split("\n")
    n = len(next(l for l in lines if l.startswith("elements:")).split()) - 1
    row, col = _locate(lines, lines.index("op prod partial:"), n, cell)
    _set_cell(lines, row, col, value)
    return "\n".join(lines)


def write_seed(out: Path, corpus: Path, seed: int) -> Path:
    """Mutations and the manifest for one seed, in ``out/seed-<seed>``."""
    rng = random.Random(seed)
    final = out / f"seed-{seed}"
    tmp = out / f"seed-{seed}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    ops = []
    for cls in CLASSES:
        check_args = VERBS[cls][0][1]
        for n in range(1, MAX_SIZE + 1):
            group = sorted(corpus.glob(f"{cls}/{cls}_{n}_*.alg"),
                           key=lambda p: int(p.stem.rsplit("_", 1)[1]))
            rng.shuffle(group)
            for pos, path in enumerate(group):
                rel = path.relative_to(out).as_posix()
                if pos % VALID_EVERY == 0:
                    ops += [{"kind": kind, "class": cls, "size": n,
                             "argv": [kind, rel, *args]} for kind, args in VERBS[cls]]
                    continue
                mutant_no = pos - pos // VALID_EVERY - 1
                text, table, cell = mutate(path.read_text(encoding="utf-8"),
                                           mutant_no, rng, keep_undefined=cls == "srs")
                target = tmp / "mutants" / cls / f"{path.stem}.{table}.alg"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text, encoding="utf-8")
                ops.append({"kind": "mutant", "class": cls, "size": n, "table": table,
                            "cell": cell,
                            "argv": ["check", f"{final.name}/mutants/{cls}/{target.name}",
                                     *check_args]})
    fault = tmp / "mutants" / "srs" / f"{KNOWN_FAULT[0]}.unbounded-prod.alg"
    fault.write_text(known_fault_text(corpus), encoding="utf-8")
    ops.append({"kind": "known-fault", "class": "srs", "size": 3, "table": "prod",
                "cell": KNOWN_FAULT[1],
                "argv": ["check", f"{final.name}/mutants/srs/{fault.name}",
                         *VERBS["srs"][0][1]]})
    rng.shuffle(ops)
    (tmp / "manifest.json").write_text(json.dumps(ops, indent=0) + "\n", encoding="utf-8")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out.resolve()
    write_seed(out, write_corpus(out), args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
