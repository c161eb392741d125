"""Pinned congruence lattices and Maltsev verdicts of the ialg and ralg models.

For each (class, size) up to size 8 the fixture stores how many models
``search`` emits and the sha256 of their lines

    repr(([p.class_of for p in lat.congruences], maltsev_report(alg, lat)))

joined in emission order.  ``con_lines.json`` pins the output of ``con``
up to size 6; this fixture also covers the size-7 and size-8 models.

The tier-1 test checks sizes 1-7.  Size 8 takes about ten seconds more and
is checked on its own with ``PYTHONPATH=src python tests/test_con_hashes.py
--check 8``.  Regenerate the fixture, after checking that a change of
output is meant, with ``PYTHONPATH=src python tests/test_con_hashes.py
--write``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from ordalg import ClassTag, SearchSpec, congruence_lattice, enumerate_models, maltsev_report

FIXTURE = Path(__file__).parent / "fixtures" / "con_hashes.json"
CLASSES = (ClassTag.IALG, ClassTag.RALG)
MAX_SIZE = 8
TIER1_MAX_SIZE = 7


def con_hashes(sizes) -> dict[str, dict]:
    out = {}
    for tag in CLASSES:
        for n in sizes:
            lines = []
            for alg in enumerate_models(SearchSpec(tag, n)):
                lat = congruence_lattice(alg)
                lines.append(repr(([p.class_of for p in lat.congruences],
                                   maltsev_report(alg, lat))))
            out[f"{tag.value}/{n}"] = {
                "count": len(lines),
                "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}
    return out


def _want(sizes) -> dict[str, dict]:
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert want["max_size"] == MAX_SIZE
    return {f"{tag.value}/{n}": want["models"][f"{tag.value}/{n}"]
            for tag in CLASSES for n in sizes}


def test_con_hashes_match_fixture():
    sizes = range(1, TIER1_MAX_SIZE + 1)
    assert con_hashes(sizes) == _want(sizes)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", type=int, nargs="+", metavar="SIZE",
                       help="compare these sizes with the fixture")
    group.add_argument("--write", action="store_true",
                       help=f"regenerate the fixture for sizes 1-{MAX_SIZE}")
    args = parser.parse_args()
    if args.write:
        FIXTURE.write_text(json.dumps(
            {"max_size": MAX_SIZE, "models": con_hashes(range(1, MAX_SIZE + 1))},
            indent=2) + "\n", encoding="utf-8")
        print(f"wrote {FIXTURE}")
    else:
        got, want = con_hashes(args.check), _want(args.check)
        for key in want:
            print(f"{key} {'ok' if got[key] == want[key] else 'DIFFERS'} {got[key]}")
        raise SystemExit(0 if got == want else 1)
