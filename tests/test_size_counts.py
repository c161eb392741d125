"""Model counts of every class at sizes 8 and 9, against fixtures.

`tests/fixtures/size8_counts.json` holds the counts at size 8, the default
cap, which the CI workflow also compares with ``ordalg search --count``.
`tests/fixtures/size9_counts.json` holds those at size 9, one size past the
cap: a check of the generator and the canonical keys at a size nothing else
reaches, not a raised cap.  Only the jsl counts are published figures; the
others are regression values of this program.

Size 9 is counted in one process, which builds the jsl models once for all
seven classes (about 15 s), with
``ORDALG_MAX_SIZE=9 PYTHONPATH=src python tests/test_size_counts.py --check 9``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from ordalg import ClassTag, SearchSpec, count_models

FIXTURES = Path(__file__).parent / "fixtures"
# OEIS A006966 at n + 1: adding a bottom to a join-semilattice with top on n
# elements gives a lattice on n + 1, and removing it gives the semilattice back
LATTICES = {8: 1078, 9: 5994}


def fixture(size: int) -> dict[str, int]:
    want = json.loads((FIXTURES / f"size{size}_counts.json").read_text(encoding="utf-8"))
    assert want["size"] == size
    return want["counts"]


def test_the_count_fixtures_hold_every_class_and_the_published_jsl_counts():
    for size, lattices in LATTICES.items():
        counts = fixture(size)
        assert set(counts) == {tag.value for tag in ClassTag}
        assert counts["jsl"] == lattices


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", type=int, nargs="+", metavar="SIZE", required=True,
                        choices=sorted(LATTICES),
                        help="count every class at these sizes and compare with the fixtures")
    args = parser.parse_args()
    failed = False
    for n in args.check:
        want = fixture(n)
        for tag in ClassTag:
            got = count_models(SearchSpec(tag, n))
            failed |= got != want[tag.value]
            print(f"class={tag.value} size={n} count={got} "
                  f"{'ok' if got == want[tag.value] else f'DIFFERS want={want[tag.value]}'}")
    raise SystemExit(1 if failed else 0)
