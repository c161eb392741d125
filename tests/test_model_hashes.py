"""Golden corpus: the serialized models of every class up to size 8.

For each (class, size) the fixture stores how many models ``search`` emits
and the sha256 of their ``serialize_algebra`` texts joined in emission
order, so any change to a model's tables, name, label or position shows up
here.

The tier-1 test checks sizes 1-7.  Size 8 is checked on its own with
``PYTHONPATH=src python tests/test_model_hashes.py --check 8``.  Regenerate
the fixture, after checking that a change of corpus is meant, with
``PYTHONPATH=src python tests/test_model_hashes.py --write``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from ordalg import ClassTag, SearchSpec, enumerate_models, serialize_algebra

FIXTURE = Path(__file__).parent / "fixtures" / "model_hashes.json"
MAX_SIZE = 8
TIER1_MAX_SIZE = 7


def model_hashes(sizes) -> dict[str, dict]:
    out = {}
    for tag in ClassTag:
        for n in sizes:
            texts = [serialize_algebra(m) for m in enumerate_models(SearchSpec(tag, n))]
            out[f"{tag.value}/{n}"] = {
                "count": len(texts),
                "sha256": hashlib.sha256("".join(texts).encode()).hexdigest()}
    return out


def _want(sizes) -> dict[str, dict]:
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert want["max_size"] == MAX_SIZE
    return {f"{tag.value}/{n}": want["models"][f"{tag.value}/{n}"]
            for tag in ClassTag for n in sizes}


def test_model_hashes_match_fixture():
    sizes = range(1, TIER1_MAX_SIZE + 1)
    assert model_hashes(sizes) == _want(sizes)


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
            {"max_size": MAX_SIZE, "models": model_hashes(range(1, MAX_SIZE + 1))},
            indent=2) + "\n", encoding="utf-8")
        print(f"wrote {FIXTURE}")
    else:
        got, want = model_hashes(args.check), _want(args.check)
        for key in want:
            print(f"{key} {'ok' if got[key] == want[key] else 'DIFFERS'} {got[key]}")
        raise SystemExit(0 if got == want else 1)
