"""Golden corpus: the serialized models of every class up to size 7.

For each (class, size) the fixture stores how many models ``search`` emits
and the sha256 of their ``serialize_algebra`` texts joined in emission
order, so any change to a model's tables, name, label or position shows up
here.

Regenerate the fixture, after checking that a change of corpus is meant,
with ``PYTHONPATH=src python tests/test_model_hashes.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ordalg import ClassTag, SearchSpec, enumerate_models, serialize_algebra

FIXTURE = Path(__file__).parent / "fixtures" / "model_hashes.json"
MAX_SIZE = 7


def model_hashes() -> dict[str, dict]:
    out = {}
    for tag in ClassTag:
        for n in range(1, MAX_SIZE + 1):
            texts = [serialize_algebra(m) for m in enumerate_models(SearchSpec(tag, n))]
            out[f"{tag.value}/{n}"] = {
                "count": len(texts),
                "sha256": hashlib.sha256("".join(texts).encode()).hexdigest()}
    return out


def test_model_hashes_match_fixture():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert want["max_size"] == MAX_SIZE
    assert model_hashes() == want["models"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({"max_size": MAX_SIZE, "models": model_hashes()},
                                  indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
