"""Bad input ends in an exit code, never in a traceback.

Serialized models of every class up to size 4 get a few random token, line
and header edits and then run through ``ordalg.cli.main`` with a random
file verb and options.  Whatever the edits did, the verb returns 0, 1 or 2
and no exception escapes.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ordalg import ClassTag, SearchSpec, enumerate_models, serialize_algebra
from ordalg.cli import main

TEXTS = [serialize_algebra(m) for tag in ClassTag for n in range(1, 5)
         for m in enumerate_models(SearchSpec(tag, n))]

TOKENS = ["-", "a", "b", "c", "d", "1", "z", "op", "end", "algebra", "name:",
          "elements:", "order:", "<", "partial:", "join:", "r:", "#", "0", "a<b"]
HEADERS = ["op join:", "op meet partial:", "op imp:", "op prod partial:", "op r:",
           "op q:", "op meet:", "op join partial:", "op r partial:", "op prod:",
           "op x:", "op", "order:", "elements: a 1", "name: x", "end", "algebra"]

VERBS = st.one_of(
    st.tuples(st.just("check"),
              st.sampled_from([[]] + [["--class", t.value] for t in ClassTag]),
              st.sampled_from([[], ["--props"], ["--subvariety"],
                               ["--props", "--subvariety"]])
              ).map(lambda v: [v[0], *v[1], *v[2]]),
    st.sampled_from("ABIJQRS").map(lambda m: ["derive", "--map", m]),
    st.sampled_from(["ncis-ialg", "ncis-rrs", "rrs-ralg", "sectioned-ncis",
                     "srs-rrs"]).map(lambda p: ["roundtrip", "--pair", p]),
    st.sampled_from(["summary", "full"]).map(lambda r: ["con", "--report", r]),
    st.sampled_from([[], ["--op", "join"], ["--op", "meet"], ["--op", "imp"],
                     ["--op", "prod"]]).map(lambda o: ["tables", *o]),
)


@st.composite
def edited_texts(draw) -> str:
    lines = draw(st.sampled_from(TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "delete", "duplicate", "swap", "header"]))
        if kind == "token":
            words = lines[at].split() or [""]
            j = draw(st.integers(0, len(words) - 1))
            words[j] = draw(st.sampled_from(TOKENS))
            lines[at] = "  " + " ".join(words)
        elif kind == "delete" and len(lines) > 1:
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif kind == "header":
            lines.insert(at, draw(st.sampled_from(HEADERS)))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(edited_texts(), VERBS)
def test_edited_files_end_in_an_exit_code(text, verb):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.alg"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main([verb[0], str(path), *verb[1:]])
    assert rc in (0, 1, 2)
