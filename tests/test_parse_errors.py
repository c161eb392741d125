"""Every parse error of `fileio.parse_algebra`, as `ordalg check` reports it.

Each case is a file text and the exact stderr of ``check`` on it; the exit
code is 2 and stdout is empty throughout.  Lines count as `str.splitlines`
splits them (so CRLF is one break and ``\\x1c`` is a break of its own),
``#`` cuts a line, and a column counts characters from 1 with a tab or any
other whitespace character counting as one.
"""

from __future__ import annotations

import pytest

from ordalg.cli import main

HEAD = "algebra\nelements: a b 1\n"
JOIN = "op join:\n  a 1 1\n  1 b 1\n  1 1 1\n"

CASES = [
    ("empty file", "",
     "unexpected end of file"),
    ("only comments and blank lines", "# nothing\n\n   \n",
     "unexpected end of file"),
    ("end of file after the header", "algebra\n",
     "unexpected end of file"),
    ("end of file inside a table", HEAD + "op join:\n  a 1 1\n",
     "unexpected end of file"),
    ("no header", "  algebr\n",
     "line 1, column 3: expected 'algebra' header"),
    ("header with a second token", "algebra x\n",
     "line 1, column 1: expected 'algebra' header"),
    ("missing elements line", "algebra\nend\n",
     "missing 'elements:' line"),
    ("order before elements", "algebra\n  order:\nend\n",
     "line 2, column 3: 'elements:' must come first"),
    ("op before elements", "algebra\nop join:\nend\n",
     "line 2, column 1: 'elements:' must come first"),
    ("name with two tokens", "algebra\nname: x y\nend\n",
     "line 2, column 1: name: takes exactly one token"),
    ("tab before a token", "algebra\n\tname:\tx\ty\nend\n",
     "line 2, column 2: name: takes exactly one token"),
    ("duplicate elements line", HEAD + "  elements: a 1\nend\n",
     "line 3, column 3: duplicate elements: line"),
    ("duplicate name line", "algebra\nname: x\nelements: a\n  name: y\nend\n",
     "line 4, column 3: duplicate name: line"),
    ("duplicate order block", HEAD + "order:\n  a < 1\norder:\n  b < 1\nend\n",
     "line 5, column 1: duplicate order: block"),
    ("elements without labels", "algebra\nelements:   # none\nend\n",
     "line 2, column 1: elements: needs at least one label"),
    ("reserved label", "algebra\nelements: a - 1\nend\n",
     "line 2, column 13: label may not be '-'"),
    ("duplicate label after a tab", "algebra\nelements: a b\ta\nend\n",
     "line 2, column 15: duplicate label 'a'"),
    ("non-ASCII labels", "algebra\nelements: é ü é\nend\n",
     "line 2, column 15: duplicate label 'é'"),
    ("wide space before a token", "algebra\nelements: a\u30001 a\nend\n",
     "line 2, column 15: duplicate label 'a'"),
    ("\\x1f between tokens", "algebra\nelements: a\x1f1\x1fa\nend\n",
     "line 2, column 15: duplicate label 'a'"),
    ("unknown op header", HEAD + "op join  total:\nend\n",
     "line 3, column 1: unknown op header 'op join total:'"),
    ("duplicate block", HEAD + JOIN + "  op join:\n" + "  a 1 1\n" * 3 + "end\n",
     "line 7, column 3: duplicate 'op join' block"),
    ("short row", HEAD + "op join:\n  a 1 1\n  1 b\n  1 1 1\nend\n",
     "line 5, column 3: row of 'join' needs 3 entries, got 2"),
    ("long row", HEAD + "op join:\n  a 1 1 1\nend\n",
     "line 4, column 3: row of 'join' needs 3 entries, got 4"),
    ("comment cut in a row", HEAD + "op join:\n  a 1 1\n  1#b 1\n  1 1 1\nend\n",
     "line 5, column 3: row of 'join' needs 3 entries, got 1"),
    ("comment glued to a label",
     "algebra\nelements: a#b 1\nop join:\n  a 1\n  1 b\nend\n",
     "line 4, column 3: row of 'join' needs 1 entries, got 2"),
    ("unknown element in a row", HEAD + "op join:\n  a 1 1\n  1 b 1\n  1 1  z\nend\n",
     "line 6, column 8: unknown element 'z'"),
    ("first bad token in row order", HEAD + "op join:\n  a z -\nend\n",
     "line 4, column 5: unknown element 'z'"),
    ("undefined entry in a total table",
     HEAD + "op join:\n  a 1 1\n  1 b 1\n  1 - 1\nend\n",
     "line 6, column 5: '-' not allowed in total table 'join'"),
    ("undefined entry before an unknown one", HEAD + "op imp:\n  - z 1\nend\n",
     "line 4, column 3: '-' not allowed in total table 'imp'"),
    ("unknown element in a partial table", HEAD + JOIN + "op meet partial:\n  a - y\nend\n",
     "line 8, column 7: unknown element 'y'"),
    ("row error in the second ternary block",
     HEAD + JOIN + "op r:\n" + "  a a a\n" * 3 + "\n  a a a\n  a b\nend\n",
     "line 13, column 3: row of 'r' needs 3 entries, got 2"),
    ("first token of an order line", HEAD + "order:\n  z < 1\nend\n",
     "line 4, column 3: unknown element 'z'"),
    ("third token of an order line", HEAD + "order:\n  a < z\nend\n",
     "line 4, column 7: unknown element 'z'"),
    ("order line of two tokens", HEAD + "order:\n  a <\nend\n",
     "line 4, column 3: unexpected 'a'"),
    ("CRLF line endings",
     "algebra\r\nelements: a b 1\r\norder:\r\n  a < 1\r\n  b < c\r\nend\r\n",
     "line 5, column 7: unknown element 'c'"),
    ("\\x1c line split", "algebra\x1celements: a 1\norder:\x1c  a < z\nend\n",
     "line 4, column 7: unknown element 'z'"),
    ("unexpected token", HEAD + "  join:\nend\n",
     "line 3, column 3: unexpected 'join:'"),
    ("text after end", HEAD + JOIN + "end\n\n  more text\n",
     "line 9, column 3: text after 'end'"),
    ("end with a second token", HEAD + "end here\nend\n",
     "line 3, column 5: text after 'end'"),
    ("structure error", "algebra\nelements: a b\nend\n",
     "no unique top"),
    ("order cycle", HEAD + "order:\n  a < b\n  b < a\nend\n",
     "order not antisymmetric: a and b form a cycle"),
]


@pytest.mark.parametrize("text, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_check_reports_the_parse_error(text, message, tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_bytes(text.encode("utf-8"))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"parse error: {message}\n")
