import errno
import functools

import pytest

from conftest import (FIG1_NCIS_SRC, FIG1_ORDER_SRC, FIG1_RRS_SRC, FIG2_NCIS_SRC,
                      FIG2_ORDER_SRC, ONE_ELEMENT_SRC)
from ordalg import core
from ordalg.cli import _MAPS, main, render_table
from ordalg.laws import JOIN_LAWS
from ordalg.search import VALIDATORS
from ordalg import (ClassTag, OrdalgError, SearchSpec, enumerate_models,
                    parse_algebra, serialize_algebra)


@pytest.fixture
def fig2_ncis_file(tmp_path):
    p = tmp_path / "fig2.alg"
    p.write_text(FIG2_NCIS_SRC, encoding="utf-8")
    return str(p)


@pytest.fixture
def fig1_ncis_file(tmp_path):
    p = tmp_path / "fig1.alg"
    p.write_text(FIG1_NCIS_SRC, encoding="utf-8")
    return str(p)


@pytest.fixture
def fig1_rrs_file(tmp_path):
    p = tmp_path / "fig1r.alg"
    p.write_text(FIG1_RRS_SRC, encoding="utf-8")
    return str(p)


@pytest.fixture
def chain7_ialg_file(tmp_path):
    """The I-algebra of the seven-element chain, derived through the CLI."""
    labels = "abcdef1"
    order = "".join(f"  {x} < {y}\n" for x, y in zip(labels, labels[1:]))
    chain = tmp_path / "chain7.alg"
    chain.write_text(f"algebra\nelements: {' '.join(labels)}\norder:\n{order}end\n",
                     encoding="utf-8")
    ncis, ialg = tmp_path / "chain7.ncis.alg", tmp_path / "chain7.ialg.alg"
    assert main(["derive", str(chain), "--map", "I", "--out", str(ncis)]) == 0
    assert main(["derive", str(ncis), "--map", "A", "--out", str(ialg)]) == 0
    return str(ialg)


@pytest.fixture
def srs_unbounded_prod_file(tmp_path):
    """srs_3_1 (two atoms under the top) with a product stored for the pair
    (a, b), which lies in no common section."""
    src = ("algebra\nname: srs_3_1\nelements: a b 1\n"
           "op join:\n  a 1 1\n  1 b 1\n  1 1 1\n"
           "op imp:\n  1 b 1\n  a 1 1\n  a b 1\n"
           "op prod partial:\n  a 1 a\n  - b b\n  a b 1\nend\n")
    p = tmp_path / "srs_3_1.alg"
    p.write_text(src, encoding="utf-8")
    return str(p)


def test_check_pass(fig1_ncis_file, capsys):
    assert main(["check", fig1_ncis_file, "--class", "ncis"]) == 0
    out = capsys.readouterr().out
    assert "PASS class=ncis" in out


def test_check_props(fig2_ncis_file, capsys):
    assert main(["check", fig2_ncis_file, "--class", "ncis", "--props"]) == 0
    out = capsys.readouterr().out
    assert "PASS props=ncis" in out


def test_check_fail_line(tmp_path, capsys):
    bad = FIG1_NCIS_SRC.replace("  a 1 c d 1", "  1 1 c d 1")  # imp[b][a] := 1
    p = tmp_path / "bad.alg"
    p.write_text(bad, encoding="utf-8")
    assert main(["check", str(p), "--class", "ncis"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "FAIL axiom=(2) witness=(b,a) lhs=b rhs=a"


def test_check_runs_the_join_laws_only_to_name_a_broken_join(tmp_path, monkeypatch, capsys):
    """A sectioned file with a join table: the parse accepts the join by its
    up-set masks and runs no join law row, and the jsl step of the chain
    passes from it, with the validator's note.  A broken join is named by
    the join law row it fails."""
    model = next(enumerate_models(SearchSpec(ClassTag.SECTIONED, 4)))
    text = serialize_algebra(model)
    p = tmp_path / "sectioned.alg"
    p.write_text(text, encoding="utf-8")
    calls = []
    real = core.evaluate
    monkeypatch.setattr(core, "evaluate",
                        lambda alg, rows, *a: calls.append(rows) or real(alg, rows, *a))
    assert main(["check", str(p), "--class", "sectioned"]) == 0
    assert [rows for rows in calls if set(rows) & set(JOIN_LAWS)] == []
    out, err = capsys.readouterr()
    assert out == "PASS class=jsl\nPASS class=sectioned\n"
    assert err.splitlines()[0] == "join-semilattice laws hold"
    # a v b := 1 keeps the order read off the table and breaks commutativity
    assert "op join:\n  a a a 1\n" in text
    p.write_text(text.replace("op join:\n  a a", "op join:\n  a 1", 1), encoding="utf-8")
    assert main(["check", str(p), "--class", "sectioned"]) == 2
    assert [rows for rows in calls if set(rows) & set(JOIN_LAWS)] == [JOIN_LAWS]
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "parse error: not a join-semilattice: join-commutative at (a,b)\n"


def test_check_inferred_class(fig1_rrs_file, capsys):
    assert main(["check", fig1_rrs_file]) == 0
    assert "PASS class=rrs" in capsys.readouterr().out


def test_check_missing_table_is_usage_error(tmp_path, capsys):
    p = tmp_path / "plain.alg"
    p.write_text(ONE_ELEMENT_SRC, encoding="utf-8")
    assert main(["check", str(p), "--class", "ncis"]) == 2


@pytest.mark.parametrize("argv, table", [
    (["check", "--class", "rrs"], "a prod"),
    (["check", "--class", "ialg"], "an r"),
    (["check", "--props", "--class", "ralg"], "a q"),
    (["roundtrip", "--pair", "rrs-ralg"], "a prod"),
])
def test_missing_table_message(fig1_ncis_file, capsys, argv, table):
    assert main(argv[:1] + [fig1_ncis_file] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"this operation requires {table} table\n")


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.alg"
    p.write_text("algebra\nelements: a a\nend\n", encoding="utf-8")
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "duplicate label" in err


def test_non_utf8_file_is_a_read_error(tmp_path, capsys):
    p = tmp_path / "latin1.alg"
    p.write_bytes("algebra\nelements: \xe9 1\nend\n".encode("latin-1"))
    assert main(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read {p}: 'utf-8' codec can't decode byte 0xe9")


def test_unknown_flag_exits_2(fig1_ncis_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", fig1_ncis_file, "--bogus"])
    assert exc.value.code == 2


def test_derive_I_prints_the_meet_and_the_arrow_of_an_order(tmp_path, capsys):
    p = tmp_path / "fig2o.alg"
    p.write_text(FIG2_ORDER_SRC, encoding="utf-8")
    assert main(["derive", str(p), "--map", "I"]) == 0
    out = capsys.readouterr().out
    derived = parse_algebra(out)
    assert derived.imp is not None and derived.meet is not None
    row_d = derived.imp.values[derived.index["d"]]
    assert [derived.label(v) for v in row_d] == ["0", "a", "b", "c", "1", "1"]


def test_derive_invalid_input(tmp_path, capsys):
    # diamond is not sectioned, so map I must refuse it with a FAIL line
    src = ("algebra\nelements: 0 p q r 1\norder:\n  0 < p\n  0 < q\n  0 < r\n"
           "  p < 1\n  q < 1\n  r < 1\nend\n")
    p = tmp_path / "m3.alg"
    p.write_text(src, encoding="utf-8")
    assert main(["derive", str(p), "--map", "I"]) == 1
    assert capsys.readouterr().out.startswith("FAIL axiom=(b)")


def test_derive_all_maps(tmp_path, fig2_ncis_file, capsys):
    chains = [("A", "J"), ("S", "I")]
    for fwd, back in chains:
        assert main(["derive", fig2_ncis_file, "--map", fwd,
                     "--out", str(tmp_path / "step.alg")]) == 0
        assert main(["derive", str(tmp_path / "step.alg"), "--map", back,
                     "--out", str(tmp_path / "back.alg")]) == 0
        capsys.readouterr()
        again = parse_algebra((tmp_path / "back.alg").read_text(encoding="utf-8"))
        original = parse_algebra(FIG2_NCIS_SRC)
        assert again.imp.values == original.imp.values
        assert again.meet.values == original.meet.values


def test_derive_rrs_maps(tmp_path, fig1_rrs_file, capsys):
    assert main(["derive", fig1_rrs_file, "--map", "B",
                 "--out", str(tmp_path / "ralg.alg")]) == 0
    assert main(["derive", str(tmp_path / "ralg.alg"), "--map", "Q",
                 "--out", str(tmp_path / "rrs.alg")]) == 0
    assert main(["derive", fig1_rrs_file, "--map", "R"]) == 0
    capsys.readouterr()
    again = parse_algebra((tmp_path / "rrs.alg").read_text(encoding="utf-8"))
    original = parse_algebra(FIG1_RRS_SRC)
    assert again.prod.values == original.prod.values


# the tables each target class of a map carries
_CLASS_TABLES = {"sectioned": {"join", "meet"}, "ncis": {"join", "meet", "imp"},
                 "rrs": {"join", "imp", "prod"}, "ialg": {"join", "imp", "r"},
                 "ralg": {"join", "imp", "q"}}


@functools.cache
def _inputs():
    """Every model up to size 3, and per semilattice with an arrow the model
    that carries all six tables, each as its file reads back."""
    models = [m for tag in ClassTag for n in range(1, 4)
              for m in enumerate_models(SearchSpec(tag, n))]
    for n in range(1, 4):
        same_jsl = zip(*(enumerate_models(SearchSpec(ClassTag(c), n))
                         for c in ("ncis", "rrs", "ialg", "ralg")))
        models += [nc.replace(prod=rr.prod, r=ia.r, q=ra.q) for nc, rr, ia, ra in same_jsl]
    return [parse_algebra(serialize_algebra(m)) for m in models]


@pytest.mark.parametrize("code", sorted(_MAPS))
def test_derive_keeps_only_the_target_tables_of_a_cross_class_input(
        code, tmp_path, capsys):
    source, target, _ = _MAPS[code]

    def passes(alg):
        try:
            return VALIDATORS[source](alg).ok
        except OrdalgError:  # a table the source check needs is missing
            return False

    cross = [m for m in _inputs() if m.class_tag != source and passes(m)]
    if code == "J":
        # every file with an r table reads back as ialg, the source of J
        assert cross == []
        return
    alg = max(cross, key=lambda m: len(m.tables()))
    assert {name for name, _ in alg.tables()} - _CLASS_TABLES[target.value]
    src, out = tmp_path / "in.alg", tmp_path / "out.alg"
    src.write_text(serialize_algebra(alg), encoding="utf-8")
    assert main(["derive", str(src), "--map", code, "--out", str(out)]) == 0
    derived = parse_algebra(out.read_text(encoding="utf-8"))
    assert {name for name, _ in derived.tables()} == _CLASS_TABLES[target.value]
    capsys.readouterr()
    assert main(["check", str(out)]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("pair", ["sectioned-ncis", "ncis-ialg", "ncis-rrs"])
def test_roundtrip_identical(fig2_ncis_file, pair, capsys):
    assert main(["roundtrip", fig2_ncis_file, "--pair", pair]) == 0
    assert capsys.readouterr().out.strip() == "IDENTICAL"


@pytest.mark.parametrize("pair", ["rrs-ralg", "srs-rrs"])
def test_roundtrip_identical_rrs(fig1_rrs_file, pair, capsys):
    assert main(["roundtrip", fig1_rrs_file, "--pair", pair]) == 0
    assert capsys.readouterr().out.strip() == "IDENTICAL"


def test_tables_golden_fig2(fig2_ncis_file, capsys):
    assert main(["tables", fig2_ncis_file, "--op", "imp"]) == 0
    out = capsys.readouterr().out
    expected = "\n".join([
        "imp | 0 a b c d 1",
        "----+------------",
        "0   | 1 1 1 1 d 1",
        "a   | b 1 b 1 d 1",
        "b   | c a 1 c d 1",
        "c   | b a b 1 d 1",
        "d   | 0 a b c 1 1",
        "1   | 0 a b c d 1",
    ]) + "\n"
    assert out == expected


def test_tables_renders_undef(fig1_ncis_file, capsys):
    assert main(["tables", fig1_ncis_file, "--op", "meet"]) == 0
    out = capsys.readouterr().out
    assert "a    | a a - - a" in out


def test_tables_missing_op(tmp_path, capsys):
    p = tmp_path / "one.alg"
    p.write_text(ONE_ELEMENT_SRC, encoding="utf-8")
    assert main(["tables", str(p), "--op", "imp"]) == 2


def test_con_summary(tmp_path, fig2_ncis_file, capsys):
    assert main(["derive", fig2_ncis_file, "--map", "A",
                 "--out", str(tmp_path / "ia.alg")]) == 0
    capsys.readouterr()
    assert main(["con", str(tmp_path / "ia.alg")]) == 0
    out = capsys.readouterr().out
    assert "congruences: 6" in out
    assert "three_permutable: true" in out
    assert "con_distributive: true" in out
    assert "weakly_regular: true" in out


def test_con_full_blocks(tmp_path, fig2_ncis_file, capsys):
    assert main(["derive", fig2_ncis_file, "--map", "A",
                 "--out", str(tmp_path / "ia.alg")]) == 0
    capsys.readouterr()
    assert main(["con", str(tmp_path / "ia.alg"), "--report", "full"]) == 0
    out = capsys.readouterr().out
    assert "{0}{a}{b}{c}{d}{1}" in out
    assert "{0,a,b,c,d,1}" in out


def test_con_rejects_partial_signature(fig1_ncis_file, capsys):
    assert main(["con", fig1_ncis_file]) == 2


def test_con_names_a_missing_table_as_every_verb_does(tmp_path, capsys):
    arrow_only = FIG1_NCIS_SRC[:FIG1_NCIS_SRC.index("op meet partial:")] + \
        FIG1_NCIS_SRC[FIG1_NCIS_SRC.index("op imp:"):]
    for src, table in ((FIG1_ORDER_SRC, "an imp"), (arrow_only, "an r or q")):
        path = tmp_path / "a.alg"
        path.write_text(src, encoding="utf-8")
        assert main(["con", str(path)]) == 2
        assert capsys.readouterr() == ("", f"this operation requires {table} table\n")


def test_con_checks_the_signature_of_a_one_element_file(tmp_path, capsys):
    # a one-element algebra has no pair to close, so no principal congruence
    # is built; the signature is still checked
    path = tmp_path / "one.alg"
    path.write_text(ONE_ELEMENT_SRC, encoding="utf-8")
    assert main(["con", str(path)]) == 2
    assert capsys.readouterr() == ("", "this operation requires an imp table\n")
    path.write_text("algebra\nelements: 1\nop meet partial:\n  1\nop imp:\n  1\nend\n",
                    encoding="utf-8")
    assert main(["con", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "congruence analysis requires total operations only "
        "(partial meet/product present)\n")


def test_search_count(capsys):
    assert main(["search", "--class", "jsl", "--size", "4", "--upto",
                 "--count"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "class=jsl size=1 count=1",
        "class=jsl size=2 count=1",
        "class=jsl size=3 count=2",
        "class=jsl size=4 count=5",
    ]


def test_search_violate_prints_model(capsys):
    assert main(["search", "--class", "sectioned", "--size", "6", "--upto",
                 "--violate", "section-modular"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("algebra\n")
    assert "op meet partial:" in out


@pytest.mark.parametrize("prop", ["section-distributive", "section-modular"])
@pytest.mark.parametrize("cls", ["ialg", "ralg"])
def test_search_violate_section_shape_on_total_classes(cls, prop, capsys):
    # the order comes from the join, so the total classes have section shapes
    # too; in the first model that fails, c < b < a < 1 and c < d < 1, the
    # section [c, 1] is a pentagon
    assert main(["search", "--class", cls, "--size", "5", "--violate", prop]) == 0
    assert f"\nname: {cls}_5_8\n" in capsys.readouterr().out


def test_search_violate_none(capsys):
    assert main(["search", "--class", "ialg", "--size", "3", "--upto",
                 "--violate", "con-distributive"]) == 0
    assert capsys.readouterr().out.strip() == "NONE"


def test_search_out_dir(tmp_path, capsys):
    assert main(["search", "--class", "jsl", "--size", "3", "--out",
                 str(tmp_path / "models")]) == 0
    files = sorted(p.name for p in (tmp_path / "models").iterdir())
    assert files == ["jsl_3_0.alg", "jsl_3_1.alg"]
    for f in (tmp_path / "models").iterdir():
        parse_algebra(f.read_text(encoding="utf-8"))


@pytest.fixture
def unwritable(tmp_path):
    """--out paths that cannot be written, by the error they raise."""
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "dir" / "jsl_3_0.alg").mkdir(parents=True)
    return {"existing file": tmp_path / "file",
            "missing directory": tmp_path / "missing" / "out.alg",
            "directory": tmp_path / "dir",
            "file as directory": tmp_path / "file" / "out.alg",
            "model file is a directory": tmp_path / "dir"}


@pytest.mark.parametrize("argv, where, code", [
    (["search", "--class", "jsl", "--size", "3"], "existing file", errno.EEXIST),
    (["search", "--class", "jsl", "--size", "3"], "file as directory", errno.ENOTDIR),
    (["search", "--class", "jsl", "--size", "3"], "model file is a directory",
     errno.EISDIR),
    (["derive", "{fig2}", "--map", "A"], "missing directory", errno.ENOENT),
    (["derive", "{fig2}", "--map", "A"], "directory", errno.EISDIR),
    (["derive", "{fig2}", "--map", "A"], "file as directory", errno.ENOTDIR),
])
def test_unwritable_out_is_usage_error(argv, where, code, unwritable, fig2_ncis_file,
                                       capsys):
    out = unwritable[where]
    argv = [fig2_ncis_file if a == "{fig2}" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: [Errno {code}] ")


@pytest.mark.parametrize("limit", ["0", "-2"])
@pytest.mark.parametrize("mode", [[], ["--count"], ["--violate", "section-modular"]],
                         ids=["list", "count", "violate"])
def test_search_limit_below_one_is_usage_error(limit, mode, capsys):
    assert main(["search", "--class", "jsl", "--size", "3", "--limit", limit, *mode]) == 2
    assert capsys.readouterr() == ("", "limit must be a positive integer\n")


def test_search_unknown_property(capsys):
    assert main(["search", "--class", "jsl", "--size", "3",
                 "--violate", "bogus"]) == 2


def test_render_table_one_element(one_element):
    out = render_table(one_element, "join")
    assert out.splitlines()[0] == "join | 1"


def test_check_all_classes(fig1_rrs_file, fig2_ncis_file, tmp_path, capsys):
    assert main(["check", fig1_rrs_file, "--class", "srs"]) == 0
    assert main(["check", fig1_rrs_file, "--class", "rrs", "--props",
                 "--subvariety"]) == 0
    assert main(["check", fig2_ncis_file, "--class", "sectioned"]) == 0
    assert main(["check", fig2_ncis_file, "--class", "jsl"]) == 0
    assert main(["derive", fig2_ncis_file, "--map", "A",
                 "--out", str(tmp_path / "ia.alg")]) == 0
    assert main(["check", str(tmp_path / "ia.alg"), "--class", "ialg"]) == 0
    assert main(["derive", fig1_rrs_file, "--map", "B",
                 "--out", str(tmp_path / "ra.alg")]) == 0
    assert main(["check", str(tmp_path / "ra.alg"), "--class", "ralg",
                 "--subvariety"]) == 0
    capsys.readouterr()


def test_search_free_imp_flag(capsys):
    assert main(["search", "--class", "ncis", "--size", "4", "--upto",
                 "--count", "--free-imp"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "class=ncis size=4 count=5"


def test_search_env_cap_warning(monkeypatch, capsys):
    # stub out the actual enumeration; only the warning path is under test
    monkeypatch.setenv("ORDALG_MAX_SIZE", "12")
    monkeypatch.setattr("ordalg.cli.count_models", lambda spec: 0)
    assert main(["search", "--class", "jsl", "--size", "9", "--count"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err and "long run" in captured.err


def test_search_cap_exceeded_without_override(capsys):
    assert main(["search", "--class", "jsl", "--size", "9", "--count"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_search_refuses_a_size_below_one_before_any_output(size, tmp_path, capsys):
    out_dir = tmp_path / "models"
    for mode in (["--upto", "--count"], ["--out", str(out_dir)]):
        assert main(["search", "--class", "jsl", "--size", size, *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size must be a positive integer" in captured.err
    assert not out_dir.exists()


def test_search_upto_count_refuses_a_size_above_the_cap_before_counting(monkeypatch,
                                                                       capsys):
    monkeypatch.delenv("ORDALG_MAX_SIZE", raising=False)
    counted = []
    monkeypatch.setattr("ordalg.cli.count_models", lambda spec: counted.append(spec) or 0)
    assert main(["search", "--class", "jsl", "--size", "9", "--upto", "--count"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, counted) == ("", [])
    assert "size 9 exceeds the cap of 8" in captured.err


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_bad_size_cap_is_usage_error(chain7_ialg_file, raw, monkeypatch, capsys):
    monkeypatch.setenv("ORDALG_MAX_SIZE", raw)
    for argv in (["search", "--class", "jsl", "--size", "9", "--count"],
                 ["check", chain7_ialg_file, "--class", "ialg"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"ORDALG_MAX_SIZE={raw!r} is not a positive integer" in captured.err
        assert "warning" not in captured.err


def test_check_and_con_honour_size_cap(chain7_ialg_file, monkeypatch, capsys):
    assert main(["check", chain7_ialg_file, "--class", "ialg"]) == 0
    assert main(["con", chain7_ialg_file]) == 0
    assert "congruences: 7" in capsys.readouterr().out
    monkeypatch.setenv("ORDALG_MAX_SIZE", "3")
    for argv in (["check", chain7_ialg_file, "--class", "ialg"],
                 ["con", chain7_ialg_file, "--report", "full"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size 7 exceeds the cap of 3 (override with ORDALG_MAX_SIZE)" \
            in captured.err


@pytest.mark.parametrize("argv", [["check", "--class", "srs"], ["derive", "--map", "R"],
                                  ["roundtrip", "--pair", "srs-rrs"]])
def test_srs_product_outside_sections_fails(srs_unbounded_prod_file, argv, capsys):
    assert main([argv[0], srs_unbounded_prod_file, *argv[1:]]) == 1
    assert capsys.readouterr().out == "FAIL axiom=domain witness=(a,b) lhs=1 rhs=-\n"


@pytest.mark.parametrize("argv", [["derive", "--map", "J"],
                                  ["roundtrip", "--pair", "ncis-ialg"]])
def test_derive_and_roundtrip_honour_size_cap(chain7_ialg_file, argv, monkeypatch,
                                              capsys):
    verb, *rest = argv
    assert main([verb, chain7_ialg_file, *rest]) == 0
    capsys.readouterr()
    monkeypatch.setenv("ORDALG_MAX_SIZE", "3")
    assert main([verb, chain7_ialg_file, *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "size 7 exceeds the cap of 3 (override with ORDALG_MAX_SIZE)" in captured.err


@pytest.mark.parametrize("argv", [["check"], ["derive", "--map", "I"],
                                  ["roundtrip", "--pair", "sectioned-ncis"], ["con"],
                                  ["tables"]])
def test_an_oversize_file_is_refused_before_it_is_built(tmp_path, argv, monkeypatch,
                                                       capsys):
    # 1,999 atoms below a top: the O(n^3) checks of the build would take minutes
    atoms = [f"a{i}" for i in range(1999)]
    path = tmp_path / "antichain2000.alg"
    path.write_text("algebra\nelements: " + " ".join(atoms) + " 1\norder:\n"
                    + "".join(f"  {a} < 1\n" for a in atoms) + "end\n", encoding="utf-8")
    monkeypatch.delenv("ORDALG_MAX_SIZE", raising=False)
    built = []
    monkeypatch.setattr("ordalg.fileio.build_algebra", lambda *a, **kw: built.append(a))
    verb, *rest = argv
    assert main([verb, str(path), *rest]) == 2
    captured = capsys.readouterr()
    assert (captured.out, built) == ("", [])
    assert "size 2000 exceeds the cap of 8 (override with ORDALG_MAX_SIZE)" in captured.err


@pytest.mark.parametrize("sep,lead", [("\r", ""), ("\x0c", ""), ("\u2028", ""),
                                      ("\r\n", ""), ("\n", "\xa0"), ("\n", "\u3000")])
def test_an_oversize_file_is_refused_whatever_breaks_its_lines(tmp_path, sep, lead,
                                                               monkeypatch, capsys):
    # the cap counts labels by the parser's own line and token rules
    atoms = [f"a{i}" for i in range(1999)]
    lines = ["algebra", lead + "elements: " + " ".join(atoms) + " 1", "order:",
             *(f"  {a} < 1" for a in atoms), "end"]
    path = tmp_path / "antichain2000.alg"
    path.write_bytes((sep.join(lines) + sep).encode("utf-8"))
    monkeypatch.delenv("ORDALG_MAX_SIZE", raising=False)
    built = []
    monkeypatch.setattr("ordalg.fileio.build_algebra", lambda *a, **kw: built.append(a))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, built) == ("", [])
    assert "size 2000 exceeds the cap of 8 (override with ORDALG_MAX_SIZE)" in captured.err


@pytest.mark.parametrize("sep", ["\x0c", "\x1e", "\u2028"])
def test_a_file_at_the_cap_passes_whatever_breaks_its_lines(chain7_ialg_file, sep,
                                                            tmp_path, monkeypatch, capsys):
    assert main(["check", chain7_ialg_file]) == 0
    expected = capsys.readouterr().out
    # the lines from the elements: line on are broken by sep alone
    text = open(chain7_ialg_file, encoding="utf-8").read()
    start = text.index("elements:")
    path = tmp_path / "chain7.alg"
    path.write_bytes((text[:start] + text[start:].replace("\n", sep)).encode("utf-8"))
    monkeypatch.setenv("ORDALG_MAX_SIZE", "7")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_parser_is_built_once_and_keeps_no_state(fig2_ncis_file, capsys):
    from ordalg import cli
    cli.build_parser.cache_clear()
    assert main(["check", fig2_ncis_file, "--props"]) == 0
    assert capsys.readouterr().out == "PASS class=ncis\nPASS props=ncis\n"
    assert main(["check", fig2_ncis_file]) == 0
    assert capsys.readouterr().out == "PASS class=ncis\n"
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_an_order_cycle_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "cycle.alg"
    path.write_text("algebra\nelements: a b 1\norder:\n  a < b\n  b < a\nend\n",
                    encoding="utf-8")
    assert main(["check", str(path), "--class", "jsl"]) == 2
    assert capsys.readouterr() == (
        "", "parse error: order not antisymmetric: a and b form a cycle\n")


def test_an_order_beside_the_join_is_checked_before_the_top(tmp_path, capsys):
    # 1 < a makes a the top, which the table does not absorb: the order check
    # comes first and names the pair
    path = tmp_path / "order-top.alg"
    path.write_text("algebra\nelements: a 1\norder:\n  1 < a\nop join:\n  a 1\n  1 1\nend\n",
                    encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "parse error: join table does not match the order at (a,1)\n")
