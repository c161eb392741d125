import itertools
import tracemalloc

import pytest

from conftest import (FIG1_NCIS_SRC, FIG1_ORDER_SRC, FIG2_NCIS_SRC,
                      ONE_ELEMENT_SRC, idx)
from oracles import oracle_glb, oracle_lub
from ordalg import (Algebra, BinTable, ClassTag, ParseError, SearchSpec,
                    StructureError, TernTable, Universe, build_algebra,
                    check_divisible, check_ncis_properties, check_rrs_properties,
                    congruence_lattice, derive_residual_imp, derive_sections,
                    enumerate_models, first_table_difference, ialgebra_from_ncis,
                    maltsev_report, ncis_from_rrs, parse_algebra, project_to_class,
                    ralgebra_from_rrs, relabel, rrs_from_ncis, serialize_algebra,
                    term_witness_check, validate_ialgebra, validate_join_semilattice,
                    validate_ncis, validate_ralgebra, validate_rrs,
                    validate_rrs_identities, validate_sectioned, validate_srs)
from ordalg import core


# --- parsing ---------------------------------------------------------------

def test_parse_fig1_order_only(fig1_order):
    assert fig1_order.n == 5
    assert fig1_order.label(fig1_order.top) == "1"
    assert fig1_order.class_tag == ClassTag.JSL
    a, b, c = idx(fig1_order, "a", "b", "c")
    assert fig1_order.join[a][b] == b
    assert fig1_order.join[a][c] == fig1_order.top


def test_parsing_a_100_element_file_streams_the_law_tuples():
    """The arity-3 join laws range over 10^6 triples here: holding them all
    would take about 70 MB, so the law rows stream them."""
    labels = [f"a{i}" for i in range(99)] + ["1"]
    text = ("algebra\nelements: " + " ".join(labels) + "\norder:\n"
            + "".join(f"  {lab} < 1\n" for lab in labels[:-1]) + "end\n")
    tracemalloc.start()
    try:
        alg = parse_algebra(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.n == 100
    assert peak < 5_000_000


def test_parse_fig1_full(fig1):
    assert fig1.class_tag == ClassTag.NCIS
    assert fig1.name == "fig1"
    assert fig1.imp is not None and fig1.meet is not None


def test_parse_one_element(one_element):
    assert one_element.n == 1
    assert one_element.join.values == ((0,),)
    assert one_element.top == 0


def test_parse_bowtie_completion_rejected():
    src = ("algebra\nelements: p q u v 1\norder:\n"
           "  p < u\n  p < v\n  q < u\n  q < v\n  u < 1\n  v < 1\nend\n")
    with pytest.raises(ParseError, match=r"no least upper bound for \(p,q\)"):
        parse_algebra(src)


def test_parse_bowtie_without_top_rejected():
    src = "algebra\nelements: p q u v\norder:\n  p < u\n  p < v\n  q < u\n  q < v\nend\n"
    with pytest.raises(ParseError, match="no unique top"):
        parse_algebra(src)


def test_parse_duplicate_label():
    with pytest.raises(ParseError, match="duplicate label 'a'") as err:
        parse_algebra("algebra\nelements: a b a\nend\n")
    assert err.value.line == 2
    assert err.value.col == 15


def test_parse_reserved_label():
    with pytest.raises(ParseError, match="label may not be"):
        parse_algebra("algebra\nelements: a - 1\nend\n")


def test_parse_non_commutative_join():
    src = ("algebra\nelements: a b 1\nop join:\n"
           "  a a 1\n  b b 1\n  1 1 1\nend\n")
    with pytest.raises(ParseError, match="join-commutative"):
        parse_algebra(src)


def test_parse_join_from_table_only():
    src = ("algebra\nelements: a b 1\nop join:\n"
           "  a 1 1\n  1 b 1\n  1 1 1\nend\n")
    alg = parse_algebra(src)
    a, b = idx(alg, "a", "b")
    assert alg.leq[a][alg.top] and not alg.leq[a][b]


def test_parse_order_join_mismatch():
    src = ("algebra\nelements: a b 1\norder:\n  a < b\n  b < 1\n"
           "op join:\n  a 1 1\n  1 b 1\n  1 1 1\nend\n")
    with pytest.raises(ParseError, match="does not match the order"):
        parse_algebra(src)


def test_parse_meet_domain_mismatch():
    src = FIG1_NCIS_SRC.replace("  a a - - a", "  a a a - a")
    with pytest.raises(ParseError, match=r"meet table domain mismatch at \(a,c\)"):
        parse_algebra(src)


def test_parse_meet_value_mismatch():
    src = FIG1_NCIS_SRC.replace("  a b - - b", "  b b - - b")
    with pytest.raises(ParseError, match="does not match the greatest lower bound"):
        parse_algebra(src)


def test_parse_unknown_element_position():
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra\nelements: a 1\norder:\n  a < z\nend\n")
    assert err.value.line == 4 and err.value.col == 7


def test_parse_text_after_end():
    with pytest.raises(ParseError, match="text after 'end'"):
        parse_algebra(ONE_ELEMENT_SRC + "junk\n")


def test_parse_missing_elements():
    with pytest.raises(ParseError, match="missing 'elements:'"):
        parse_algebra("algebra\nend\n")


def test_parse_undef_in_total_table():
    src = FIG1_NCIS_SRC.replace("  1 1 c d 1\n  a 1 c d 1", "  1 1 - d 1\n  a 1 c d 1")
    with pytest.raises(ParseError, match="not allowed in total table"):
        parse_algebra(src)


def test_parse_comments_and_blank_lines(fig1):
    src = FIG1_NCIS_SRC.replace("algebra\n", "algebra   # the fig1 example\n\n")
    src = src.replace("op imp:", "# arrow block next\nop imp:")
    assert parse_algebra(src) == fig1


# --- serialization round-trips ----------------------------------------------

@pytest.mark.parametrize("src", [FIG1_ORDER_SRC, FIG1_NCIS_SRC, FIG2_NCIS_SRC,
                                 ONE_ELEMENT_SRC])
def test_serialize_parse_roundtrip(src):
    alg = parse_algebra(src)
    text = serialize_algebra(alg)
    again = parse_algebra(text)
    assert again == alg
    assert serialize_algebra(again) == text


# --- basic operations --------------------------------------------------------

def test_leq_examples(fig1):
    a, b, c = idx(fig1, "a", "b", "c")
    le = fig1.leq
    assert le[a][b]
    assert not le[a][c]
    assert all(le[x][fig1.top] for x in range(fig1.n))


def test_join_examples(fig2):
    a, b, c = idx(fig2, "a", "b", "c")
    assert fig2.join[a][b] == fig2.top
    assert fig2.join[a][c] == c
    assert all(fig2.join[x][x] == x for x in range(fig2.n))


def test_common_lower_bounds_examples(fig1, fig2):
    a1, c1 = idx(fig1, "a", "c")
    dn1, dn2 = fig1.downsets, fig2.downsets
    assert dn1[a1] & dn1[c1] == frozenset()
    a2, b2, z2 = idx(fig2, "a", "b", "0")
    assert dn2[a2] & dn2[b2] == frozenset({z2})
    for x in range(fig1.n):
        assert x in dn1[x]
        assert dn1[x] == frozenset(y for y in range(fig1.n) if fig1.leq[y][x])


def test_partial_meet_examples(fig1, fig2):
    a2, b2, c2, d2, z2 = idx(fig2, "a", "b", "c", "d", "0")
    assert fig2.glb[a2][b2] == z2
    assert fig2.glb[c2][d2] is None
    a1, d1 = idx(fig1, "a", "d")
    assert fig1.glb[a1][d1] is None


def test_partial_meet_matches_oracle(fig1, fig2):
    for alg in (fig1, fig2):
        for x in range(alg.n):
            for y in range(alg.n):
                want = oracle_glb(alg.leq, x, y)
                assert alg.glb[x][y] == alg.meet[x][y] == want
                assert (want is None) == (not alg.downsets[x] & alg.downsets[y])


def test_section_examples(fig1, fig2):
    a1 = idx(fig1, "a")
    assert fig1.upsets[a1] == frozenset(idx(fig1, "a", "b", "1"))
    d2 = idx(fig2, "d")
    assert fig2.upsets[d2] == frozenset(idx(fig2, "d", "1"))
    assert fig1.upsets[fig1.top] == {fig1.top}


def test_join_is_lub_against_oracle(fig1, fig2):
    for alg in (fig1, fig2):
        for x in range(alg.n):
            for y in range(alg.n):
                assert alg.join.values[x][y] == oracle_lub(alg.leq, x, y)


# --- join-semilattice validation ---------------------------------------------

def test_validate_jsl_passes(fig1, fig2, one_element):
    for alg in (fig1, fig2, one_element):
        assert validate_join_semilattice(alg).ok


def test_validate_jsl_three_chain():
    alg = parse_algebra("algebra\nelements: 0 a 1\norder:\n  0 < a\n  a < 1\nend\n")
    assert validate_join_semilattice(alg).ok


def test_validate_jsl_commutativity_failure():
    universe = Universe(("a", "b", "1"), 2)
    jv = BinTable.from_rows([[0, 0, 2], [1, 1, 2], [2, 2, 2]], total=True)
    rep = validate_join_semilattice(Algebra(universe, jv))
    assert not rep.ok
    assert rep.axiom == "join-commutative"
    assert rep.witness == ("a", "b")


def test_build_algebra_infers_tags(fig1_order):
    alg = build_algebra(["x", "1"], order_pairs=[(0, 1)])
    assert alg.class_tag == ClassTag.JSL
    assert fig1_order.class_tag == ClassTag.JSL


def test_build_algebra_takes_its_tables_by_slot(fig1):
    tables = {name: t.values for name, t in fig1.tables()}
    built = build_algebra(fig1.labels, tables=tables, name=fig1.name)
    assert built.tables() == fig1.tables()
    with pytest.raises(StructureError, match=r"^unknown operation slot 'implication'$"):
        build_algebra(fig1.labels, tables={**tables, "implication": tables["imp"]})


# the chain a < 1, which each case below breaks in one table or pair
_CHAIN = {"join": [[0, 1], [1, 1]]}


@pytest.mark.parametrize("kw, message", [
    pytest.param({"tables": {"join": [[0, 1], [1]]}}, "binary table is not square",
                 id="short-join-row"),
    pytest.param({"tables": {**_CHAIN, "imp": [[1, 1, 1], [0, 1]]}},
                 "binary table is not square", id="long-row"),
    pytest.param({"tables": {**_CHAIN, "imp": [[1, 2], [0, 1]]}},
                 "table entry out of range", id="out-of-range-entry"),
    pytest.param({"tables": {**_CHAIN, "imp": [[1, None], [0, 1]]}},
                 "undefined entry in total table", id="undefined-in-total-table"),
    pytest.param({"tables": {**_CHAIN, "imp": [[1, "x"], [0, 1]]}},
                 "table entry out of range", id="non-integer-entry"),
    pytest.param({"tables": {**_CHAIN, "r": [[[0, 1], [1, 1]], [[1, 1]]]}},
                 "ternary table is not cubic", id="short-ternary-plane"),
    pytest.param({"order_pairs": [(0, 5)]}, "order pair out of range",
                 id="order-pair-out-of-range"),
    # an int-valued cell of another type equals an element index, so the
    # type is checked too
    pytest.param({"tables": {**_CHAIN, "imp": [[1, 1.0], [0, 1]]}},
                 "table entry out of range", id="float-entry"),
    pytest.param({"tables": {**_CHAIN, "imp": [[1, True], [0, 1]]}},
                 "table entry out of range", id="bool-entry"),
    pytest.param({"tables": {**_CHAIN, "imp": [[1, [1]], [0, 1]]}},
                 "table entry out of range", id="list-entry"),
    pytest.param({"tables": {**_CHAIN, "prod": [[0, 1.0], [None, 1]]}},
                 "table entry out of range", id="float-entry-in-partial-table"),
    pytest.param({"tables": {**_CHAIN, "r": [[[0, 1], [1, True]], [[1, 1], [1, 1]]]}},
                 "ternary table entry out of range", id="bool-ternary-entry"),
    pytest.param({"tables": {**_CHAIN, "imp": [[1, 1], 0]}},
                 "binary table is not square", id="int-row"),
    pytest.param({"tables": {"join": [[0, 1], 1]}},
                 "binary table is not square", id="int-join-row"),
    pytest.param({"tables": {**_CHAIN, "r": [[[0, 1], [1, 1]], 1]}},
                 "ternary table is not cubic", id="int-ternary-plane"),
    pytest.param({"order_pairs": [(0, 1, 1)]}, "order pair out of range",
                 id="three-element-order-pair"),
    pytest.param({"order_pairs": [(0.0, 1)]}, "order pair out of range",
                 id="float-order-pair"),
    pytest.param({"order_pairs": [(True, 1)]}, "order pair out of range",
                 id="bool-order-pair"),
    pytest.param({"order_pairs": [0]}, "order pair out of range", id="int-order-pair"),
])
def test_build_algebra_refuses_malformed_input(kw, message):
    # the one check of a table's shape and entries, before anything reads it
    with pytest.raises(StructureError, match=fr"^{message}$"):
        build_algebra(["a", "1"], **kw)


def test_universe_rejects_bad_labels():
    from ordalg import StructureError
    with pytest.raises(StructureError):
        Universe(("a", "a"), 0)
    with pytest.raises(StructureError):
        Universe(("-",), 0)
    with pytest.raises(StructureError):
        Universe(("",), 0)
    with pytest.raises(StructureError, match=r"^invalid label 'a#b'$"):
        build_algebra(["a#b", "1"], order_pairs=[(0, 1)])


def test_parse_non_associative_join():
    # three atoms below the top, with a v b = c but a v c = 1
    src = ("algebra\nelements: a b c 1\nop join:\n"
           "  a c 1 1\n  c b 1 1\n  1 1 c 1\n  1 1 1 1\nend\n")
    with pytest.raises(ParseError, match="join-associative"):
        parse_algebra(src)


def test_replace_carries_order_caches_only_over_the_same_order(fig1):
    # the order is read off the join table, so the same join is the same order
    leq, glb, pc = fig1.leq, fig1.glb, fig1.pc
    renamed = fig1.replace(name="other", imp=None)
    assert all(renamed.__dict__[name] is cache
               for name, cache in (("leq", leq), ("glb", glb), ("pc", pc)))
    assert (renamed.name, renamed.imp, renamed.join) == ("other", None, fig1.join)
    rejoined = fig1.replace(join=BinTable(fig1.join.values, total=True))
    assert not {"leq", "glb", "pc"} & rejoined.__dict__.keys()
    assert (rejoined.leq, rejoined.glb) == (leq, glb)


@pytest.mark.parametrize("tag, validate", [(ClassTag.NCIS, validate_ncis),
                                           (ClassTag.SECTIONED, validate_sectioned)])
def test_parsed_algebra_keeps_the_glb_that_checked_its_meet(monkeypatch, tag, validate):
    """`build_algebra` hands on the glb table it built to check a stored
    meet, so parsing and validating a file builds one glb table."""
    texts = [serialize_algebra(m) for m in enumerate_models(SearchSpec(tag, 6))]
    calls = []
    real = core.glb_table
    monkeypatch.setattr(core, "glb_table", lambda *a: calls.append(a) or real(*a))
    assert all(validate(parse_algebra(text)).ok for text in texts)
    assert (len(texts), len(calls)) == (45, 45)


@pytest.mark.parametrize("call", [
    validate_ncis, check_ncis_properties, derive_sections, validate_rrs,
    validate_srs, validate_ialgebra, validate_ralgebra, ialgebra_from_ncis,
    term_witness_check, lambda a: project_to_class(a, ClassTag.RRS),
    check_divisible, check_rrs_properties, validate_rrs_identities,
    rrs_from_ncis, ncis_from_rrs, congruence_lattice, maltsev_report])
def test_a_missing_table_has_one_message(fig1_order, call):
    with pytest.raises(StructureError, match=r"^this operation requires an imp table$"):
        call(fig1_order)


def test_the_missing_table_message_names_the_table(fig1, fig1_order):
    with pytest.raises(StructureError, match=r"^this operation requires a prod table$"):
        derive_residual_imp(fig1_order)
    with pytest.raises(StructureError, match=r"^this operation requires a prod table$"):
        validate_srs(fig1)
    with pytest.raises(StructureError, match=r"^this operation requires an r table$"):
        validate_ialgebra(fig1)
    with pytest.raises(StructureError, match=r"^this operation requires a q table$"):
        validate_ralgebra(fig1)
    with pytest.raises(StructureError, match=r"^this operation requires an r or q table$"):
        term_witness_check(fig1.replace(meet=None))


# --- ternary tables: relabel and the table diff ------------------------------

def _set_cell(table: TernTable, cell: tuple[int, int, int], value: int) -> TernTable:
    vals = [[list(row) for row in plane] for plane in table.values]
    i, j, k = cell
    vals[i][j][k] = value
    return TernTable(tuple(tuple(tuple(row) for row in plane) for plane in vals))


def test_first_table_difference_names_the_first_differing_ternary_cell(fig1, fig1_rrs):
    ia, ra = ialgebra_from_ncis(fig1), ralgebra_from_rrs(fig1_rrs)
    assert first_table_difference(ia, ia) is None
    assert first_table_difference(ra, ra) is None
    # (d,a,c) comes after (b,c,d) in the scan, so (b,c,d) is named
    changed = ia.replace(r=_set_cell(_set_cell(ia.r, (3, 0, 2), 0), (1, 2, 3), 4))
    assert first_table_difference(ia, changed) == ("r", ("b", "c", "d"), "d", "1")
    assert first_table_difference(changed, ia) == ("r", ("b", "c", "d"), "1", "d")
    changed = ra.replace(q=_set_cell(ra.q, (0, 4, 1), 2))
    assert first_table_difference(ra, changed) == ("q", ("a", "1", "b"), "b", "c")


def test_first_table_difference_reports_a_one_sided_ternary_table(fig1, fig1_rrs):
    ia, ra = ialgebra_from_ncis(fig1), ralgebra_from_rrs(fig1_rrs)
    assert first_table_difference(ia, ia.replace(r=None)) == ("r", (), "present", "-")
    assert first_table_difference(ia.replace(r=None), ia) == ("r", (), "-", "present")
    assert first_table_difference(ra.replace(q=None), ra) == ("q", (), "-", "present")
    # r comes before q, and a one-sided imp before either
    assert first_table_difference(ia, ra) == ("r", (), "present", "-")
    assert first_table_difference(ra, ia) == ("r", (), "-", "present")
    assert first_table_difference(ia.replace(imp=None), ra) == ("imp", (), "-", "present")


def test_relabel_moves_every_table_cell(fig1, fig1_rrs):
    p = [2, 0, 3, 1, 4]

    def cell(values, coords):
        for c in coords:
            values = values[c]
        return values

    for alg in (ialgebra_from_ncis(fig1), ralgebra_from_rrs(fig1_rrs), fig1):
        moved = relabel(alg, p)
        assert moved.labels == ("b", "d", "a", "c", "1")
        for name, table in alg.tables():
            arity = 3 if isinstance(table, TernTable) else 2
            for coords in itertools.product(range(5), repeat=arity):
                v = cell(table.values, coords)
                assert cell(getattr(moved, name).values, [p[c] for c in coords]) == \
                    (None if v is None else p[v])
        assert relabel(moved, [p.index(i) for i in range(5)]) == alg
