import pytest

from conftest import idx
from ordalg import (BinTable, ClassTag, StructureError, check_ncis_properties,
                    derive_implication, derive_sections, validate_ncis)


def test_derive_reproduces_fig1_arrow(fig1_order, fig1):
    derived = derive_implication(fig1_order)
    assert derived.imp.values == fig1.imp.values
    assert derived.meet.values == fig1.meet.values
    assert derived.class_tag == ClassTag.NCIS


def test_derive_reproduces_fig2_arrow(fig2_order, fig2):
    derived = derive_implication(fig2_order)
    assert derived.imp.values == fig2.imp.values
    assert derived.meet.values == fig2.meet.values


def test_derive_spot_values(fig1, fig2):
    b1, a1 = idx(fig1, "b", "a")
    assert derive_implication(fig1).imp.values[b1][a1] == a1
    d2, z2 = idx(fig2, "d", "0")
    assert derive_implication(fig2).imp.values[d2][z2] == z2


def test_derive_top_row_is_identity(fig1_order, fig2_order):
    for alg in (fig1_order, fig2_order):
        derived = derive_implication(alg)
        for x in range(alg.n):
            assert derived.imp.values[alg.top][x] == x


def test_derive_rejects_non_sectioned():
    from ordalg import build_algebra
    m3 = build_algebra(["0", "p", "q", "r", "1"],
                       order_pairs=[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    with pytest.raises(StructureError, match="not sectioned"):
        derive_implication(m3)


def test_derive_sections_reads_pseudocomplements(fig1, fig2):
    a2, b2, z2 = idx(fig2, "a", "b", "0")
    sec2 = derive_sections(fig2)
    assert sec2.pc[z2][a2] == fig2.imp.values[a2][z2] == b2
    d1, c1 = idx(fig1, "d", "c")
    sec1 = derive_sections(fig1)
    assert sec1.pc[c1][d1] == fig1.imp.values[d1][c1] == c1
    for alg in (fig1, fig2):
        for x in range(alg.n):
            assert alg.imp.values[alg.top][x] == x


def test_roundtrip_sectioned_ncis(fig1, fig2):
    for alg in (fig1, fig2):
        sec = derive_sections(alg)
        again = derive_implication(sec)
        assert again == alg.replace(meet=again.meet) or again == alg
        assert again.imp.values == alg.imp.values
        assert again.meet.values == alg.meet.values


def test_roundtrip_from_sectioned_side(fig1_order):
    sec = fig1_order.replace(meet=fig1_order.glb)
    back = derive_sections(derive_implication(sec))
    assert back == sec


def test_validate_ncis_passes(fig1, fig2, one_element):
    assert validate_ncis(fig1).ok
    assert validate_ncis(fig2).ok
    one = one_element.replace(imp=BinTable.from_rows([[0]], total=True))
    assert validate_ncis(one).ok


def test_validate_ncis_corrupt_arrow(fig1):
    b, a = idx(fig1, "b", "a")
    iv = [list(row) for row in fig1.imp.values]
    iv[b][a] = fig1.top
    bad = fig1.replace(imp=BinTable.from_rows(iv, total=True))
    rep = validate_ncis(bad)
    assert not rep.ok
    assert rep.axiom == "(2)"
    assert rep.witness == ("b", "a")
    assert rep.lhs == "b" and rep.rhs == "a"


def test_ncis_properties_pass(fig1, fig2):
    assert check_ncis_properties(fig1).ok
    assert check_ncis_properties(fig2).ok


def test_property_instances(fig1, fig2):
    a2, z2, b2, c2 = idx(fig2, "a", "0", "b", "c")
    iv2 = fig2.imp.values
    assert iv2[iv2[a2][z2]][z2] == c2          # (a->0)->0 = b->0 = c
    assert fig2.leq[a2][c2]             # so (7) holds at (a, 0)
    b1, a1 = idx(fig1, "b", "a")
    iv1 = fig1.imp.values
    assert iv1[iv1[iv1[b1][a1]][a1]][a1] == iv1[b1][a1]  # (8) at (b, a)


def test_arrow_top_characterizes_order(fig1, fig2):
    # consistency of (5): x->y = 1 exactly on comparable pairs
    for alg in (fig1, fig2):
        for x in range(alg.n):
            for y in range(alg.n):
                assert (alg.imp.values[x][y] == alg.top) == alg.leq[x][y]


def test_validate_requires_imp(fig1_order):
    with pytest.raises(StructureError, match="requires an imp table"):
        validate_ncis(fig1_order)
