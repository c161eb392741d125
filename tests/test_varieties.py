import pytest

from conftest import idx
from oracles import oracle_glb
from ordalg import (ClassTag, StructureError, TernTable, ialgebra_from_ncis,
                    ncis_from_ialgebra, parse_algebra, ralgebra_from_rrs,
                    rrs_from_ralgebra, validate_ialgebra, validate_ralgebra)


@pytest.fixture(scope="module")
def ia1(fig1):
    return ialgebra_from_ncis(fig1)


@pytest.fixture(scope="module")
def ia2(fig2):
    return ialgebra_from_ncis(fig2)


@pytest.fixture(scope="module")
def ra1(fig1_rrs):
    return ralgebra_from_rrs(fig1_rrs)


@pytest.fixture(scope="module")
def ra2(fig2_rrs):
    return ralgebra_from_rrs(fig2_rrs)


def test_r_spot_values(ia2, fig2):
    a, b, z = idx(fig2, "a", "b", "0")
    assert ia2.r.values[a][b][z] == z  # (a v 0) ^ (b v 0) = a ^ b = 0
    assert ia2.class_tag == ClassTag.IALG and ia2.meet is None


def test_r_diagonal_is_join(ia1, ia2):
    for ia in (ia1, ia2):
        for x in range(ia.n):
            for y in range(ia.n):
                assert ia.r.values[x][x][y] == ia.join[x][y]
                assert ia.r.values[x][y][ia.top] == ia.top


def test_r_equals_order_infimum(ia1, ia2):
    for ia in (ia1, ia2):
        jv = ia.join.values
        for x in range(ia.n):
            for y in range(ia.n):
                for z in range(ia.n):
                    assert ia.r.values[x][y][z] == \
                        oracle_glb(ia.leq, jv[x][z], jv[y][z])


def test_validate_ialgebra(ia1, ia2):
    assert validate_ialgebra(ia1).ok
    assert validate_ialgebra(ia2).ok


def test_validate_ialgebra_corrupt_r(ia2):
    # corrupting r(a,b,0) to the top violates several identities; the first
    # in numeric scan order is (2'), since a->0 = b makes it evaluate the
    # corrupted cell, and (5')/(6') would catch it at (a,b,0) as well
    a, b, z = idx(ia2, "a", "b", "0")
    rv = [[list(col) for col in plane] for plane in ia2.r.values]
    rv[a][b][z] = ia2.top
    bad = ia2.replace(r=TernTable(tuple(tuple(tuple(col) for col in plane)
                                        for plane in rv)))
    rep = validate_ialgebra(bad)
    assert not rep.ok
    assert rep.axiom == "(2')"
    assert rep.witness == ("a", "0")
    assert rep.lhs == "1" and rep.rhs == "0"


def test_ncis_ialgebra_roundtrip(fig1, fig2, ia1, ia2):
    assert ncis_from_ialgebra(ia1) == fig1
    assert ncis_from_ialgebra(ia2) == fig2
    assert ialgebra_from_ncis(ncis_from_ialgebra(ia1)) == ia1


def test_ncis_from_ialgebra_undef_on_unbounded(ia1):
    a, c = idx(ia1, "a", "c")
    assert ncis_from_ialgebra(ia1).meet.values[a][c] is None


def test_r_not_well_defined(ia2):
    c, z, a = idx(ia2, "c", "0", "a")
    top = ia2.top
    rv = [[list(col) for col in plane] for plane in ia2.r.values]
    rv[c][top][z] = z  # disagrees with the value over lower bound a
    bad = ia2.replace(r=TernTable(tuple(tuple(tuple(col) for col in plane)
                                        for plane in rv)))
    with pytest.raises(StructureError, match="r not well-defined"):
        ncis_from_ialgebra(bad)


def test_ncis_from_ialgebra_checks_the_meet_it_reads_back():
    # r is well defined, but r(a,1,a) = 1 is not the glb a of a and 1
    alg = parse_algebra("algebra\nelements: a 1\nop join:\n  a 1\n  1 1\n"
                        "op imp:\n  1 1\n  a 1\nop r:\n  a 1\n  1 1\n\n  1 1\n  1 1\nend\n")
    with pytest.raises(StructureError, match=r"^meet table does not match the "
                                             r"greatest lower bound at \(a,1\)$"):
        ncis_from_ialgebra(alg)


def test_q_spot_values(ra1, fig1):
    a, c = idx(fig1, "a", "c")
    assert ra1.q.values[a][c][a] == a  # (a v a) . (c v a) = a . 1 = a
    for ra in (ra1,):
        for x in range(ra.n):
            assert ra.q.values[x][ra.top][x] == x
            assert ra.q.values[ra.top][x][x] == x
            for y in range(ra.n):
                assert ra.q.values[x][y][ra.top] == ra.top


def test_validate_ralgebra(ra1, ra2):
    assert validate_ralgebra(ra1).ok
    assert validate_ralgebra(ra2).ok
    # both products here are meets, so the divisibility identity holds too
    assert validate_ralgebra(ra1, subvariety=True).ok
    assert validate_ralgebra(ra2, subvariety=True).ok


def test_q_commutes_in_first_two_arguments(ra2):
    a, b, z = idx(ra2, "a", "b", "0")
    assert ra2.q.values[a][b][z] == ra2.q.values[b][a][z]


def test_validate_ralgebra_corrupt_q(ra2):
    z = idx(ra2, "0")
    qv = [[list(col) for col in plane] for plane in ra2.q.values]
    qv[z][z][z] = ra2.top  # breaks (20)? no: raises value above z... breaks (22)
    bad = ra2.replace(q=TernTable(tuple(tuple(tuple(col) for col in plane)
                                        for plane in qv)))
    rep = validate_ralgebra(bad)
    assert not rep.ok


def test_validate_ralgebra_breaks_20(ra1):
    a, c = idx(ra1, "a", "c")
    qv = [[list(col) for col in plane] for plane in ra1.q.values]
    qv[a][c][c] = a  # r-value below the third argument c
    bad = ra1.replace(q=TernTable(tuple(tuple(tuple(col) for col in plane)
                                        for plane in qv)))
    rep = validate_ralgebra(bad)
    assert not rep.ok
    assert rep.axiom == "(20)"
    assert rep.witness == ("a", "c", "c")


def test_rrs_ralgebra_roundtrip(fig1_rrs, fig2_rrs, ra1, ra2):
    assert rrs_from_ralgebra(ra1) == fig1_rrs
    assert rrs_from_ralgebra(ra2) == fig2_rrs
    assert ralgebra_from_rrs(rrs_from_ralgebra(ra2)) == ra2


def test_q_not_well_defined(ra2):
    c, z = idx(ra2, "c", "0")
    top = ra2.top
    qv = [[list(col) for col in plane] for plane in ra2.q.values]
    qv[c][top][z] = z
    bad = ra2.replace(q=TernTable(tuple(tuple(tuple(col) for col in plane)
                                        for plane in qv)))
    with pytest.raises(StructureError, match="q not well-defined"):
        rrs_from_ralgebra(bad)


def test_one_element_ialgebra(one_element):
    from ordalg import BinTable
    one = one_element.replace(imp=BinTable.from_rows([[0]], total=True),
                              meet=BinTable.from_rows([[0]], total=False))
    ia = ialgebra_from_ncis(one)
    assert validate_ialgebra(ia).ok
    assert ncis_from_ialgebra(ia) == one


def test_q_monotone_in_first_argument(ra1, ra2):
    # derived from the identities: joining the first argument up can only
    # raise the value
    for ra in (ra1, ra2):
        jv, qv, le = ra.join.values, ra.q.values, ra.leq
        for x in range(ra.n):
            for w in range(ra.n):
                for y in range(ra.n):
                    for z in range(ra.n):
                        assert le[qv[x][y][z]][qv[jv[x][w]][y][z]]


@pytest.mark.parametrize("source, slot, noun, convert", [
    ("fig1_rrs", "prod", "product", ralgebra_from_rrs)])
def test_lift_rejects_an_undefined_bounded_cell(request, source, slot, noun, convert):
    # raw constructor only: no validator has passed this product; the lifted
    # meet is the glb, which z bounds, so it has no such case
    from ordalg import BinTable
    alg = request.getfixturevalue(source)
    a, b = idx(alg, "a", "b")
    rows = [list(row) for row in getattr(alg, slot).values]
    rows[a][b] = None
    broken = alg.replace(**{slot: BinTable.from_rows(rows, total=False)})
    with pytest.raises(StructureError,
                       match=fr"^{noun} undefined on a bounded pair at \(a,b,a\)$"):
        convert(broken)
