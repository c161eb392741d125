import pytest

from conftest import idx
from oracles import has_meets_on_bounded_pairs
from ordalg import (BinTable, BridgeError, ClassTag, build_algebra,
                    check_divisible, check_rrs_properties, derive_residual_imp,
                    ncis_from_rrs, parse_algebra, rrs_from_ncis,
                    validate_rrs, validate_rrs_identities, validate_srs)


@pytest.fixture(scope="module")
def three_chain_table():
    """A 3-chain with a non-idempotent product a . a = 0.

    Divisible and residuated in spirit, but it breaks the lower-bound law of
    the product domain (a is a common lower bound of (a, a) yet a is not
    below a . a = 0), so the full validator rejects it.
    """
    chain = parse_algebra("algebra\nelements: 0 a 1\norder:\n  0 < a\n  a < 1\nend\n")
    prod = BinTable.from_rows([[0, 0, 0], [0, 0, 1], [0, 1, 2]], total=False)
    imp = BinTable.from_rows([[2, 2, 2], [1, 2, 2], [0, 1, 2]], total=True)
    return chain.replace(prod=prod, imp=imp)


def test_validate_rrs_passes(fig1_rrs, fig2_rrs):
    assert validate_rrs(fig1_rrs).ok
    assert validate_rrs(fig2_rrs).ok


def test_validate_rrs_corrupt_product(fig1_rrs):
    a, b = idx(fig1_rrs, "a", "b")
    pv = [list(row) for row in fig1_rrs.prod.values]
    pv[a][b] = fig1_rrs.top
    bad = fig1_rrs.replace(prod=BinTable.from_rows(pv, total=False))
    rep = validate_rrs(bad)
    assert not rep.ok
    assert rep.axiom == "(14)/(11)"
    assert rep.witness == ("a", "b")
    assert rep.lhs == "1" and rep.rhs == "a"


def test_validate_rrs_domain_failure(fig1_rrs):
    a, c = idx(fig1_rrs, "a", "c")
    pv = [list(row) for row in fig1_rrs.prod.values]
    pv[a][c] = a
    bad = fig1_rrs.replace(prod=BinTable.from_rows(pv, total=False))
    rep = validate_rrs(bad)
    assert not rep.ok and rep.axiom == "domain"


def test_identities_pass_and_agree(fig1_rrs, fig2_rrs):
    for alg in (fig1_rrs, fig2_rrs):
        rep = validate_rrs_identities(alg)
        assert rep.ok
        assert rep.ok == validate_rrs(alg).ok


def test_identity_instances(fig1_rrs, fig2_rrs):
    b2, a2 = idx(fig2_rrs, "b", "a")
    assert fig2_rrs.imp.values[b2][a2] == a2          # (18) instance: a <= b->a = a
    b1, a1 = idx(fig1_rrs, "b", "a")
    jv, pv, iv = fig1_rrs.join.values, fig1_rrs.prod.values, fig1_rrs.imp.values
    assert pv[jv[b1][a1]][iv[b1][a1]] == a1           # (19) instance evaluates to a


def test_check_divisible(fig1_rrs, fig2_rrs):
    assert check_divisible(fig1_rrs).ok
    assert check_divisible(fig2_rrs).ok


def test_check_divisible_failure_witness(fig1_rrs):
    a, b = idx(fig1_rrs, "a", "b")
    pv = [list(row) for row in fig1_rrs.prod.values]
    pv[b][a] = b  # (b v a) . (b -> a) evaluates this cell and must give a
    bad = fig1_rrs.replace(prod=BinTable.from_rows(pv, total=False))
    rep = check_divisible(bad)
    assert not rep.ok and rep.axiom == "divisible"
    assert rep.witness == ("b", "a")


def test_rrs_properties(fig1_rrs, fig2_rrs):
    assert check_rrs_properties(fig1_rrs).ok
    assert check_rrs_properties(fig2_rrs).ok


def test_rrs_property_instances(fig2_rrs):
    a, c, z, d = idx(fig2_rrs, "a", "c", "0", "d")
    pv, iv = fig2_rrs.prod.values, fig2_rrs.imp.values
    assert pv[a][c] == a                               # (iii) instance a . c = a ^ c
    assert iv[iv[iv[d][z]][z]][z] == iv[d][z] == z     # (viii) instance at (d, 0)


def test_validate_srs_passes(fig1_rrs, fig2_rrs):
    assert validate_srs(fig1_rrs).ok
    assert validate_srs(fig2_rrs).ok


def test_validate_srs_non_associative_family(fig2_rrs):
    a, b, c = idx(fig2_rrs, "a", "b", "c")
    pv = [list(row) for row in fig2_rrs.prod.values]
    pv[a][b] = pv[b][a] = c  # was 0; breaks associativity in [0,1]
    bad = fig2_rrs.replace(prod=BinTable.from_rows(pv, total=False))
    rep = validate_srs(bad)
    assert rep.fail_line() == "FAIL axiom=monoid-associative witness=(0,a,a,b) lhs=c rhs=a"


def test_validate_srs_adjointness_failure(fig2_rrs):
    a, z = idx(fig2_rrs, "a", "0")
    iv = [list(row) for row in fig2_rrs.imp.values]
    iv[a][z] = fig2_rrs.top  # a->0 lifted from b to 1
    bad = fig2_rrs.replace(imp=BinTable.from_rows(iv, total=True))
    rep = validate_srs(bad)
    assert not rep.ok
    assert rep.axiom == "(iii)"


def test_validate_srs_product_outside_sections(fig1_rrs):
    b, c = idx(fig1_rrs, "b", "c")  # b and c have no common lower bound
    pv = [list(row) for row in fig1_rrs.prod.values]
    pv[b][c] = fig1_rrs.top
    bad = fig1_rrs.replace(prod=BinTable.from_rows(pv, total=False))
    rep = validate_srs(bad)
    assert rep.fail_line() == "FAIL axiom=domain witness=(b,c) lhs=1 rhs=-"


def test_bridge_to_rrs(fig2):
    out = rrs_from_ncis(fig2)
    assert out.class_tag == ClassTag.RRS
    assert out.prod.values == fig2.meet.values
    assert out.meet is None
    assert validate_rrs(out).ok and check_divisible(out).ok


def test_bridge_roundtrip(fig1, fig2):
    for alg in (fig1, fig2):
        back = ncis_from_rrs(rrs_from_ncis(alg))
        assert back.meet.values == alg.meet.values
        assert back.imp.values == alg.imp.values


def test_bridge_one_element(one_element):
    one = one_element.replace(imp=BinTable.from_rows([[0]], total=True),
                              meet=BinTable.from_rows([[0]], total=False))
    rrs = rrs_from_ncis(one)
    assert ncis_from_rrs(rrs).meet.values == ((0,),)


def test_three_chain_table_fails_preamble(three_chain_table):
    rep = validate_rrs(three_chain_table)
    assert not rep.ok
    assert rep.axiom == "preamble"
    assert rep.witness == ("a", "a")


def test_three_chain_table_is_divisible_but_not_idempotent(three_chain_table):
    assert check_divisible(three_chain_table).ok
    with pytest.raises(BridgeError) as err:
        ncis_from_rrs(three_chain_table)
    assert err.value.report.axiom == "(i)"
    assert err.value.report.witness == ("a",)


def test_has_meets_on_bounded_pairs(fig1_rrs, fig2_rrs):
    for alg in (fig1_rrs, fig2_rrs):
        assert has_meets_on_bounded_pairs(alg)
        alg.glb  # raises StructureError where a bounded pair has no glb


def test_derive_residual_imp_recovers_arrow(fig1_rrs, fig2_rrs):
    for alg in (fig1_rrs, fig2_rrs):
        derived = derive_residual_imp(alg)
        assert derived.values == alg.imp.values


def test_derive_residual_imp_fails_on_m3():
    from ordalg import glb_table
    m3 = build_algebra(["0", "p", "q", "r", "1"],
                       order_pairs=[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    with_prod = m3.replace(prod=glb_table(m3.leq))
    assert derive_residual_imp(with_prod) is None
