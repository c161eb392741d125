import pytest

from conftest import idx, labs
from oracles import oracle_pseudocomplement
from ordalg import BinTable, build_algebra, section_shape_report, validate_sectioned


@pytest.fixture(scope="module")
def m3():
    # diamond: three incomparable atoms between bottom and top
    return build_algebra(["0", "p", "q", "r", "1"],
                         order_pairs=[(0, 1), (0, 2), (0, 3),
                                      (1, 4), (2, 4), (3, 4)])


def _section(alg, base):
    return sorted(alg.upsets[base])


def test_pseudocomplement_fig2_examples(fig2):
    z, a, b = idx(fig2, "0", "a", "b")
    assert fig2.pc[z][a] == b
    assert fig2.pc[z][fig2.top] == z


def test_pseudocomplement_of_base_is_top(fig1, fig2):
    for alg in (fig1, fig2):
        for x in range(alg.n):
            assert alg.pc[x][x] == alg.top


def test_pseudocomplement_matches_oracle(fig1, fig2):
    for alg in (fig1, fig2):
        for base in range(alg.n):
            for y in _section(alg, base):
                assert alg.pc[base][y] == oracle_pseudocomplement(alg.leq, base, y)
    # y outside [base, 1] has none
    a, b, c = idx(fig1, "a", "b", "c")
    assert fig1.pc[a][c] is None and fig1.pc[a][b] == a


def test_validate_sectioned_passes(fig1, fig2, one_element):
    for alg in (fig1, fig2, one_element):
        assert validate_sectioned(alg).ok


def test_validate_sectioned_m3_fails(m3):
    rep = validate_sectioned(m3)
    assert not rep.ok
    assert rep.axiom == "(b)"
    assert rep.witness == ("0", "p")
    # the table and the oracle agree that p has no pseudocomplement over 0
    assert m3.pc[0][1] is None
    assert oracle_pseudocomplement(m3.leq, 0, 1) is None


def test_shape_fig2_base_bottom_is_pentagon(fig2):
    shape = section_shape_report(fig2, idx(fig2, "0"))
    assert not shape.modular
    assert not shape.distributive
    assert shape.witness_kind == "N5"
    assert labs(fig2, shape.witness) == ("0", "a", "c", "b", "1")


def test_shape_chains_are_distributive(fig1, fig2):
    shape = section_shape_report(fig1, idx(fig1, "a"))
    assert shape.distributive and shape.modular and shape.witness is None
    shape = section_shape_report(fig2, idx(fig2, "d"))
    assert shape.distributive and shape.modular


def test_shape_m3_is_modular_not_distributive(m3):
    shape = section_shape_report(m3, 0)
    assert shape.modular and not shape.distributive
    assert shape.witness_kind == "M3"
    assert labs(m3, shape.witness) == ("0", "p", "q", "r", "1")


def test_shape_of_a_section_with_an_undefined_stored_meet(fig1):
    # the shape is read off the glb, so a broken stored meet is not read
    b, one = idx(fig1, "b", "1")
    rows = [list(row) for row in fig1.meet.values]
    rows[b][one] = None
    broken = fig1.replace(meet=BinTable.from_rows(rows, total=False))
    for base in range(fig1.n):
        assert section_shape_report(broken, base) == section_shape_report(fig1, base)


def test_pseudocomplement_antitone(fig1, fig2):
    # base <= u <= v implies pc(v) <= pc(u)
    for alg in (fig1, fig2):
        le = alg.leq
        for base in range(alg.n):
            sec = _section(alg, base)
            for u in sec:
                for v in sec:
                    if le[u][v]:
                        assert le[alg.pc[base][v]][alg.pc[base][u]]


def test_pseudocomplement_double_negation(fig1, fig2):
    for alg in (fig1, fig2):
        for base in range(alg.n):
            for y in _section(alg, base):
                assert alg.leq[y][alg.pc[base][alg.pc[base][y]]]


def test_pseudocomplement_meet_law(fig1, fig2):
    for alg in (fig1, fig2):
        for base in range(alg.n):
            for y in _section(alg, base):
                assert alg.glb[y][alg.pc[base][y]] == base


def test_pc_table_matches_oracle_on_every_jsl_model_up_to_size_6():
    from ordalg import ClassTag, SearchSpec, enumerate_models
    missing = 0
    for n in range(1, 7):
        for alg in enumerate_models(SearchSpec(ClassTag.JSL, n)):
            for base in range(n):
                for y in range(n):
                    want = oracle_pseudocomplement(alg.leq, base, y)
                    assert alg.pc[base][y] == want, (alg.name, base, y)
                    missing += want is None and alg.leq[base][y]
    # the non-sectioned models contribute entries without a pseudocomplement
    assert missing > 0
