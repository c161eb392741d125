import itertools
import random

import pytest

from conftest import idx
from oracles import (all_partitions, is_compatible, oracle_chain_holds,
                     oracle_congruences, oracle_distributivity_failure,
                     oracle_maltsev, oracle_principal)
from ordalg import (BinTable, ClassTag, Partition, SearchSpec, TernTable,
                    congruence, congruence_lattice, enumerate_models, ialgebra_from_ncis,
                    maltsev_report, parse_algebra, principal_congruence,
                    ralgebra_from_rrs, term_witness_check)


@pytest.fixture(scope="module")
def ia1(fig1):
    return ialgebra_from_ncis(fig1)


@pytest.fixture(scope="module")
def ia2(fig2):
    return ialgebra_from_ncis(fig2)


@pytest.fixture(scope="module")
def two_chain():
    """Two-element algebra with the classical arrow and derived r."""
    src = "algebra\nelements: 0 1\norder:\n  0 < 1\nend\n"
    from ordalg import derive_implication
    return ialgebra_from_ncis(derive_implication(parse_algebra(src)))


# --- partitions ---------------------------------------------------------------

def test_partition_canonical_form():
    p = Partition.from_blocks(4, [[2, 3], [0], [1]])
    assert p.class_of == (0, 1, 2, 2)
    assert p.blocks() == ((0,), (1,), (2, 3))
    assert p.notation("abcd") == "{a}{b}{c,d}"


def test_partition_lattice_ops():
    a = Partition.from_blocks(4, [[0, 1], [2], [3]])
    b = Partition.from_blocks(4, [[1, 2], [0], [3]])
    assert a.join_with(b).class_of == (0, 0, 0, 3)
    assert a.meet(b).class_of == (0, 1, 2, 3)
    assert Partition.identity(4).refines(a)
    assert a.refines(Partition.single_class(4))
    assert not a.refines(b)


def test_all_partitions_counts():
    assert len(all_partitions(4)) == 15
    assert len(all_partitions(5)) == 52
    assert len(all_partitions(6)) == 203


# --- principal congruences -----------------------------------------------------

def test_principal_reflexive_is_identity(ia1):
    for x in range(ia1.n):
        assert principal_congruence(ia1, x, x) == Partition.identity(ia1.n)


def test_two_chain_congruences(two_chain):
    assert principal_congruence(two_chain, 0, 1) == Partition.single_class(2)
    lat = congruence_lattice(two_chain)
    assert lat.size == 2


def test_principal_fig1_matches_oracle(ia1):
    a, b = idx(ia1, "a", "b")
    got = principal_congruence(ia1, a, b)
    assert got == oracle_principal(ia1, a, b)
    assert got.notation(ia1.labels) == "{a,b,1}{c}{d}"


def test_all_principals_match_oracle(ia1, ia2):
    for alg in (ia1, ia2):
        for a in range(alg.n):
            for b in range(a + 1, alg.n):
                assert principal_congruence(alg, a, b) == oracle_principal(alg, a, b)


def test_congruence_requires_total_signature(fig1, fig1_rrs):
    with pytest.raises(ValueError, match="total operations"):
        principal_congruence(fig1, 0, 1)  # carries a partial meet
    with pytest.raises(ValueError):
        congruence_lattice(fig1_rrs)  # partial product, no ternary table


# --- congruence lattices ---------------------------------------------------------

def test_lattice_matches_oracle(ia1, ia2, two_chain):
    for alg in (two_chain, ia1, ia2):
        lat = congruence_lattice(alg)
        assert sorted(lat.congruences) == sorted(oracle_congruences(alg))


def _edited_models():
    """A seeded sample of single-cell edits of the imp and ternary tables of
    the ialg and ralg models of sizes 2-5: total algebras mostly outside the
    variety.  Random tables would do no good here, as their Con is trivial."""
    rng = random.Random(11)
    models = [alg for tag in (ClassTag.IALG, ClassTag.RALG) for n in range(2, 6)
              for alg in enumerate_models(SearchSpec(tag, n))]
    for _ in range(300):
        alg = rng.choice(models)
        n = alg.n
        i, j, k = (rng.randrange(n) for _ in range(3))
        if rng.random() < 0.5:
            rows = [list(row) for row in alg.imp.values]
            rows[i][j] = rng.choice([v for v in range(n) if v != rows[i][j]])
            yield alg.replace(imp=BinTable.from_rows(rows, total=True))
        else:
            old = (alg.r or alg.q).values[i][j][k]
            yield _edit_ternary(alg, i, j, k, rng.choice([v for v in range(n) if v != old]))


def _edit_ternary(alg, i, j, k, v):
    """The algebra with entry (i, j, k) of its r or q table set to v."""
    name = "r" if alg.r is not None else "q"
    vals = [[list(row) for row in plane] for plane in getattr(alg, name).values]
    vals[i][j][k] = v
    return alg.replace(**{name: TernTable(
        tuple(tuple(tuple(row) for row in plane) for plane in vals))})


def test_lattice_matches_oracle_outside_the_variety():
    sizes = set()
    routes = [0, 0]  # edits closed over all pairs, and over the pairs (x, 1)
    for alg in _edited_models():
        holds = congruence._chain_holds(alg)
        assert holds == oracle_chain_holds(alg), alg.name
        routes[holds] += 1
        lat = congruence_lattice(alg)
        assert lat.congruences == tuple(sorted(oracle_congruences(alg))), alg.name
        sizes.add(lat.size)
    # both routes of congruence_lattice meet the oracle many times (with
    # seed 11, 161 of the 300 edits fail the chain and 139 keep it), and the
    # sample reaches lattices far larger than the two-element one
    assert min(routes) >= 100
    assert max(sizes) >= 8


# edited models whose principal congruences are checked against the oracle
PRINCIPAL_SAMPLE = 60


def test_principal_matches_oracle_outside_the_variety():
    algs = [alg for alg in _trivial_r_family() if alg.n <= 4]
    algs += itertools.islice(_edited_models(), PRINCIPAL_SAMPLE)
    proper = 0
    for alg in algs:
        for a, b in itertools.combinations(range(alg.n), 2):
            got = principal_congruence(alg, a, b)
            assert got == oracle_principal(alg, a, b), alg.name
            proper += got != Partition.single_class(alg.n)
    # the sample reaches many principal congruences below the full relation
    assert proper >= 100


def _brute_translations(alg):
    """Every map x -> f(..., x, ...) of join, arrow and each ternary table,
    the other arguments fixed, minus the constant maps and the identity."""
    n = alg.n
    join, imp = alg.join.values, alg.imp.values
    ops = [(2, lambda x, y: join[x][y]), (2, lambda x, y: imp[x][y])]
    ops += [(3, lambda x, y, z, tv=t.values: tv[x][y][z])
            for t in (alg.r, alg.q) if t is not None]
    maps = set()
    for arity, f in ops:
        for pos in range(arity):
            for rest in itertools.product(range(n), repeat=arity - 1):
                maps.add(tuple(f(*rest[:pos], x, *rest[pos:]) for x in range(n)))
    return {m for m in maps if len(set(m)) > 1 and m != tuple(range(n))}


def _with_swapping_q():
    """ialg_3_0 with a q table beside its r: q(x,y,z) = x at z = 1, and x
    with a and b swapped otherwise."""
    alg = next(iter(enumerate_models(SearchSpec(ClassTag.IALG, 3))))
    a, b, top = idx(alg, "a", "b", "1")
    swap = {a: b, b: a, top: top}
    q = TernTable(tuple(tuple(tuple(x if z == top else swap[x] for z in range(3))
                              for _ in range(3)) for x in range(3)))
    return alg.replace(q=q)


def test_con_preserves_q_beside_r():
    alg = _with_swapping_q()
    assert alg.name == "ialg_3_0" and alg.r is not None
    a, top = idx(alg, "a", "1")
    # q(a,a,a) = b and q(1,a,a) = 1: relating a with 1 relates b with 1
    assert principal_congruence(alg, a, top) == Partition.single_class(alg.n)
    lat = congruence_lattice(alg)
    assert [p.notation(alg.labels) for p in lat.congruences] == ["{a,b,1}", "{a}{b}{1}"]
    assert lat.congruences == tuple(sorted(oracle_congruences(alg)))


def test_translations_match_brute_force(ia1, ia2, two_chain, fig2_rrs):
    algs = [two_chain, ia1, ia2, ralgebra_from_rrs(fig2_rrs), _with_swapping_q()]
    algs += [alg for alg in _trivial_r_family() if alg.n <= 4]
    algs += itertools.islice(_edited_models(), PRINCIPAL_SAMPLE)
    for alg in algs:
        assert congruence._translations(alg) == sorted(_brute_translations(alg)), alg.name


def test_lattice_frozen_sizes(ia1, ia2):
    assert congruence_lattice(ia1).size == 9
    assert congruence_lattice(ia2).size == 6


def test_lattice_contains_bounds_and_closures(ia1):
    lat = congruence_lattice(ia1)
    cs = set(lat.congruences)
    assert Partition.identity(ia1.n) in cs
    assert Partition.single_class(ia1.n) in cs
    for p in cs:
        assert is_compatible(p, ia1)
        for q in cs:
            assert p.meet(q) in cs
            assert p.join_with(q) in cs


def test_lattice_tables_match_partition_ops(ia1, ia2):
    for alg in (ia1, ia2):
        lat = congruence_lattice(alg)
        cs = lat.congruences
        at = {p: i for i, p in enumerate(cs)}
        for a, p in enumerate(cs):
            assert lat.class_masks[a] == tuple(
                sum(1 << j for j in p.block_of(i)) for i in range(alg.n))
            for b, q in enumerate(cs):
                assert lat.refinement_matrix[a][b] == p.refines(q)
                assert lat.meet_table[a][b] == at[p.meet(q)]
                assert lat.join_table[a][b] == at[p.join_with(q)]


def test_one_element_congruences(one_element):
    one = one_element.replace(imp=BinTable.from_rows([[0]], total=True),
                              r=__import__("ordalg").TernTable((((0,),),)))
    assert congruence_lattice(one).size == 1
    assert maltsev_report(one).all_true
    assert term_witness_check(one).ok


# --- verdicts and term schemes ----------------------------------------------------

def test_maltsev_all_true(ia1, ia2):
    for alg in (ia1, ia2):
        rep = maltsev_report(alg)
        assert rep.three_permutable
        assert rep.con_distributive
        assert rep.weakly_regular


def _trivial_r_family():
    """Every jsl model of sizes 2-5 with imp = join, r(x,y,z) = x and no
    meet: total algebras on which all three verdicts can fail."""
    for n in range(2, 6):
        for alg in enumerate_models(SearchSpec(ClassTag.JSL, n)):
            r = TernTable(tuple(tuple((x,) * n for _ in range(n)) for x in range(n)))
            yield alg.replace(imp=alg.join, r=r, meet=None)


def _verdicts_match_oracle(alg):
    """The report's verdicts and witness, after checking them against the
    oracle; also returns the lattice."""
    lat = congruence_lattice(alg)
    rep = maltsev_report(alg, lat)
    got = (rep.three_permutable, rep.con_distributive, rep.weakly_regular, rep.witness)
    assert got == oracle_maltsev(alg, lat.congruences), alg.name
    return got, lat


def test_maltsev_matches_oracle_on_ialg():
    for n in range(1, 7):
        for alg in enumerate_models(SearchSpec(ClassTag.IALG, n)):
            assert _verdicts_match_oracle(alg)[0] == (True, True, True, "")


def test_maltsev_matches_oracle_on_failing_family():
    verdicts = {}
    for alg in _trivial_r_family():
        got, lat = _verdicts_match_oracle(alg)
        verdicts[alg.name] = got[:3]
        # the report names a distributivity failure only when 3-permutability
        # holds, which it never does here, so compare the triples directly
        triple = congruence._first_non_distributive(lat)
        found = None if triple is None else tuple(lat.congruences[i] for i in triple)
        assert found == oracle_distributivity_failure(lat.congruences), alg.name
    assert verdicts["jsl_4_2"] == (False, False, False)
    for i in range(3):
        assert any(not v[i] for v in verdicts.values())


def test_schemes_and_scans_agree_on_the_variety():
    """Schemes (a) and (b) hold on every ialg and ralg model up to size 7,
    and the scans of Con they stand in for find no failure there either."""
    for tag in (ClassTag.IALG, ClassTag.RALG):
        for n in range(1, 8):
            for alg in enumerate_models(SearchSpec(tag, n)):
                assert congruence._schemes_hold(alg) == (True, True), alg.name
                lat = congruence_lattice(alg)
                assert congruence._first_non_3_permuting(lat) is None, alg.name
                assert congruence._first_non_distributive(lat) is None, alg.name


def _ternary_edits():
    """Every single-cell edit of the r or q table of the ialg and ralg
    models of sizes 1-3."""
    for tag in (ClassTag.IALG, ClassTag.RALG):
        for n in range(1, 4):
            for alg in enumerate_models(SearchSpec(tag, n)):
                tern = (alg.r or alg.q).values
                for i, j, k in itertools.product(range(n), repeat=3):
                    for v in range(n):
                        if v != tern[i][j][k]:
                            yield _edit_ternary(alg, i, j, k, v)


def test_schemes_agree_with_the_scans_outside_the_variety():
    """Where a scheme holds its scan finds no failure, and where it fails
    the scan still finds none on some algebras: the shortcut is sound, and
    the scans cannot be dropped."""
    held, rescued = [0, 0], [0, 0]
    for alg in itertools.chain(_trivial_r_family(), _ternary_edits()):
        lat = congruence_lattice(alg)
        scans = (congruence._first_non_3_permuting(lat),
                 congruence._first_non_distributive(lat))
        for i, (holds, found) in enumerate(zip(congruence._schemes_hold(alg), scans)):
            if holds:
                assert found is None, alg.name
            held[i] += holds
            rescued[i] += not holds and found is None
    assert min(held) > 0 and min(rescued) > 0


def test_the_scans_decide_where_the_schemes_fail():
    # the two-element chain with r(x,y,z) = x fails both schemes, yet its
    # Con is a two-element chain: 3-permutable and distributive
    alg = next(alg for alg in _trivial_r_family() if alg.name == "jsl_2_0")
    assert congruence._schemes_hold(alg) == (False, False)
    rep = maltsev_report(alg)
    assert rep.three_permutable and rep.con_distributive


def test_term_witness_check(ia1, ia2):
    assert term_witness_check(ia1).ok
    assert term_witness_check(ia2).ok


def test_term_scheme_instance(ia1):
    # t1(x,y,z) = r(z, y->x, x) at (c,d,d) evaluates to c
    c, d = idx(ia1, "c", "d")
    t1 = ia1.r.values[d][ia1.imp.values[d][c]][c]
    assert t1 == c


def test_term_check_on_ralgebra(fig2_rrs):
    ra = ralgebra_from_rrs(fig2_rrs)
    assert term_witness_check(ra).ok


def test_term_check_ralgebra_without_divisibility(fig2_rrs):
    from ordalg import TernTable
    ra = ralgebra_from_rrs(fig2_rrs)
    z, b = idx(ra, "0", "b")
    qv = [[list(col) for col in plane] for plane in ra.q.values]
    # q(b, b->0, 0) = q(b, c, 0) -> corrupt it away from 0
    c = idx(ra, "c")
    qv[b][c][z] = b
    bad = ra.replace(q=TernTable(tuple(tuple(tuple(col) for col in plane)
                                       for plane in qv)))
    rep = term_witness_check(bad)
    assert not rep.ok and rep.axiom == "(a)"


def test_terms_imply_maltsev(ia1, ia2, two_chain):
    for alg in (two_chain, ia1, ia2):
        if term_witness_check(alg).ok:
            assert maltsev_report(alg).all_true
