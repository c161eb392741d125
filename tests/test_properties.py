"""Property-based checks over the enumerated corpus and random partitions."""

import pytest
from hypothesis import example, given, strategies as st

from oracles import isomorphic
from ordalg import (ClassTag, Partition, SearchSpec, StructureError,
                    build_algebra, canonical_key,
                    check_ncis_properties, enumerate_models,
                    parse_algebra, relabel, serialize_algebra,
                    validate_join_semilattice, validate_ncis)


def corpus(tag, max_size=4):
    out = []
    for n in range(1, max_size + 1):
        out.extend(enumerate_models(SearchSpec(ClassTag(tag), n)))
    return out

JSL = corpus("jsl")
SECTIONED = corpus("sectioned")
NCIS = corpus("ncis")
RRS = corpus("rrs")
SRS = corpus("srs")
IALG = corpus("ialg")
RALG = corpus("ralg")
EVERYTHING = JSL + SECTIONED + NCIS + RRS + SRS + IALG + RALG


@given(st.sampled_from(EVERYTHING))
def test_serialize_parse_roundtrip(alg):
    text = serialize_algebra(alg)
    again = parse_algebra(text)
    assert again == alg
    assert serialize_algebra(again) == text


@given(st.text(max_size=6))
@example("x#y")
@example("two words")
@example("tab\tname")
@example("x\x1cy")
def test_a_name_round_trips_unless_rejected(name):
    """A name with whitespace or '#' is rejected; every other one survives
    serialization, where it is written as one token of the ``name:`` line."""
    if "#" in name or any(c.isspace() for c in name):
        with pytest.raises(StructureError) as err:
            build_algebra(["a", "1"], order_pairs=[(0, 1)], name=name)
        assert str(err.value) == f"invalid name {name!r}"
        return
    alg = build_algebra(["a", "1"], order_pairs=[(0, 1)], name=name)
    assert parse_algebra(serialize_algebra(alg)) == alg


@given(st.sampled_from(JSL), st.randoms(use_true_random=False))
def test_canonical_key_is_isomorphism_invariant(alg, rng):
    body = list(range(alg.n - 1))
    rng.shuffle(body)
    scrambled = relabel(alg, body + [alg.n - 1])
    assert canonical_key(scrambled) == canonical_key(alg)
    assert isomorphic(alg, scrambled)


@given(st.sampled_from(JSL))
def test_join_laws_on_corpus(alg):
    assert validate_join_semilattice(alg).ok
    n, jv = alg.n, alg.join.values
    for x in range(n):
        for y in range(n):
            assert jv[x][y] == jv[y][x]
            for z in range(n):
                assert jv[x][jv[y][z]] == jv[jv[x][y]][z]


@given(st.sampled_from(NCIS))
def test_axioms_imply_properties(alg):
    assert validate_ncis(alg).ok
    assert check_ncis_properties(alg).ok


@given(st.sampled_from(NCIS))
def test_arrow_top_iff_leq(alg):
    for x in range(alg.n):
        for y in range(alg.n):
            assert (alg.imp.values[x][y] == alg.top) == alg.leq[x][y]


# --- partitions ----------------------------------------------------------------

@st.composite
def partitions(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    assignment = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                               min_size=n, max_size=n))
    blocks = {}
    for i, c in enumerate(assignment):
        blocks.setdefault(c, []).append(i)
    return Partition.from_blocks(n, blocks.values())


@st.composite
def partition_pairs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))

    def one():
        assignment = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                   min_size=n, max_size=n))
        blocks = {}
        for i, c in enumerate(assignment):
            blocks.setdefault(c, []).append(i)
        return Partition.from_blocks(n, blocks.values())

    return one(), one(), one()


@given(partitions())
def test_partition_canonical_representatives(p):
    for i, c in enumerate(p.class_of):
        assert c <= i
        assert p.class_of[c] == c


@given(partition_pairs())
def test_partition_order_equality_and_hash_follow_class_of(triple):
    assert [p.class_of for p in sorted(triple)] == sorted(p.class_of for p in triple)
    copies = [Partition.from_blocks(p.n, p.blocks()) for p in triple]
    for a in triple:
        for b in (*triple, *copies):
            assert (a == b) == (a.class_of == b.class_of)
            assert (a < b) == (a.class_of < b.class_of)
            assert (a <= b) == (a.class_of <= b.class_of)
            if a == b:
                assert hash(a) == hash(b)


@given(partitions())
def test_block_of_is_the_frozenset_of_the_class(p):
    for i in range(p.n):
        block = p.block_of(i)
        assert type(block) is frozenset
        assert block == {j for j in range(p.n) if p.class_of[j] == p.class_of[i]}


@given(partition_pairs())
def test_partition_lattice_laws(triple):
    a, b, c = triple
    assert a.meet(b) == b.meet(a)
    assert a.join_with(b) == b.join_with(a)
    assert a.meet(a) == a and a.join_with(a) == a
    assert a.meet(b).refines(a)
    assert a.refines(a.join_with(b))
    assert a.meet(b.meet(c)) == a.meet(b).meet(c)
    assert a.join_with(b.join_with(c)) == a.join_with(b).join_with(c)
    # absorption
    assert a.meet(a.join_with(b)) == a
    assert a.join_with(a.meet(b)) == a


@given(partition_pairs())
def test_partition_refinement_is_order(triple):
    a, b, _ = triple
    if a.refines(b) and b.refines(a):
        assert a == b
