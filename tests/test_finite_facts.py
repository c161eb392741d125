"""Facts of the finite theory that the code relies on, checked exhaustively.

In a finite join-semilattice the common lower bounds of a bounded pair are
closed under join, so every bounded pair has a greatest lower bound, the
common lower bound with the largest down-set, which `glb_table` picks.  So
the sections are lattices, sectioned (a) cannot fail, and a stored meet is
checked once, against that glb, where it is built.  The rrs laws ask for every common lower bound to lie below x.y and for x.y to
lie below x and y, so every rrs product is the partial meet; the rrs corpus
is therefore the ncis corpus with the meet moved to the product, and every
rrs model is divisible.

Every ralg model up to size 7 satisfies the subvariety identity q(x, x->y,
y) = y, and no single-cell edit of q up to size 4 passes (20)-(30), so no
enumerated model or such edit tells `check --class ralg --subvariety` from
`check --class ralg`.

Every ialg and ralg model keeps the weak-regularity chain, so
`congruence_lattice` generates Con from the n-1 congruences Theta(x, 1)
there, never from all pairs.

On a join table that is idempotent, commutative and associative, x <= y iff
x v y = y is a partial order whose least upper bounds are the join, so a
law that x v y is the least upper bound of the order read off the table
cannot fail there.  Conversely the least upper bounds of the order of
every jsl model up to size 7 are its join, so `build_algebra` checks no
join law on a join table it derives from an order.  A join table given
without an order is accepted in one pass over its up-set masks
(`core._lub_top`), and the order checks and the `JOIN_LAWS` rows run only
to name a failure: the mask test accepts exactly the tables that pass
those checks, on every binary table up to size 3 and every single-cell
edit of a jsl join table up to size 5, and so does an order and
least-upper-bound oracle built from tests/oracles.py.  No map between the
presentations changes the join table: each returns its input's join, so a
join checked where it entered (by `build_algebra` on a given table) holds
in every derived algebra, and the ialg and ralg validators do not check the
join laws again.  The search checks no join law either: it builds each join
as the least upper bounds of its order, and tests/test_search.py checks
every model it emits against its class validator, up to size 7 here and at
size 8 with ``--check 8``.

Sections need not be distributive, and the arrow alone shows it: the
identities of ARROW_EVERYWHERE hold on every ialg model, those of
ARROW_DISTRIBUTIVE exactly where every section is distributive, and those
of ARROW_BOOLEAN exactly where every section is Boolean, up to size 7 here
and at size 8 with ``--check 8``:

    PYTHONPATH=src python tests/test_finite_facts.py --check 8

One model settles a theorem: in ialg_5_8 the subalgebra b < a < 1 has a
congruence that no congruence of the whole algebra restricts to, so the
variety of I-algebras lacks the congruence extension property (CEP).  Up
to size 6 CEP holds exactly on the models whose sections are all
distributive.

In every jsl model every element is idempotent, and the row of the join at
an element with the largest down-set below the top holds only that element
and the top, so the key search (`search._candidate_perms`) needs no other
case.  The i-th ialg and ralg models of a size have the same join and
arrow, and q equals r cell for cell, since the rrs product is the meet.
Both are checked up to size 7 here and at size 8 with ``--check 8``.
"""

import argparse
from collections import Counter
from itertools import product

from oracles import oracle_chain_holds, oracle_congruences, oracle_glb, oracle_lub
from ordalg import (ClassTag, SearchSpec, StructureError, TernTable, build_algebra,
                    congruence, derive_implication, derive_residual_imp, derive_sections,
                    enumerate_models, find_counterexample, ialgebra_from_ncis,
                    ncis_from_ialgebra, ncis_from_rrs, project_to_class,
                    ralgebra_from_rrs, rrs_from_ncis, rrs_from_ralgebra,
                    section_shape_report, validate_ralgebra)
from ordalg.congruence import Partition
from ordalg.core import (Algebra, BinTable, Universe, _lub_top, check_partial_order,
                         default_labels, find_top, glb_table, lub_table, order_from_join)
from ordalg.laws import JOIN_LAWS, evaluate, term_law
from ordalg.search import _models


def _upto(tag: ClassTag, size: int):
    for n in range(1, size + 1):
        yield from enumerate_models(SearchSpec(tag, n))


def _semilattice_pair_edits():
    """(model, edited join values) for every symmetric two-cell edit of a
    jsl join table up to size 5 that keeps the table idempotent,
    commutative and associative."""
    for alg in _upto(ClassTag.JSL, 5):
        span = range(alg.n)
        for i, j in product(span, repeat=2):
            for v in span:
                if i >= j or v == alg.join.values[i][j]:
                    continue
                jv = [list(row) for row in alg.join.values]
                jv[i][j] = jv[j][i] = v
                if (all(jv[x][x] == x for x in span)
                        and all(jv[x][y] == jv[y][x] for x, y in product(span, repeat=2))
                        and all(jv[x][jv[y][z]] == jv[jv[x][y]][z]
                                for x, y, z in product(span, repeat=3))):
                    yield alg, jv


def test_every_bounded_pair_has_a_glb_up_to_size_6():
    pairs = 0
    for alg in _upto(ClassTag.JSL, 6):
        for x in range(alg.n):
            for y in range(alg.n):
                want = oracle_glb(alg.leq, x, y)
                assert (want is None) == (not alg.downsets[x] & alg.downsets[y])
                assert alg.glb.values[x][y] == want
                pairs += want is not None
    assert pairs > 1000
    # and on the orders of the semilattice edits, which need not be models
    edits = 0
    for alg, jv in _semilattice_pair_edits():
        le = order_from_join(jv)
        glb = glb_table(le).values
        assert all(glb[x][y] == oracle_glb(le, x, y)
                   for x, y in product(range(alg.n), repeat=2)), (alg.name, jv)
        edits += 1
    assert edits == 106


def test_the_join_is_the_lub_of_its_order_on_every_semilattice_pair_edit_up_to_size_5():
    edits = 0
    for alg, jv in _semilattice_pair_edits():
        span = range(alg.n)
        le = order_from_join(jv)
        assert all(le[x][x] for x in span)
        assert all(x == y or not (le[x][y] and le[y][x])
                   for x, y in product(span, repeat=2))
        assert all(le[x][z] for x, y, z in product(span, repeat=3)
                   if le[x][y] and le[y][z])
        assert all(jv[x][y] == oracle_lub(le, x, y)
                   for x, y in product(span, repeat=2)), (alg.name, jv)
        edits += 1
    assert edits == 106


def test_the_lubs_of_every_jsl_order_are_its_join_up_to_size_7():
    models = 0
    for alg in _upto(ClassTag.JSL, 7):
        assert lub_table(alg.leq, alg.labels).values == alg.join.values, alg.name
        models += 1
    assert models == 299


def _checked_top(jv):
    """The top, when the order read off a join table passes
    `check_partial_order` and `find_top` and the table then passes every
    `JOIN_LAWS` row, the checks `build_algebra` ran on every table before
    the mask test; else None."""
    labels = default_labels(len(jv))
    le = order_from_join(jv)
    try:
        check_partial_order(le, labels)
        top = find_top(le)
    except StructureError:
        return None
    return top if evaluate(Algebra(Universe(labels, top), BinTable(jv, True)), JOIN_LAWS).ok \
        else None


def _oracle_top(jv):
    """The top, when x <= y iff x v y = y is a partial order whose least
    upper bounds (`oracle_lub`) are the table; else None."""
    span = range(len(jv))
    le = [[jv[x][y] == y for y in span] for x in span]
    pairs = list(product(span, repeat=2))
    if not (all(le[x][x] for x in span)
            and all(x == y or not (le[x][y] and le[y][x]) for x, y in pairs)
            and all(le[x][z] for x, y in pairs if le[x][y] for z in span if le[y][z])
            and all(oracle_lub(le, x, y) == jv[x][y] for x, y in pairs)):
        return None
    return next(t for t in span if all(le[x][t] for x in span))


def _mask_top(jv):
    return _lub_top(jv, order_from_join(jv))


def test_the_mask_test_accepts_exactly_the_checked_join_tables_up_to_size_3():
    accepted = Counter()
    for n in range(1, 4):
        for flat in product(range(n), repeat=n * n):
            jv = [flat[i * n:(i + 1) * n] for i in range(n)]
            top = _mask_top(jv)
            assert top == _checked_top(jv) == _oracle_top(jv), jv
            accepted[n] += top is not None
    # the chains and, at size 3, the two atoms below a top, in every labelling
    assert [accepted[n] for n in (1, 2, 3)] == [1, 2, 9]


def test_the_mask_test_agrees_with_the_checks_on_every_jsl_cell_edit_up_to_size_5():
    edits = 0
    for alg in _upto(ClassTag.JSL, 5):
        jv = alg.join.values
        assert _mask_top(jv) == _checked_top(jv) == _oracle_top(jv) == alg.top, alg.name
        for i, j, v in product(range(alg.n), repeat=3):
            if v != jv[i][j]:
                edit = [list(row) for row in jv]
                edit[i][j] = v
                # an edit breaks idempotence on the diagonal, else commutativity
                assert _mask_top(edit) is _checked_top(edit) is _oracle_top(edit) is None, \
                    (alg.name, i, j, v)
                edits += 1
    assert edits == 1780


def test_every_rrs_product_is_the_partial_meet_up_to_size_6():
    for alg in _upto(ClassTag.RRS, 6):
        assert alg.meet is None
        for x in range(alg.n):
            for y in range(alg.n):
                assert alg.prod.values[x][y] == alg.glb.values[x][y]


def test_rrs_corpus_equals_the_residuals_of_every_jsl_meet_up_to_size_6():
    # the route taken before the corpus came from ncis: every jsl model with
    # its partial meet as product, kept where adjointness forces an arrow
    for n in range(1, 7):
        want = []
        for jsl in _models(ClassTag.JSL, n):
            cand = jsl.replace(prod=jsl.glb)
            imp = derive_residual_imp(cand)
            if imp is not None:
                want.append(cand.replace(imp=imp, name=f"rrs_{n}_{len(want)}"))
        assert _models(ClassTag.RRS, n) == tuple(want)


def test_no_rrs_model_up_to_size_5_is_not_divisible():
    spec = SearchSpec(ClassTag.RRS, 5, upto=True, violate="divisible")
    assert find_counterexample(spec) is None


def test_every_ialg_and_ralg_model_keeps_the_weak_regularity_chain_up_to_size_7():
    models = 0
    for tag in (ClassTag.IALG, ClassTag.RALG):
        for alg in _upto(tag, 7):
            assert oracle_chain_holds(alg), alg.name
            assert congruence._chain_holds(alg), alg.name
            models += 1
    assert models == 2 * 233


def test_ralg_subvariety_holds_on_the_corpus_and_no_q_edit_passes_20_to_30():
    for alg in _upto(ClassTag.RALG, 7):
        assert validate_ralgebra(alg, subvariety=True).ok, alg.name
    edits = 0
    for alg in _upto(ClassTag.RALG, 4):
        qv = alg.q.values
        for x, y, z in product(range(alg.n), repeat=3):
            for v in range(alg.n):
                if v != qv[x][y][z]:
                    vals = [[list(row) for row in plane] for plane in qv]
                    vals[x][y][z] = v
                    q = TernTable(tuple(tuple(map(tuple, plane)) for plane in vals))
                    assert not validate_ralgebra(alg.replace(q=q)).ok, (alg.name, x, y, z, v)
                    edits += 1
    assert edits == 1076


# the class maps, by the class of the models they take
_MAPS = {
    ClassTag.SECTIONED: (derive_implication,),
    ClassTag.NCIS: (derive_sections, ialgebra_from_ncis, rrs_from_ncis),
    ClassTag.IALG: (ncis_from_ialgebra,),
    ClassTag.RRS: (ralgebra_from_rrs, ncis_from_rrs),
    ClassTag.RALG: (rrs_from_ralgebra,),
}


def test_no_class_map_changes_the_join_up_to_size_6():
    calls = 0
    for tag, maps in _MAPS.items():
        for alg in _upto(tag, 6):
            outs = [(f.__name__, f(alg)) for f in maps]
            outs += [(f"project_to_class {target.value}", project_to_class(alg, target))
                     for target in (tag, ClassTag.SECTIONED, ClassTag.JSL)]
            for what, out in outs:
                assert out.join is alg.join, (what, alg.name)
            calls += len(outs)
    assert calls == 1564  # 68 models of each class, each through 4 to 6 maps


# identities of the arrow alone, as rows of no validator: sections need not
# be distributive, and these say what that costs the implication
ARROW_EVERYWHERE = (
    term_law("K", "x y", "x -> (y -> x) = 1"),
    term_law("exchange", "x y z", "x -> (y -> z) = y -> (x -> z)"),
)
ARROW_DISTRIBUTIVE = (
    term_law("self-distributive", "x y z", "x -> (y -> z) = (x -> y) -> (x -> z)"),
    term_law("Hilbert", "x y z", "(x -> (y -> z)) -> ((x -> y) -> (x -> z)) = 1"),
)
ARROW_BOOLEAN = (
    term_law("Peirce", "x y", "(x -> y) -> x = x"),
    term_law("Abbott", "x y", "(x -> y) -> y = (y -> x) -> x"),
)


# the models with all sections distributive, and with all sections Boolean,
# by size
DISTRIBUTIVE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 13, 6: 37, 7: 114, 8: 369}
BOOLEAN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 5, 8: 8}


def _holds(alg, rows) -> list[bool]:
    return [evaluate(alg, (row,)).ok for row in rows]


def _all_sections_distributive(alg) -> bool:
    return all(section_shape_report(alg, b).distributive for b in range(alg.n))


def _all_sections_boolean(alg) -> bool:
    """Every section [b, 1] is Boolean: its pseudocomplement is an involution."""
    pc = alg.pc.values
    return all(pc[b][pc[b][y]] == y for b in range(alg.n) for y in alg.upsets[b])


def test_k_and_exchange_hold_on_every_ialg_model_up_to_size_7():
    for alg in _upto(ClassTag.IALG, 7):
        assert _holds(alg, ARROW_EVERYWHERE) == [True, True], alg.name


def test_self_distributivity_and_hilbert_hold_exactly_with_distributive_sections():
    """Up to size 7 the arrow reduct is a Hilbert algebra exactly when every
    section [b, 1] is distributive."""
    counts = Counter()
    for alg in _upto(ClassTag.IALG, 7):
        distributive = _all_sections_distributive(alg)
        assert _holds(alg, ARROW_DISTRIBUTIVE) == [distributive] * 2, alg.name
        counts[alg.n] += distributive
    assert all(counts[n] == DISTRIBUTIVE_COUNTS[n] for n in range(1, 8))


def test_peirce_and_abbott_hold_exactly_with_boolean_sections():
    """Up to size 7 the arrow reduct is an implication algebra exactly when
    every section [b, 1] is Boolean."""
    counts = Counter()
    for alg in _upto(ClassTag.IALG, 7):
        boolean = _all_sections_boolean(alg)
        assert _holds(alg, ARROW_BOOLEAN) == [boolean] * 2, alg.name
        counts[alg.n] += boolean
    assert all(counts[n] == BOOLEAN_COUNTS[n] for n in range(1, 8))


def arrow_fact_faults(n: int) -> tuple[list[str], int, int]:
    """The size-n ialg models that break one of the three arrow facts
    above, and the counts of models whose sections are all distributive and
    all Boolean."""
    faults, distributive, boolean = [], 0, 0
    for alg in enumerate_models(SearchSpec(ClassTag.IALG, n)):
        d, b = _all_sections_distributive(alg), _all_sections_boolean(alg)
        want = [True, True] + [d] * len(ARROW_DISTRIBUTIVE) + [b] * len(ARROW_BOOLEAN)
        if _holds(alg, ARROW_EVERYWHERE + ARROW_DISTRIBUTIVE + ARROW_BOOLEAN) != want:
            faults.append(alg.name)
        distributive += d
        boolean += b
    return faults, distributive, boolean


def _closed(alg, sub) -> bool:
    """Whether the elements ``sub`` are closed under join, arrow and r."""
    inside = set(sub)
    jv, iv, rv = alg.join.values, alg.imp.values, alg.r.values
    return all(jv[x][y] in inside and iv[x][y] in inside for x, y in product(sub, repeat=2)) \
        and all(rv[x][y][z] in inside for x, y, z in product(sub, repeat=3))


def _subalgebra(alg, sub):
    """The subalgebra on the elements ``sub``, closed under join, arrow and
    r, with its own tables; element i of it is sub[i]."""
    jv, iv, rv, at = alg.join.values, alg.imp.values, alg.r.values, sub.index
    return build_algebra([alg.label(x) for x in sub], tables={
        "join": [[at(jv[x][y]) for y in sub] for x in sub],
        "imp": [[at(iv[x][y]) for y in sub] for x in sub],
        "r": [[[at(rv[x][y][z]) for z in sub] for y in sub] for x in sub]})


def _relation(con, elements) -> tuple[bool, ...]:
    """The pairs of ``elements`` that the congruence relates."""
    return tuple(con.relates(x, y) for x, y in product(elements, repeat=2))


def _cep_failures(alg):
    """(subuniverse, congruence of the subalgebra) for each congruence of a
    subalgebra that no congruence of the whole algebra restricts to, from
    the definitions: every set of elements closed under the operations
    (each holds the top, x -> x) and `oracle_congruences`."""
    cons = oracle_congruences(alg)
    for mask in range(1, 1 << alg.n):
        sub = tuple(x for x in range(alg.n) if mask >> x & 1)
        if not _closed(alg, sub):
            continue
        restricted = {_relation(con, sub) for con in cons}
        for theta in oracle_congruences(_subalgebra(alg, sub)):
            if _relation(theta, range(len(sub))) not in restricted:
                yield sub, theta


def test_ialg_5_8_is_a_counterexample_to_the_congruence_extension_property():
    """The subalgebra b < a < 1 of ialg_5_8, closed under join, arrow and
    r, has the congruence {a, 1}{b}, and no congruence of the whole algebra
    restricts to it.  So the variety of I-algebras lacks CEP, and with it
    equationally definable principal congruences, which imply CEP."""
    alg = next(m for m in _models(ClassTag.IALG, 5) if m.name == "ialg_5_8")
    sub = tuple(alg.index[lab] for lab in ("a", "b", "1"))
    assert sub == tuple(sorted(sub))
    assert [[alg.leq[x][y] for y in sub] for x in sub] == [[True, False, True], [True] * 3,
                                                          [False, False, True]]
    assert _closed(alg, sub)
    theta = Partition.from_blocks(3, [(0, 2)])  # {a, 1}{b}
    assert theta in oracle_congruences(_subalgebra(alg, sub))
    assert (sub, theta) in list(_cep_failures(alg))


def test_cep_holds_exactly_with_distributive_sections_up_to_size_6():
    counts = Counter()
    for alg in _upto(ClassTag.IALG, 6):
        cep = next(_cep_failures(alg), None) is None
        assert cep == _all_sections_distributive(alg), alg.name
        counts[alg.n] += cep
    assert all(counts[n] == DISTRIBUTIVE_COUNTS[n] for n in range(1, 7))


def jsl_join_faults(n: int) -> list[str]:
    """The size-n jsl models with an element that is not idempotent, or
    with a value other than a and the top in the row of the join at an
    element a with the largest down-set below the top."""
    faults = []
    for alg in enumerate_models(SearchSpec(ClassTag.JSL, n)):
        span, jv, top = range(alg.n), alg.join.values, alg.top
        faults += [f"{alg.name}: {alg.label(x)} v {alg.label(x)}" for x in span if jv[x][x] != x]
        down = {a: sum(alg.leq[x][a] for x in span) for a in span if a != top}
        most = max(down.values(), default=0)
        faults += [f"{alg.name}: row {alg.label(a)}" for a, size in down.items()
                   if size == most and set(jv[a]) - {a, top}]
    return faults


def q_equals_r_faults(n: int) -> list[str]:
    """The size-n ialg and ralg models paired by position whose join,
    arrow, or r and q tables differ, and a count that differs."""
    ialg = list(enumerate_models(SearchSpec(ClassTag.IALG, n)))
    ralg = list(enumerate_models(SearchSpec(ClassTag.RALG, n)))
    faults = [] if len(ialg) == len(ralg) else [f"{len(ialg)} ialg, {len(ralg)} ralg"]
    return faults + [f"{a.name} {b.name}" for a, b in zip(ialg, ralg)
                     if (a.join.values, a.imp.values, a.r.values)
                     != (b.join.values, b.imp.values, b.q.values)]


def test_jsl_elements_are_idempotent_and_rows_at_the_largest_down_sets_hold_a_and_the_top():
    for n in range(1, 8):
        assert jsl_join_faults(n) == [], n


def test_q_equals_r_on_the_paired_ialg_and_ralg_models_up_to_size_7():
    for n in range(1, 8):
        assert q_equals_r_faults(n) == [], n


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", type=int, nargs="+", metavar="SIZE", required=True,
                        help="check the arrow identities and q = r on every ialg and ralg "
                             "model, and the join rows of every jsl model, of these sizes")
    args = parser.parse_args()
    failed = False
    for n in args.check:
        faults, distributive, boolean = arrow_fact_faults(n)
        bad = bool(faults) or (distributive, boolean) != (DISTRIBUTIVE_COUNTS.get(n),
                                                           BOOLEAN_COUNTS.get(n))
        failed |= bad
        print(f"size {n} {'FAILS' if bad else 'ok'} distributive={distributive} "
              f"boolean={boolean}", *faults[:5], sep="\n  ")
        for what, check in (("q = r", q_equals_r_faults), ("jsl join rows", jsl_join_faults)):
            faults = check(n)
            failed |= bool(faults)
            print(f"size {n} {what} {'FAILS' if faults else 'ok'}", *faults[:5], sep="\n  ")
    raise SystemExit(1 if failed else 0)
