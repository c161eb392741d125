"""Tests of the exhaustive search.

Neither the search nor `ordalg derive` validates a model it derives: the
paper proves that each map lands in its class.
`test_emitted_models_pass_their_validators` checks that every emitted model
up to size 7 passes its class validator, every rrs model the bridge rows of
`rrs_from_ncis`, and that what `derive` prints for every model of a map's
source class, read back, passes the map's target validator.  Inputs of
other classes are fed to `derive` too: every model of every class up to
size 5, and a relabeling of each, under every map whose source check it
passes.

The generator keeps only the natural labellings whose (down-set size,
strict down-set mask) pairs never decrease below the top.  Up to size 5
its output is checked against the brute-force orders filtered by that
rule, and its yield is pinned (`LABELLINGS`); the grouping form is checked
on every natural labelling up to size 6, from an enumerator in
``oracles.py``.  The key search is checked against every relabeling, on
the models of four classes and a relabeling of each, and the number of
relabelings it flattens is pinned (`FLATTENED`).

Size 8 takes about ten seconds more and is checked on its own with
``PYTHONPATH=src python tests/test_search.py --check 8``: the yield of the
generator and the flattened count, then every model of every class and
every output of `derive` on it.
"""

import argparse
import random

import pytest

from conftest import idx
from oracles import (brute_jsl_matrices, count_iso_classes, isomorphic,
                     natural_jsl_downmasks, oracle_arrow_tables, oracle_is_sectioned,
                     oracle_least_tables, perm_iso_orders)
from ordalg import (ClassTag, SearchSpec, StructureError,
                    build_algebra, canonical_form, canonical_key, count_models,
                    default_labels, enumerate_models, find_counterexample,
                    parse_algebra, project_to_class, relabel, serialize_algebra,
                    section_shape_report, validate_ialgebra, validate_ncis,
                    validate_ralgebra, validate_rrs, validate_sectioned,
                    validate_srs, validate_join_semilattice)
from ordalg import cli, core, search
from ordalg.laws import DIVISIBLE, PROD_ARROW_BOUND, PROD_IDEMPOTENT, evaluate

TIER1_MAX_SIZE = 7


def spec(tag, size, **kw):
    return SearchSpec(ClassTag(tag), size, **kw)


def test_trivial_counts():
    assert count_models(spec("jsl", 1)) == 1
    assert count_models(spec("sectioned", 1)) == 1
    assert count_models(spec("ncis", 1)) == 1


def test_three_element_jsl_models():
    models = list(enumerate_models(spec("jsl", 3)))
    assert len(models) == 2
    # one chain and one vee: distinguished by comparability of the two atoms
    chains = [m for m in models
              if all(m.leq[i][j] or m.leq[j][i]
                     for i in range(3) for j in range(3))]
    assert len(chains) == 1


def test_counts_against_independent_enumeration():
    for n in range(1, 5):
        labeled = brute_jsl_matrices(n)
        expect = count_iso_classes(labeled, perm_iso_orders)
        assert count_models(spec("jsl", n)) == expect


def test_sectioned_counts_against_independent_enumeration():
    for n in range(1, 5):
        labeled = [m for m in brute_jsl_matrices(n) if oracle_is_sectioned(m)]
        expect = count_iso_classes(labeled, perm_iso_orders)
        assert count_models(spec("sectioned", n)) == expect


def test_sectioned_size5_contains_fig1(fig1):
    target = canonical_key(project_to_class(fig1, ClassTag.SECTIONED))
    keys = [canonical_key(m) for m in enumerate_models(spec("sectioned", 5))]
    assert target in keys


# each class's validator, which the search runs on no model it derives
_CHECKS = {
    "jsl": validate_join_semilattice,
    "sectioned": validate_sectioned,
    "ncis": validate_ncis,
    "rrs": validate_rrs,
    "srs": validate_srs,
    "ialg": validate_ialgebra,
    "ralg": validate_ralgebra,
}
# what rrs_from_ncis asserts of its output beyond validate_rrs
_BRIDGE_ROWS = DIVISIBLE + PROD_IDEMPOTENT + PROD_ARROW_BOUND


def derive_fault(alg, code: str) -> str | None:
    """How the output `ordalg derive --map <code>` prints for the algebra,
    read back, fails the map's target validator, or None.  The input must
    pass the map's source check, as `derive` demands."""
    _, target, mapper = cli._MAPS[code]
    out = parse_algebra(serialize_algebra(project_to_class(mapper(alg), target)))
    rep = _CHECKS[target.value](out)
    return None if rep.ok else f"{alg.name} --map {code}: {rep.fail_line()}"


def emitted_model_faults(tag: str, n: int) -> list[str]:
    """How the models the search emits for class ``tag`` at size n break
    their class: a failing validator or, for rrs, a failing bridge row, a
    wrong class or a wrong name; and how the output of each map from the
    class breaks the map's target class.  Empty when every model is
    sound."""
    faults = []
    codes = [code for code, (source, _, _) in cli._MAPS.items() if source.value == tag]
    for m in enumerate_models(spec(tag, n)):
        reps = [_CHECKS[tag](m)] + ([evaluate(m, _BRIDGE_ROWS)] if tag == "rrs" else [])
        faults += [f"{m.name}: {rep.fail_line()}" for rep in reps if not rep.ok]
        faults += filter(None, (derive_fault(m, code) for code in codes))
        # an srs model has the tables of an rrs and reads as one
        if m.class_tag != ClassTag("rrs" if tag == "srs" else tag):
            faults.append(f"{m.name}: reads as {m.class_tag.value}")
        if not m.name.startswith(f"{tag}_{n}_"):
            faults.append(f"{m.name}: not named {tag}_{n}_<i>")
    return faults


def test_emitted_models_pass_their_validators():
    for tag in _CHECKS:
        for n in range(1, TIER1_MAX_SIZE + 1):
            assert emitted_model_faults(tag, n) == [], (tag, n)


# the (input, map) pairs that test feeds: every model of every class up to
# size 5 and a relabeling of each, under every map whose source check the
# input passes
FED = 1058


def test_derive_lands_in_the_target_class_from_every_class():
    """An input of another class that passes a map's source check, say a
    ralg model under S, also lands in the target class."""
    rng = random.Random(11)
    fed = 0
    for tag in _CHECKS:
        for n in range(1, 6):
            for m in enumerate_models(spec(tag, n)):
                p = list(range(m.n - 1))
                rng.shuffle(p)
                for alg in (m, relabel(m, p + [m.top])):
                    for code, (source, _, _) in cli._MAPS.items():
                        try:
                            accepted = _CHECKS[source.value](alg).ok
                        except StructureError:  # a table the source class reads is missing
                            accepted = False
                        if accepted:
                            assert derive_fault(alg, code) is None
                            fed += 1
    assert fed == FED, fed


def test_emitted_models_are_canonical_and_distinct():
    for n in range(1, 6):
        models = list(enumerate_models(spec("jsl", n)))
        keys = [canonical_key(m) for m in models]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)
        # ncis and ialg models carry more tables than the join, all relabeled
        for m in models + [m for tag in ("ncis", "ialg") for m in enumerate_models(spec(tag, n))]:
            assert canonical_form(m) == m, m.name


def test_emitted_models_pairwise_non_isomorphic_by_perm_search():
    for n in range(1, 6):
        models = list(enumerate_models(spec("jsl", n)))
        for i, a in enumerate(models):
            for b in models[i + 1:]:
                assert not perm_iso_orders(a.leq, b.leq)


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(7)
    for m in enumerate_models(spec("ncis", 4)):
        key = canonical_key(m)
        for _ in range(3):
            perm = list(range(m.n - 1))
            rng.shuffle(perm)
            new_of_old = perm + [m.n - 1]
            scrambled = relabel(m, new_of_old)
            assert canonical_key(scrambled) == key
            assert isomorphic(m, scrambled)


def test_rejected_jsl_models_really_fail():
    emitted = {canonical_key(m) for m in enumerate_models(spec("sectioned", 5))}
    rejects = [m for m in enumerate_models(spec("jsl", 5))
               if canonical_key(m.replace(meet=m.glb)) not in emitted]
    assert len(rejects) == 1  # the diamond
    for m in rejects:
        assert not validate_sectioned(m).ok
        assert not oracle_is_sectioned(m.leq)


def test_arrow_propagation_oracle_agrees_with_derivation():
    # the arrow axioms force at most one table, so the propagation oracle
    # finds exactly the derived arrow, and none where a section fails
    for n in range(1, 7):
        for m in enumerate_models(spec("ncis", n)):
            assert oracle_arrow_tables(m.leq) == [m.imp.values], m.name
        rejected = [m for m in enumerate_models(spec("jsl", n))
                    if not oracle_is_sectioned(m.leq)]
        for m in rejected:
            assert oracle_arrow_tables(m.leq) == [], m.name
        assert len(rejected) == count_models(spec("jsl", n)) - \
            count_models(spec("ncis", n))


def test_counterexample_section_modular():
    found = find_counterexample(spec("sectioned", 6, upto=True,
                                     violate="section-modular"))
    assert found is not None
    assert found.n == 5  # the pentagon itself is the smallest
    shapes = [section_shape_report(found, b) for b in range(found.n)]
    assert any(s.witness_kind == "N5" for s in shapes)


def test_counterexample_none_for_theorem_backed_properties():
    assert find_counterexample(spec("ialg", 4, upto=True,
                                    violate="con-distributive")) is None
    assert find_counterexample(spec("ialg", 4, upto=True,
                                    violate="3-permutable")) is None
    assert find_counterexample(spec("ialg", 4, upto=True,
                                    violate="weakly-regular")) is None


def test_counterexample_divisible_none_up_to_4():
    assert find_counterexample(spec("rrs", 4, upto=True, violate="divisible")) is None


def test_counterexample_unknown_property():
    with pytest.raises(ValueError, match="unknown property"):
        find_counterexample(spec("jsl", 3, violate="nonsense"))
    with pytest.raises(ValueError, match="does not apply"):
        find_counterexample(spec("jsl", 3, violate="divisible"))


def test_size_cap(monkeypatch):
    with pytest.raises(ValueError, match="exceeds the cap"):
        list(enumerate_models(spec("jsl", 9)))
    monkeypatch.setenv("ORDALG_MAX_SIZE", "3")
    with pytest.raises(ValueError, match="exceeds the cap"):
        list(enumerate_models(spec("jsl", 4)))


def test_limit():
    assert len(list(enumerate_models(spec("jsl", 5, limit=3)))) == 3
    assert count_models(spec("jsl", 5, upto=True)) == 1 + 1 + 2 + 5 + 15


def test_srs_models_mirror_rrs():
    rrs = list(enumerate_models(spec("rrs", 4)))
    srs = list(enumerate_models(spec("srs", 4)))
    assert len(rrs) == len(srs)
    for a, b in zip(rrs, srs):
        assert a.prod.values == b.prod.values
        assert b.class_tag == ClassTag.RRS


def test_each_class_built_once_per_size(monkeypatch):
    """Counting jsl and then every other class keys the jsl representatives
    once: each (class, size) is built once."""
    search._models.cache_clear()
    keyed = []
    real_key = search.canonical_key
    monkeypatch.setattr(search, "canonical_key",
                        lambda alg: keyed.append(alg) or real_key(alg))
    count_models(spec("jsl", 5))
    labelled = len(keyed)
    assert labelled > 0
    for tag in ("sectioned", "ncis", "rrs", "srs", "ialg", "ralg"):
        count_models(spec(tag, 5))
    assert len(keyed) == labelled
    assert search._models.cache_info().misses == 7


def _downmasks(leq):
    n = len(leq)
    return tuple(sum(1 << i for i in range(n) if leq[i][j]) for j in range(n))


def test_canonical_key_matches_brute_force_over_all_relabelings():
    """The pruned relabeling search finds the least tables of all of them."""
    rng = random.Random(3)
    models = [m for tag, top in (("jsl", 6), ("ncis", 5), ("ialg", 5), ("rrs", 4))
              for n in range(1, top + 1) for m in enumerate_models(spec(tag, n))]
    for m in models:
        p = list(range(m.n))
        rng.shuffle(p)
        for alg in (m, relabel(m, p)):
            assert canonical_key(alg)[2] == oracle_least_tables(alg)


# labelled structures the generator yields at a size, and relabelings the
# key search flattens over the jsl models of a size (every relabeling with
# the leading zeros of row 0 would be 11,076 and 239,052); size 8 is
# checked with --check 8
LABELLINGS = {7: 758, 8: 5581}
FLATTENED = {7: 3094, 8: 38174}


def labellings(n):
    return sum(1 for _ in search._natural_jsl_downmasks(n))


def flattened(n):
    return sum(len(search._candidate_perms(m)) for m in enumerate_models(spec("jsl", n)))


def _kept_by_the_rule(leq):
    """Whether the labelling of the order is natural, top last, and the
    (down-set size, strict down-set mask) of each point below the top is at
    least that of the point before it."""
    n = len(leq)
    if not all(leq[x][n - 1] for x in range(n)):
        return False
    if any(leq[x][y] for y in range(n) for x in range(y + 1, n)):
        return False
    ranks = [(sum(leq[x][y] for x in range(n)), sum(1 << x for x in range(y) if leq[x][y]))
             for y in range(n - 1)]
    return ranks == sorted(ranks)


def test_generator_yields_each_kept_labelling_once():
    """Against the brute-force orders: the generator yields exactly the
    natural labellings the rule keeps, each once."""
    for n, want in zip(range(1, 6), (1, 1, 2, 6, 24)):
        kept = sorted(_downmasks(m) for m in brute_jsl_matrices(n) if _kept_by_the_rule(m))
        assert len(kept) == want
        assert sorted(search._natural_jsl_downmasks(n)) == kept


def test_generator_yield_at_size_7():
    assert labellings(7) == LABELLINGS[7]


def test_key_search_flattens_the_pinned_count_at_size_7():
    assert flattened(7) == FLATTENED[7]


def test_grouping_form_separates_exactly_the_isomorphism_classes():
    """Over every naturally labelled structure up to size 6, two structures
    share a grouping form iff their canonical keys are equal.  The
    structures come from the oracle, since the generator keeps only some
    labellings of each."""
    for n in range(1, 7):
        form_of_key, key_of_form = {}, {}
        for downs in natural_jsl_downmasks(n):
            alg = build_algebra(default_labels(n), order_pairs=[
                (x, y) for y in range(n) for x in range(n) if x != y and downs[y] >> x & 1])
            # the join read off the masks is the least upper bound
            assert search._join_rows(downs) == alg.join.values
            key, form = canonical_key(alg), search._grouping_form(downs)
            assert form_of_key.setdefault(key, form) == form
            assert key_of_form.setdefault(form, key) == key
        assert len(key_of_form) == count_models(spec("jsl", n))


def test_grouping_form_unchanged_by_relabelings_fixing_the_top():
    rng = random.Random(7)
    for m in enumerate_models(spec("jsl", 7)):
        form = search._grouping_form(_downmasks(m.leq))
        for _ in range(3):
            p = list(range(m.n - 1))
            rng.shuffle(p)
            scrambled = relabel(m, p + [m.top])
            assert search._grouping_form(_downmasks(scrambled.leq)) == form


def test_derived_classes_reuse_the_order_caches(monkeypatch):
    """ncis at size 7 is derived from the sectioned models, whose glb and
    pc tables it reads, without building a single glb table."""
    search._models(ClassTag.SECTIONED, 7)
    calls = []
    real = core.glb_table
    monkeypatch.setattr(core, "glb_table", lambda *a: calls.append(a) or real(*a))
    assert len(search._models.__wrapped__(ClassTag.NCIS, 7)) == 165
    assert calls == []


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", type=int, nargs="+", metavar="SIZE", required=True,
                        help="check the generator's yield and every model of every class "
                             "at these sizes")
    args = parser.parse_args()
    failed = False
    for n in args.check:
        for what, pinned, count in (("labellings", LABELLINGS, labellings),
                                    ("flattened", FLATTENED, flattened)):
            if n in pinned:
                got = count(n)
                failed |= got != pinned[n]
                print(f"{what}/{n} {'ok' if got == pinned[n] else 'DIFFERS'} count={got}")
    for tag in _CHECKS:
        for n in args.check:
            faults = emitted_model_faults(tag, n)
            failed |= bool(faults)
            print(f"{tag}/{n} {'FAILS' if faults else 'ok'} "
                  f"count={count_models(spec(tag, n))}", *faults[:5], sep="\n  ")
    raise SystemExit(1 if failed else 0)
