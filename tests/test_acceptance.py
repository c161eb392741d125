"""Acceptance suite: one test per criterion, one printed verdict line each.

These are the exit criteria for the whole artifact; each test prints
``ACCEPTANCE <n> PASS|FAIL: <summary>`` and then asserts.
"""

import json
import time
from pathlib import Path

import pytest

from conftest import FIG1_ORDER_SRC, FIG2_NCIS_SRC, FIG2_ORDER_SRC, idx, labs
from oracles import (brute_jsl_matrices, count_iso_classes, oracle_congruences,
                     oracle_is_sectioned, perm_iso_orders)
from ordalg import (ClassTag, SearchSpec, check_divisible, check_ncis_properties,
                    check_rrs_properties, congruence_lattice, derive_implication,
                    derive_residual_imp, derive_sections, enumerate_models,
                    find_counterexample, first_table_difference, glb_table,
                    ialgebra_from_ncis, maltsev_report, ncis_from_ialgebra,
                    ncis_from_rrs, parse_algebra, ralgebra_from_rrs,
                    rrs_from_ncis, rrs_from_ralgebra, section_shape_report,
                    serialize_algebra, term_witness_check,
                    validate_ncis, validate_rrs, validate_rrs_identities)
from ordalg.laws import ADJOINTNESS, evaluate

FIXTURES = Path(__file__).parent / "fixtures"

FIG1_EXPECTED_IMP = """\
op imp:
  1 1 c d 1
  a 1 c d 1
  a b 1 1 1
  a b c 1 1
  a b c d 1"""

FIG1_EXPECTED_MEET = """\
op meet partial:
  a a - - a
  a b - - b
  - - c c c
  - - c d d
  a b c d 1"""

FIG2_EXPECTED_IMP = """\
op imp:
  1 1 1 1 d 1
  b 1 b 1 d 1
  c a 1 c d 1
  b a b 1 d 1
  0 a b c 1 1
  0 a b c d 1"""

FIG2_EXPECTED_MEET = """\
op meet partial:
  0 0 0 0 - 0
  0 a 0 a - a
  0 0 b 0 - b
  0 a 0 c - c
  - - - - d d
  0 a b c d 1"""


def _verdict(num: int, ok: bool, summary: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, f"criterion {num}: {summary}"


def _block(text: str, header: str) -> str:
    lines = text.splitlines()
    start = lines.index(header)
    end = start + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return "\n".join(lines[start:end])


def _all_models(tag: str, max_size: int):
    for n in range(1, max_size + 1):
        yield from enumerate_models(SearchSpec(ClassTag(tag), n))


def _tables_equal(a, b) -> bool:
    return a.labels == b.labels and first_table_difference(
        a, b.replace(name=a.name)) is None


def test_criterion_1_fig1_golden():
    t0 = time.perf_counter()
    derived = derive_implication(parse_algebra(FIG1_ORDER_SRC))
    text = serialize_algebra(derived)
    elapsed = time.perf_counter() - t0
    ok = (_block(text, "op imp:") == FIG1_EXPECTED_IMP
          and _block(text, "op meet partial:") == FIG1_EXPECTED_MEET
          and elapsed < 1.0)
    _verdict(1, ok, "arrow and meet tables derived from the two-chain order "
                    f"match the worked tables byte-exactly ({elapsed:.3f}s)")


def test_criterion_2_fig2_golden():
    t0 = time.perf_counter()
    derived = derive_implication(parse_algebra(FIG2_ORDER_SRC))
    text = serialize_algebra(derived)
    elapsed = time.perf_counter() - t0
    d, z = idx(derived, "d", "0")
    ok = (_block(text, "op imp:") == FIG2_EXPECTED_IMP
          and _block(text, "op meet partial:") == FIG2_EXPECTED_MEET
          and derived.imp.values[d][z] == z
          and sum(v is None for row in derived.meet.values for v in row) == 8
          and elapsed < 1.0)
    _verdict(2, ok, "six-element example derives byte-exactly, with d->0 = 0 "
                    f"and all eight undefined meet entries ({elapsed:.3f}s)")


def test_criterion_3_non_modularity_witness():
    t0 = time.perf_counter()
    found = find_counterexample(SearchSpec(ClassTag.SECTIONED, 6, upto=True,
                                           violate="section-modular"))
    elapsed = time.perf_counter() - t0
    ok = found is not None and elapsed < 10.0
    pentagon = False
    if ok:
        shapes = [section_shape_report(found, b) for b in range(found.n)]
        pentagon = any(s.witness_kind == "N5" for s in shapes)
    fig2 = parse_algebra(FIG2_NCIS_SRC)
    shape = section_shape_report(fig2, idx(fig2, "0"))
    fig2_ok = (not shape.modular and shape.witness_kind == "N5"
               and labs(fig2, shape.witness) == ("0", "a", "c", "b", "1"))
    _verdict(3, ok and pentagon and fig2_ok,
             f"smallest non-modular-section model found (n={found.n if found else '-'}) "
             f"with a pentagon section; the six-element example reports "
             f"modular=false with an explicit pentagon ({elapsed:.2f}s)")


def test_criterion_4_bijection_sweeps():
    t0 = time.perf_counter()
    failures = []
    for alg in _all_models("sectioned", 5):
        if not _tables_equal(alg, derive_sections(derive_implication(alg))):
            failures.append(("sectioned-ncis", alg.name))
    for alg in _all_models("ncis", 5):
        if not _tables_equal(alg, derive_implication(derive_sections(alg))):
            failures.append(("ncis-sectioned", alg.name))
        if not _tables_equal(alg, ncis_from_ialgebra(ialgebra_from_ncis(alg))):
            failures.append(("ncis-ialg", alg.name))
    for alg in _all_models("ialg", 5):
        if not _tables_equal(alg, ialgebra_from_ncis(ncis_from_ialgebra(alg))):
            failures.append(("ialg-ncis", alg.name))
    for alg in _all_models("rrs", 5):
        if not _tables_equal(alg, rrs_from_ralgebra(ralgebra_from_rrs(alg))):
            failures.append(("rrs-ralg", alg.name))
    for alg in _all_models("ralg", 5):
        if not _tables_equal(alg, ralgebra_from_rrs(rrs_from_ralgebra(alg))):
            failures.append(("ralg-rrs", alg.name))
    elapsed = time.perf_counter() - t0
    _verdict(4, not failures and elapsed < 300.0,
             f"all three conversion round-trips table-identical over every model "
             f"up to size 5; failures={failures} ({elapsed:.2f}s)")


def test_criterion_5_property_sweeps():
    t0 = time.perf_counter()
    bad = []
    for alg in _all_models("ncis", 5):
        if not validate_ncis(alg).ok or not check_ncis_properties(alg).ok:
            bad.append(alg.name)
    for alg in _all_models("rrs", 5):
        if not check_rrs_properties(alg).ok:
            bad.append(alg.name)
    elapsed = time.perf_counter() - t0
    _verdict(5, not bad,
             f"arrow properties (5)-(9) and product properties (i)-(viii) hold "
             f"on every enumerated model up to size 5; failures={bad} ({elapsed:.2f}s)")


def _arrow_candidates(jsl):
    """Arrow tables satisfying absorption, around each base arrow: the
    residuation-derived one when it exists and the constant-top one, plus
    every single-parameter mutation."""
    from ordalg import BinTable
    n = jsl.n
    jv = jsl.join.values
    prod = glb_table(jsl.leq)
    base = jsl.replace(prod=prod)
    arrow_tables = [BinTable.from_rows([[jsl.top] * n] * n, total=True)]
    derived = derive_residual_imp(base)
    if derived is not None:
        arrow_tables.insert(0, derived)
    comparable = [(u, y) for y in range(n) for u in range(n) if jsl.leq[y][u]]
    for arrows in arrow_tables:
        params = {(u, y): arrows.values[u][y] for (u, y) in comparable}
        yield base.replace(imp=arrows)
        for (u, y) in comparable:
            for v in range(n):
                if v == params[(u, y)]:
                    continue
                mutated = dict(params)
                mutated[(u, y)] = v
                rows = [[mutated[(jv[x][y2], y2)] for y2 in range(n)]
                        for x in range(n)]
                yield base.replace(imp=BinTable.from_rows(rows, total=True))


def test_criterion_6_identity_equivalence_sweep():
    t0 = time.perf_counter()
    candidates = 0
    disagreements = []
    for jsl in _all_models("jsl", 5):
        for cand in _arrow_candidates(jsl):
            candidates += 1
            ident = validate_rrs_identities(cand)  # the base rows, then (17)-(19)
            if ident.ok != evaluate(cand, ADJOINTNESS).ok:
                disagreements.append(cand.name)
    elapsed = time.perf_counter() - t0
    _verdict(6, candidates > 1000 and not disagreements,
             f"adjointness verdict equals the (17)-(19) identity verdict on "
             f"{candidates} candidates up to size 5 ({elapsed:.2f}s)")


def test_criterion_7_bridge_bijection_sweep():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 6):
        ncis_models = list(enumerate_models(SearchSpec(ClassTag.NCIS, n)))
        rrs_models = list(enumerate_models(SearchSpec(ClassTag.RRS, n)))
        if len(ncis_models) != len(rrs_models):
            failures.append(f"count mismatch at size {n}")
            continue
        for nc, rr in zip(ncis_models, rrs_models):
            if not (check_divisible(rr).ok and validate_rrs(rr).ok):
                failures.append(rr.name)
                continue
            if not _tables_equal(rrs_from_ncis(nc), rr):
                failures.append(f"{nc.name}->rrs")
            if not _tables_equal(ncis_from_rrs(rr), nc):
                failures.append(f"{rr.name}->ncis")
    elapsed = time.perf_counter() - t0
    _verdict(7, not failures,
             f"enumerated implication models and divisible residuated models "
             f"up to size 5 coincide table-wise under the bridge; "
             f"failures={failures} ({elapsed:.2f}s)")


def test_criterion_8_congruence_sweep():
    t0 = time.perf_counter()
    failures = []
    for alg in _all_models("ialg", 5):
        if not term_witness_check(alg).ok:
            failures.append(f"{alg.name}: terms")
        rep = maltsev_report(alg)
        if not (rep.three_permutable and rep.con_distributive and rep.weakly_regular):
            failures.append(f"{alg.name}: verdicts")
        lat = congruence_lattice(alg)
        if sorted(lat.congruences) != sorted(oracle_congruences(alg)):
            failures.append(f"{alg.name}: oracle mismatch")
    elapsed = time.perf_counter() - t0
    _verdict(8, not failures and elapsed < 600.0,
             f"term schemes, congruence verdicts and the partition-filter "
             f"oracle agree on every total model up to size 5; "
             f"failures={failures} ({elapsed:.2f}s)")


def test_criterion_9_model_count_regression():
    t0 = time.perf_counter()
    frozen = json.loads((FIXTURES / "model_counts.json").read_text())
    method_a = {tag: [len(list(enumerate_models(SearchSpec(ClassTag(tag), n))))
                      for n in range(1, 6)]
                for tag in ("jsl", "sectioned", "ncis")}

    method_b = {"jsl": [], "sectioned": [], "ncis": []}
    for n in range(1, 6):
        labeled = brute_jsl_matrices(n)
        method_b["jsl"].append(count_iso_classes(labeled, perm_iso_orders))
        sect = [m for m in labeled if oracle_is_sectioned(m)]
        method_b["sectioned"].append(count_iso_classes(sect, perm_iso_orders))
        # arrow tables are forced, so the implication count equals the
        # sectioned count; verified via the independent sectioned scan
        method_b["ncis"].append(method_b["sectioned"][-1])

    elapsed = time.perf_counter() - t0
    ok = all(method_a[t] == frozen[t] == method_b[t]
             for t in ("jsl", "sectioned", "ncis"))
    _verdict(9, ok,
             f"model counts for sizes 1-5 reproduce the frozen fixtures by "
             f"both enumeration methods: {method_a} ({elapsed:.2f}s)")
