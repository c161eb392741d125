"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import ordalg  # noqa: E402
import ordalg.cli  # noqa: E402
import make_inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# --- tail percentile ---------------------------------------------------------

def test_no_tail_under_forty_samples():
    assert stats.tail_percentile(0) is None
    assert stats.tail_percentile(39) is None
    assert stats.tail_percentile(40) == 75


@pytest.mark.parametrize("n, pct", [(233, 95), (1000, 99), (1930, 99), (3159, 99)])
def test_tail_percentile_of_the_batch_sizes(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_is_the_highest_percentile_with_ten_beyond():
    for n in range(40, 2000):
        pct = stats.tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > stats.nearest_rank(values, pct))
        assert beyond >= stats.TAIL_BEYOND
        if pct < 99:
            above = stats.nearest_rank(values, pct + 1)
            assert sum(1 for v in values if v > above) < stats.TAIL_BEYOND


# --- correctness checkers reject planted wrong answers -------------------------

SECTIONED = workloads.SECTIONED_COUNTS


def _enum_counts():
    counts = {"jsl": dict(workloads.JSL_COUNTS)}
    for label in workloads.SECTIONED_ALIKE:
        counts[label] = dict(SECTIONED)
    return counts


def test_enum_checker_accepts_the_true_counts():
    assert workloads.check_enum_counts(_enum_counts(), SECTIONED) == []


def test_enum_checker_rejects_a_jsl_count_off_by_one():
    counts = _enum_counts()
    counts["jsl"][7] += 1
    problems = workloads.check_enum_counts(counts, SECTIONED)
    assert len(problems) == 1 and "jsl size 7" in problems[0]


def test_enum_checker_rejects_a_free_imp_count_off_by_one():
    counts = _enum_counts()
    counts["ncis --free-imp"][6] -= 1
    assert workloads.check_enum_counts(counts, SECTIONED)


def test_adjointness_check_rejects_a_wrong_product():
    spec = ordalg.SearchSpec(ordalg.ClassTag.RRS, 3)
    models = list(ordalg.enumerate_models(spec))
    assert all(workloads.adjointness_violation(m) is None for m in models)
    alg = models[0]
    rows = [list(r) for r in alg.prod.values]
    rows[alg.top][alg.top] = next(v for v in range(alg.n) if v != alg.top)
    bad = dataclasses.replace(alg, prod=ordalg.BinTable.from_rows(rows, total=False))
    assert workloads.adjointness_violation(bad) is not None


def _con(**changes):
    base = workloads.ConOutcome("ialg_4_0", 4, 8, True, True, True, True)
    return dataclasses.replace(base, **changes)


def test_con_checker_accepts_the_theorem():
    assert workloads.check_con_outcomes([_con()], {"ialg_4_0": 8}) == []


@pytest.mark.parametrize("field", ["three_permutable", "con_distributive",
                                   "weakly_regular", "terms_ok"])
def test_con_checker_rejects_a_false_verdict(field):
    assert workloads.check_con_outcomes([_con(**{field: False})], {})


def test_con_checker_rejects_a_congruence_count_the_oracle_disagrees_with():
    assert workloads.check_con_outcomes([_con(con_size=7)], {"ialg_4_0": 8})


MUTANT = {"kind": "mutant", "table": "imp", "cell": [1, 2]}


def test_cli_checker_rejects_a_mutated_file_that_passes():
    assert workloads.check_cli_outcome(MUTANT, 0, "PASS class=ncis\n")


def test_cli_checker_accepts_a_mutation_that_fails():
    line = "FAIL axiom=(2) witness=(a,b) lhs=a rhs=b\n"
    assert workloads.check_cli_outcome(MUTANT, 1, line) is None
    assert workloads.check_cli_outcome(MUTANT, 1, "PASS class=jsl\n" + line) is None


def test_cli_checker_rejects_a_malformed_fail_line():
    assert workloads.check_cli_outcome(MUTANT, 1, "FAIL (2)\n")


def test_cli_checker_allows_exit_2_only_for_join_and_meet():
    assert workloads.check_cli_outcome(dict(MUTANT, table="join"), 2, "") is None
    assert workloads.check_cli_outcome(dict(MUTANT, table="meet"), 2, "") is None
    assert workloads.check_cli_outcome(MUTANT, 2, "")


def test_cli_checker_demands_identical_roundtrips():
    op = {"kind": "roundtrip"}
    assert workloads.check_cli_outcome(op, 0, "IDENTICAL\n") is None
    assert workloads.check_cli_outcome(op, 1, "DIFFER table=imp cell=(a,b) left=a right=b\n")


# --- inputs ------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    for cls in make_inputs.CLASSES:
        assert ordalg.cli.main(["search", "--class", cls, "--size", "4", "--upto",
                                "--out", str(out / "corpus" / cls)]) == 0
    return out


def test_inputs_are_byte_identical_for_one_seed(small_corpus, tmp_path):
    first = make_inputs.write_seed(small_corpus, small_corpus / "corpus", 5)
    snapshot = {p.relative_to(first): p.read_bytes()
                for p in sorted(first.rglob("*")) if p.is_file()}
    again = make_inputs.write_seed(small_corpus, small_corpus / "corpus", 5)
    assert {p.relative_to(again): p.read_bytes()
            for p in sorted(again.rglob("*")) if p.is_file()} == snapshot


def test_mutation_changes_exactly_one_cell(small_corpus):
    text = (small_corpus / "corpus" / "ralg" / "ralg_4_1.alg").read_text()
    for table_no in range(3):
        new, _table, _cell = make_inputs.mutate(text, table_no, random.Random(table_no))
        old_toks = [line.split() for line in text.split("\n")]
        new_toks = [line.split() for line in new.split("\n")]
        diffs = sum(a != b for old, now in zip(old_toks, new_toks)
                    for a, b in zip(old, now))
        assert diffs == 1


def test_operation_counts_do_not_depend_on_the_seed(small_corpus):
    def shape(seed):
        path = make_inputs.write_seed(small_corpus, small_corpus / "corpus", seed)
        ops = json.loads((path / "manifest.json").read_text())
        return sorted((o["kind"], o["class"], o["size"], o.get("table")) for o in ops)
    assert shape(1) == shape(2)


def test_input_counts_accept_the_whole_corpus():
    full = Counter({(c, n): k for c in workloads.CLASSES
                    for n, k in workloads.CORPUS_COUNTS[c].items()})
    assert workloads.check_input_counts(full, workloads.CLASSES) == []
    assert sum(full[c, n] for c, n in full if c == "ialg") == 233


def test_con_sweep_rejects_a_corpus_missing_one_model():
    found = Counter({("ialg", n): k for n, k in SECTIONED.items()})
    found["ialg", 7] -= 1
    (problem,) = workloads.check_input_counts(found, ["ialg"])
    assert "ialg size 7: 164" in problem


def test_check_mix_rejects_a_smaller_corpus(small_corpus):
    path = make_inputs.write_seed(small_corpus, small_corpus / "corpus", 4)
    manifest = json.loads((path / "manifest.json").read_text())
    problems = workloads.CheckMix().verify(ordalg, ROOT, manifest, workloads.Batch())
    assert len(problems) == 3 * len(workloads.CLASSES)  # sizes 5-7 are missing
    assert all("stored models" in p for p in problems)


def test_known_fault_file_is_accepted_by_check_srs(small_corpus, capsys):
    path = make_inputs.write_seed(small_corpus, small_corpus / "corpus", 3)
    ops = json.loads((path / "manifest.json").read_text())
    (fault,) = [o for o in ops if o["kind"] == "known-fault"]
    argv = [fault["argv"][0], str(small_corpus / fault["argv"][1]), *fault["argv"][2:]]
    assert ordalg.cli.main(argv) == 0


# --- tracer ------------------------------------------------------------------

def test_tracer_wraps_functions_bound_by_name_and_in_cli_tables(small_corpus, capsys):
    original = ordalg.cli._MAPS["A"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ordalg.cli._MAPS["A"][2] is not original[2]
        path = small_corpus / "corpus" / "ncis" / "ncis_4_1.alg"
        assert ordalg.cli.main(["derive", str(path), "--map", "A"]) == 0
    finally:
        tracer.uninstall()
    assert ordalg.cli._MAPS["A"] is original
    assert ordalg.cli.parse_algebra is ordalg.fileio.parse_algebra
    metrics = tracer.layer_metrics()
    assert tracer.calls["varieties.ialgebra_from_ncis"] == 1
    assert tracer.calls["fileio.parse_algebra"] == 2  # the input and the re-parse
    assert tracer.calls["cli.main"] == 1
    main_span = next(s for s in tracer.spans if s[0] == "cli.main")
    assert 0 < metrics["cli.main.s"] < main_span[4] - main_span[3]
    assert set(metrics) == {name for name, _ in spans.LAYER_METRICS}


def test_tracer_times_a_generator_only_while_it_runs():
    tracer = spans.Tracer()
    tracer.install()
    try:
        spec = ordalg.SearchSpec(ordalg.ClassTag.NCIS, 3, upto=True)
        models = list(ordalg.enumerate_models(spec))
    finally:
        tracer.uninstall()
    assert tracer.calls["search.enumerate_models"] == 1
    segments = [s for s in tracer.spans if s[0] == "search.enumerate_models"]
    assert len(segments) == len(models) + 1


# --- the benchmark definition ------------------------------------------------

def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
