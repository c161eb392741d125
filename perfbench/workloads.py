"""The three workloads: their inputs, their timed operations, and the checks
made on their outputs by computations apart from the program.

Each workload has ``load`` (set-up: everything up to the first timed
operation), ``run`` (the timed batch) and ``verify`` (after timing, with any
tracer removed).  ``run`` calls ``before_op(i)`` ahead of operation i, outside
the operation's timing: the worker uses it to tag spans and to pause the
batch for set-up probes.  ``run`` returns a `Batch`; ``verify`` returns a list of
problems, empty when every output that did not fail is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

CLASSES = ("jsl", "sectioned", "ncis", "rrs", "srs", "ialg", "ralg")
MAX_SIZE = 7

# OEIS A006966 (lattices on n unlabelled nodes) shifted by one: adding a
# bottom to a join-semilattice with top on n elements gives a lattice on n+1.
JSL_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15, 6: 53, 7: 222}

# Models of each other class per size, one per sectioned semilattice, as the
# enum-sweep checks find with the oracle.  The stored inputs of con-sweep and
# check-mix must hold exactly this corpus, so that a program writing fewer
# models cannot shrink those workloads while their outputs still check out.
SECTIONED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 45, 7: 165}
CORPUS_COUNTS = {c: JSL_COUNTS if c == "jsl" else SECTIONED_COUNTS for c in CLASSES}

# Classes whose enumeration must give exactly one model per sectioned
# semilattice: each has exactly one arrow and one I-algebra.
SECTIONED_ALIKE = ("sectioned", "ncis", "ncis --free-imp", "ialg")
ADJOINT_CLASSES = ("rrs", "srs", "ralg")

# Highest size whose congruences are cross-checked by brute force over all
# set partitions (Bell(6) = 203 candidates per algebra).
ORACLE_CON_MAX = 6

FAIL_LINE = re.compile(r"FAIL axiom=\S+ witness=\([^()\s]*\) lhs=\S* rhs=\S*")


@dataclass
class Batch:
    """What one timed batch did: per-operation latencies in seconds (failed
    operations excluded), the raw outputs for ``verify``, and the count of
    operations attempted and failed."""

    samples: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def call_cli(cli, argv: list[str], out) -> tuple[int | None, str]:
    """Run ``ordalg`` in-process with stdout into ``out``; returns the exit
    code (None when the call raised) and the stderr text or traceback."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), err.getvalue()
    except Exception:
        return None, traceback.format_exc()
    return rc, err.getvalue()


def check_input_counts(found: Counter, classes) -> list[str]:
    """Compare the stored models a workload loaded, counted per (class,
    size), with the corpus every class must have."""
    want = Counter({(c, n): k for c in classes for n, k in CORPUS_COUNTS[c].items()})
    return [f"{c} size {n}: {found[c, n]} stored models, the corpus has {want[c, n]}"
            for c, n in sorted(want.keys() | found.keys()) if found[c, n] != want[c, n]]


def _oracles(root: Path):
    tests = str(root / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    import oracles
    return oracles


# ---------------------------------------------------------------------------
# enum-sweep

ENUM_COMMANDS = tuple(
    ["search", "--class", c, "--size", str(MAX_SIZE), "--upto", "--count"]
    for c in CLASSES) + (
    ["search", "--class", "ncis", "--size", str(MAX_SIZE), "--upto", "--count",
     "--free-imp"],)


def _command_label(argv: list[str]) -> str:
    label = argv[2]
    return label + " --free-imp" if "--free-imp" in argv else label


class _LineClock(io.TextIOBase):
    """Text sink that stamps the time at which each line was completed."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self._partial += s
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append(line)
            self.stamps.append(time.perf_counter())
        return len(s)


class EnumSweep:
    """``ordalg search --class C --size 7 --upto --count`` for every class,
    jsl first, then ncis again with ``--free-imp``, in one process.

    The work comes out as 56 (class, size) count lines whose times differ by
    four orders of magnitude, so an operation is one model counted: each of
    the models a line counts gets an equal share of that line's time, which
    runs from the previous line (or the start of the command) to its own.
    ``attempted`` counts the 56 lines.  The commands are fixed, so the seed
    changes nothing here.
    """

    name = "enum-sweep"
    needs_inputs = False

    def load(self, ordalg, inputs: Path | None, seed: int):
        return [list(cmd) for cmd in ENUM_COMMANDS]

    def run(self, ordalg, commands, before_op) -> Batch:
        batch = Batch()
        for i, argv in enumerate(commands):
            before_op(i)
            clock = _LineClock()
            start = time.perf_counter()
            rc, err = call_cli(ordalg.cli, argv, clock)
            batch.attempted += MAX_SIZE
            prev = start
            for line, stamp in zip(clock.lines, clock.stamps):
                m = re.search(r" count=(\d+)$", line)
                models = max(int(m.group(1)), 1) if m else 1
                batch.samples += [(stamp - prev) / models] * models
                prev = stamp
            if rc != 0:
                batch.failed += MAX_SIZE - len(clock.lines)
                batch.errors.append(f"{' '.join(argv)}: exit {rc}: {err.strip()[-300:]}")
            batch.outputs.append((_command_label(argv), rc, clock.lines))
        return batch

    def verify(self, ordalg, root: Path, commands, batch: Batch) -> list[str]:
        counts: dict[str, dict[int, int]] = {}
        problems = []
        for label, rc, lines in batch.outputs:
            got = {}
            cls = label.split()[0]
            for line in lines:
                m = re.fullmatch(rf"class={cls} size=(\d+) count=(\d+)", line)
                if m is None:
                    problems.append(f"{label}: malformed line {line!r}")
                    continue
                got[int(m.group(1))] = int(m.group(2))
            if rc == 0 and sorted(got) != list(range(1, MAX_SIZE + 1)):
                problems.append(f"{label}: counted sizes {sorted(got)}")
            counts[label] = got
        problems += check_enum_counts(counts, self.expected_sectioned(ordalg, root))
        problems += self.check_adjoint_models(ordalg, counts)
        return problems

    @staticmethod
    def expected_sectioned(ordalg, root: Path) -> dict[int, int]:
        """Jsl models that the brute-force oracle calls sectioned, per size."""
        oracle = _oracles(root).oracle_is_sectioned
        out = {}
        for n in range(1, MAX_SIZE + 1):
            spec = ordalg.SearchSpec(ordalg.ClassTag.JSL, n)
            out[n] = sum(1 for alg in ordalg.enumerate_models(spec) if oracle(alg.leq))
        return out

    @staticmethod
    def check_adjoint_models(ordalg, counts) -> list[str]:
        problems = []
        for cls in ADJOINT_CLASSES:
            tag = ordalg.ClassTag(cls)
            for n in range(1, MAX_SIZE + 1):
                models = list(ordalg.enumerate_models(ordalg.SearchSpec(tag, n)))
                if counts.get(cls, {}).get(n) not in (None, len(models)):
                    problems.append(f"{cls} size {n}: printed count "
                                    f"{counts[cls][n]} but {len(models)} models")
                for alg in models:
                    bad = adjointness_violation(alg)
                    if bad is not None:
                        problems.append(f"{alg.name}: relative adjointness fails "
                                        f"at (x,y,z)={bad}")
        return problems


def check_enum_counts(counts: dict[str, dict[int, int]],
                      sectioned: dict[int, int]) -> list[str]:
    """Compare printed counts with OEIS A006966 and the sectioned oracle."""
    problems = []
    for n, want in JSL_COUNTS.items():
        got = counts.get("jsl", {}).get(n)
        if got is not None and got != want:
            problems.append(f"jsl size {n}: count {got}, OEIS A006966 gives {want}")
    for label in SECTIONED_ALIKE:
        for n, want in sectioned.items():
            got = counts.get(label, {}).get(n)
            if got is not None and got != want:
                problems.append(f"{label} size {n}: count {got}, "
                                f"oracle finds {want} sectioned semilattices")
    return problems


def adjointness_violation(alg) -> tuple[int, int, int] | None:
    """Brute-force relative adjointness on the raw tables:
    ``(x v z).(y v z) <= z  iff  x v z <= y->z`` for all x, y, z, with the
    order read off the join table and the product taken from the partial
    product table, or as ``q(x, y, z)`` on a ternary-product algebra."""
    join = alg.join.values
    imp = alg.imp.values
    n = len(join)

    def le(a: int, b: int) -> bool:
        return join[a][b] == b

    for x in range(n):
        for y in range(n):
            for z in range(n):
                a, b = join[x][z], join[y][z]
                p = alg.q.values[x][y][z] if alg.q is not None else alg.prod.values[a][b]
                if p is None or le(p, z) != le(a, imp[y][z]):
                    return x, y, z
    return None


# ---------------------------------------------------------------------------
# con-sweep

@dataclass(frozen=True)
class ConOutcome:
    name: str
    size: int
    con_size: int
    three_permutable: bool
    con_distributive: bool
    weakly_regular: bool
    terms_ok: bool


class ConSweep:
    """``congruence_lattice``, ``maltsev_report`` and ``term_witness_check``
    on every ialg model of sizes 1-7, parsed during set-up, in an order
    shuffled by the seed.  One operation is all three calls on one algebra."""

    name = "con-sweep"
    needs_inputs = True

    def load(self, ordalg, inputs: Path, seed: int):
        files = sorted((inputs / "corpus" / "ialg").glob("*.alg"))
        random.Random(seed).shuffle(files)
        return [ordalg.parse_algebra(f.read_text(encoding="utf-8")) for f in files]

    def run(self, ordalg, algebras, before_op) -> Batch:
        con = ordalg.congruence
        batch = Batch()
        for i, alg in enumerate(algebras):
            before_op(i)
            batch.attempted += 1
            start = time.perf_counter()
            try:
                lat = con.congruence_lattice(alg)
                rep = con.maltsev_report(alg, lat)
                terms = con.term_witness_check(alg)
            except Exception:
                batch.failed += 1
                batch.errors.append(f"{alg.name}: {traceback.format_exc()[-300:]}")
                continue
            batch.samples.append(time.perf_counter() - start)
            batch.outputs.append(ConOutcome(alg.name, alg.n, lat.size, rep.three_permutable,
                                            rep.con_distributive, rep.weakly_regular,
                                            terms.ok))
        return batch

    def verify(self, ordalg, root: Path, algebras, batch: Batch) -> list[str]:
        oracle = _oracles(root).oracle_congruences
        by_name = {alg.name: alg for alg in algebras}
        expected = {o.name: len(oracle(by_name[o.name])) for o in batch.outputs
                    if o.size <= ORACLE_CON_MAX}
        return (check_input_counts(Counter(("ialg", alg.n) for alg in algebras), ["ialg"])
                + check_con_outcomes(batch.outputs, expected))


def check_con_outcomes(outcomes, oracle_sizes: dict[str, int]) -> list[str]:
    """Every I-algebra is 3-permutable, congruence distributive and weakly
    regular, its term certificate holds, and |Con| matches the oracle."""
    problems = []
    for o in outcomes:
        verdicts = (o.three_permutable, o.con_distributive, o.weakly_regular)
        if not all(verdicts):
            problems.append(f"{o.name}: verdicts (3-permutable, distributive, "
                            f"weakly regular) = {verdicts}, the theorem says all true")
        if not o.terms_ok:
            problems.append(f"{o.name}: term_witness_check failed")
        want = oracle_sizes.get(o.name)
        if want is not None and o.con_size != want:
            problems.append(f"{o.name}: |Con| = {o.con_size}, oracle finds {want}")
    return problems


# ---------------------------------------------------------------------------
# check-mix

class CheckMix:
    """The CLI verbs ``check``, ``derive``, ``roundtrip`` and ``tables`` on
    stored files of every class at sizes 1-7, most of them seeded
    single-cell mutations, called in-process in the seeded order of the
    input manifest.  One operation is one CLI call.  The one known-fault
    operation (see ``make_inputs.KNOWN_FAULT``) counts as failed while the
    program accepts its input."""

    name = "check-mix"
    needs_inputs = True

    def load(self, ordalg, inputs: Path, seed: int):
        manifest = json.loads((inputs / f"seed-{seed}" / "manifest.json")
                              .read_text(encoding="utf-8"))
        for op in manifest:
            op["argv"][1] = str(inputs / op["argv"][1])
        return manifest

    def run(self, ordalg, manifest, before_op) -> Batch:
        batch = Batch()
        for i, op in enumerate(manifest):
            before_op(i)
            batch.attempted += 1
            out = io.StringIO()
            start = time.perf_counter()
            rc, err = call_cli(ordalg.cli, op["argv"], out)
            elapsed = time.perf_counter() - start
            if rc is None:
                batch.failed += 1
                batch.errors.append(f"{' '.join(op['argv'])}: {err[-300:]}")
                continue
            if op["kind"] == "known-fault" and rc == 0:
                batch.failed += 1
                continue
            batch.samples.append(elapsed)
            batch.outputs.append((i, rc, out.getvalue()))
        return batch

    def verify(self, ordalg, root: Path, manifest, batch: Batch) -> list[str]:
        # every stored file is either checked unmutated or checked as a mutant
        problems = check_input_counts(
            Counter((op["class"], op["size"]) for op in manifest
                    if op["kind"] in ("check", "mutant")), CLASSES)
        for i, rc, stdout in batch.outputs:
            problem = check_cli_outcome(manifest[i], rc, stdout)
            if problem:
                problems.append(f"{' '.join(manifest[i]['argv'])}: {problem}")
        return problems


def check_cli_outcome(op: dict, rc: int, stdout: str) -> str | None:
    """None when a CLI call did what its input demands, else the reason.

    An unmutated file passes every verb, and ``roundtrip`` prints IDENTICAL.
    A mutation must fail: exit 1 with PASS lines for the laws checked before
    and one well-formed FAIL line, or exit 2 with nothing on stdout when the
    parser rejects a join or meet table.  No single-cell change can be
    valid, since the arrow, meet, product, r and q tables are determined by
    the order and a join table by itself.  The known-fault file is such a
    mutation; while the program accepts it, ``run`` counts it as failed and
    it never reaches this check.
    """
    kind = op["kind"]
    if kind in ("mutant", "known-fault"):
        lines = stdout.splitlines()
        if rc == 1 and lines and FAIL_LINE.fullmatch(lines[-1]) \
                and all(line.startswith("PASS ") for line in lines[:-1]):
            return None
        if rc == 2 and op["table"] in ("join", "meet") and stdout == "":
            return None
        return f"mutated {op['table']} cell {op['cell']}: exit {rc}, stdout {stdout[-120:]!r}"
    if rc != 0:
        return f"exit {rc} on an unmutated file, stdout {stdout[-120:]!r}"
    ok = {
        "check": lambda: bool(stdout) and all(line.startswith("PASS ")
                                              for line in stdout.splitlines()),
        "derive": lambda: stdout.startswith("algebra\n") and stdout.endswith("end\n"),
        "roundtrip": lambda: stdout == "IDENTICAL\n",
        "tables": lambda: stdout.startswith("join "),
    }[kind]()
    return None if ok else f"unexpected output {stdout[:120]!r}"


WORKLOADS = {w.name: w for w in (EnumSweep(), ConSweep(), CheckMix())}
