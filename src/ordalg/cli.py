"""Command-line front end.

Exit codes: 0 means the command succeeded and every requested check passed;
1 means a check failed (stdout carries one stable machine-readable line,
``FAIL axiom=<label> witness=(<elements>) lhs=<v> rhs=<v>``); 2 means the
input or usage was bad.  Human-oriented prose goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import search as search_mod
from .congruence import congruence_lattice, maltsev_report
from .core import (JOIN_LAWS_HOLD, OPS, Algebra, ClassTag, OrdalgError, ParseError,
                   Report, StructureError, first_table_difference, project_to_class)
from .fileio import element_count, parse_algebra, serialize_algebra
from .implication import check_ncis_properties, derive_implication, derive_sections
from .laws import evaluate
from .residuated import (BridgeError, check_divisible, check_rrs_properties,
                         ncis_from_rrs, rrs_from_ncis)
from .search import (VALIDATORS, SearchSpec, count_models, enumerate_models,
                     find_counterexample)
from .varieties import (ialgebra_from_ncis, ncis_from_ialgebra, ralgebra_from_rrs,
                        rrs_from_ralgebra)

_CLASS_NAMES = [t.value for t in ClassTag]
# the slots `tables` prints: those with a square table
_TABLE_OPS = [name for name, (arity, _) in OPS.items() if arity == 2]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise StructureError(f"cannot read {path}: {exc}") from exc


def _load_capped(path: str) -> Algebra:
    """Load a file, refusing one above the size cap: building it is
    O(n^3), the validators O(n^3)-O(n^4), and |Con| can reach 2^(n-1).
    The labels are counted before the file is parsed."""
    text = _read(path)
    cap, size = search_mod.size_cap(), element_count(text)
    if size > cap:
        raise StructureError(f"{path}: size {size} exceeds the cap of {cap} "
                             f"(override with {search_mod.ENV_MAX_SIZE})")
    return parse_algebra(text)


def _report_exit(rep: Report, what: str) -> int:
    if rep.ok:
        print(f"PASS {what}")
        if rep.note:
            print(rep.note, file=sys.stderr)
        return 0
    print(rep.fail_line())
    if rep.note:
        print(rep.note, file=sys.stderr)
    return 1


# the checks `--props` and `--subvariety` add after a class's validator;
# ralg's `--subvariety` instead adds an identity to its validator
_FLAG_CHECKS = {
    ClassTag.NCIS: (("props", check_ncis_properties, "props=ncis"),),
    ClassTag.RRS: (("props", check_rrs_properties, "props=rrs"),
                   ("subvariety", check_divisible, "divisible=rrs")),
}


def _validator_chain(alg: Algebra, tag: ClassTag, props: bool, subvariety: bool):
    """Reports to run, in order, for `check --class <tag>`, up to the first
    that fails.  A sectioned semilattice is checked as a jsl first.  The jsl
    check passes from the parse: `build_algebra` accepted a given join
    table in one pass over its up-set masks, which holds exactly when the
    join laws do (their rows run only to name a failure), and a join
    derived from an order holds them."""
    flags = {"props": props, "subvariety": subvariety}

    def reports():
        if tag in (ClassTag.JSL, ClassTag.SECTIONED):
            yield evaluate(alg, (), JOIN_LAWS_HOLD), "class=jsl"  # no row left to run
        if tag != ClassTag.JSL:
            extra = {"subvariety": subvariety} if tag == ClassTag.RALG else {}
            yield VALIDATORS[tag](alg, **extra), f"class={tag.value}"
        for flag, check, what in _FLAG_CHECKS.get(tag, ()):
            if flags[flag]:
                yield check(alg), what

    reps: list[tuple[Report, str]] = []
    for rep, what in reports():
        reps.append((rep, what))
        if not rep.ok:
            break
    return reps


def cmd_check(args) -> int:
    alg = _load_capped(args.file)
    tag = ClassTag(args.klass) if args.klass else alg.class_tag
    # the chain stops at its first failing report, whose exit code is the largest
    reps = _validator_chain(alg, tag, args.props, args.subvariety)
    return max(_report_exit(rep, what) for rep, what in reps)


_MAPS = {
    # code: (source class, target class, map)
    "I": (ClassTag.SECTIONED, ClassTag.NCIS, derive_implication),
    "S": (ClassTag.NCIS, ClassTag.SECTIONED, derive_sections),
    "A": (ClassTag.NCIS, ClassTag.IALG, ialgebra_from_ncis),
    "J": (ClassTag.IALG, ClassTag.NCIS, ncis_from_ialgebra),
    "B": (ClassTag.RRS, ClassTag.RALG, ralgebra_from_rrs),
    "Q": (ClassTag.RALG, ClassTag.RRS, rrs_from_ralgebra),
    # an srs product that passes the domain law is undefined off bounded
    # pairs, so it is read unchanged as an rrs product
    "R": (ClassTag.SRS, ClassTag.RRS, lambda a: a),
}


def cmd_derive(args) -> int:
    alg = _load_capped(args.file)
    source, target, mapper = _MAPS[args.map]
    rep = VALIDATORS[source](alg)
    if not rep.ok:
        print(rep.fail_line())
        print(f"input is not a valid {source.value} algebra", file=sys.stderr)
        return 1
    # the paper proves that each map lands in its target class, so the output
    # is not validated (tests/test_search.py checks it on every model, to
    # size 8 with ``--check 8``).  It carries the tables of the target class
    # only: an input of another class may bring tables the map does not read
    text = serialize_algebra(project_to_class(mapper(alg), target))
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise StructureError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


_PAIRS = {
    # pair: (source class, forward map, backward map)
    "sectioned-ncis": (ClassTag.SECTIONED, derive_implication, derive_sections),
    "ncis-ialg": (ClassTag.NCIS, ialgebra_from_ncis, ncis_from_ialgebra),
    "rrs-ralg": (ClassTag.RRS, ralgebra_from_rrs, rrs_from_ralgebra),
    "srs-rrs": (ClassTag.SRS, lambda a: a, lambda a: a),
    "ncis-rrs": (ClassTag.NCIS, rrs_from_ncis, ncis_from_rrs),
}


def cmd_roundtrip(args) -> int:
    source, forward, backward = _PAIRS[args.pair]
    alg = project_to_class(_load_capped(args.file), source)
    rep = VALIDATORS[source](alg)
    if not rep.ok:
        print(rep.fail_line())
        print(f"input is not a valid {source.value} algebra", file=sys.stderr)
        return 1
    diff = first_table_difference(alg, backward(forward(alg)))
    if diff is None:
        print("IDENTICAL")
        return 0
    table, coords, left, right = diff
    cell = ",".join(coords)
    print(f"DIFFER table={table} cell=({cell}) left={left} right={right}")
    return 1


def cmd_con(args) -> int:
    alg = _load_capped(args.file)
    lat = congruence_lattice(alg)
    rep = maltsev_report(alg, lat)
    print(f"congruences: {lat.size}")
    print(f"three_permutable: {'true' if rep.three_permutable else 'false'}")
    print(f"con_distributive: {'true' if rep.con_distributive else 'false'}")
    print(f"weakly_regular: {'true' if rep.weakly_regular else 'false'}")
    if args.report == "full":
        for part in lat.congruences:
            print(part.notation(alg.labels))
    if rep.witness:
        print(rep.witness, file=sys.stderr)
    return 0


def cmd_search(args) -> int:
    tag = ClassTag(args.klass)  # argparse allows the class names only
    if args.limit is not None and args.limit < 1:
        raise ValueError("limit must be a positive integer")
    spec = SearchSpec(tag, args.size, upto=args.upto, violate=args.violate,
                      limit=args.limit)
    spec.check()
    if search_mod.DEFAULT_MAX_SIZE < args.size <= search_mod.size_cap():
        print(f"warning: size {args.size} above the default cap of "
              f"{search_mod.DEFAULT_MAX_SIZE}; identity scans are O(n^4) and "
              "canonicalization is factorial, expect a long run",
              file=sys.stderr)
    if args.violate:
        model = find_counterexample(spec)
        if model is None:
            print("NONE")
        else:
            sys.stdout.write(serialize_algebra(model))
        return 0
    if args.count:
        for n in spec.sizes():
            print(f"class={tag.value} size={n} count={count_models(SearchSpec(tag, n))}")
        return 0
    if args.out:
        outdir = Path(args.out)
        written = 0
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for model in enumerate_models(spec):
                (outdir / f"{model.name}.alg").write_text(serialize_algebra(model),
                                                          encoding="utf-8")
                written += 1
        except OSError as exc:
            raise StructureError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {written} models to {outdir}", file=sys.stderr)
        return 0
    first = True
    for model in enumerate_models(spec):
        if not first:
            print()
        sys.stdout.write(serialize_algebra(model))
        first = False
    return 0


def render_table(alg: Algebra, name: str) -> str:
    """Paper-style rendering: label header row/column, '-' for undefined."""
    table = getattr(alg, name)
    if table is None:
        raise StructureError(f"no {name} table present")
    n = alg.n
    width = max(len(lab) for lab in alg.labels)
    corner = max(width, len(name))

    header_cells = " ".join(lab.ljust(width) for lab in alg.labels).rstrip()
    lines = [f"{name.ljust(corner)} | {header_cells}"]
    lines.append("-" * (corner + 1) + "+" + "-" * (len(header_cells) + 1))
    for i in range(n):
        cells = " ".join(alg.token(table.values[i][j]).ljust(width)
                         for j in range(n)).rstrip()
        lines.append(f"{alg.label(i).ljust(corner)} | {cells}")
    return "\n".join(lines)


def cmd_tables(args) -> int:
    alg = _load_capped(args.file)
    if args.op and getattr(alg, args.op) is None:
        print(f"no {args.op} table in {args.file}", file=sys.stderr)
        return 2
    names = [args.op] if args.op else [name for name, _ in alg.tables()
                                       if name in _TABLE_OPS]
    print("\n\n".join(render_table(alg, name) for name in names))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `main` runs in-process
    many times over in library sessions and tests, and parsing holds no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="ordalg",
        description="Finite join-semilattice workbench: validation, "
                    "derivations, congruences, model search, table printing.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="validate an algebra file against a class")
    p.add_argument("file")
    p.add_argument("--class", dest="klass", choices=_CLASS_NAMES,
                   help="axiom system to check (default: inferred from tables)")
    p.add_argument("--props", action="store_true",
                   help="also check the derived-property suite")
    p.add_argument("--subvariety", action="store_true",
                   help="also check the divisibility identity (ralg/rrs)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="apply a conversion map and print the result")
    p.add_argument("file")
    p.add_argument("--map", required=True, choices=sorted(_MAPS),
                   help="I: sectioned->ncis  S: ncis->sectioned  A: ncis->ialg  "
                        "J: ialg->ncis  B: rrs->ralg  Q: ralg->rrs  R: srs->rrs")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("roundtrip", help="map forward and back, compare tables")
    p.add_argument("file")
    p.add_argument("--pair", required=True, choices=sorted(_PAIRS))
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("con", help="congruence lattice and Maltsev verdicts")
    p.add_argument("file")
    p.add_argument("--report", choices=["summary", "full"], default="summary")
    p.set_defaults(func=cmd_con)

    p = sub.add_parser("search", help="enumerate models up to isomorphism")
    p.add_argument("--class", dest="klass", required=True, choices=_CLASS_NAMES)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--upto", action="store_true", help="sizes 1..N")
    p.add_argument("--count", action="store_true", help="print counts only")
    p.add_argument("--violate", help="search for a property counterexample")
    p.add_argument("--free-imp", dest="free_imp", action="store_true",
                   help="accepted for compatibility; the arrow is unique, so "
                        "the models are the same with or without it")
    p.add_argument("--limit", type=int)
    p.add_argument("--out", help="write models as .alg files into a directory")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("tables", help="print operation tables")
    p.add_argument("file")
    p.add_argument("--op", choices=_TABLE_OPS)
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BridgeError as exc:
        print(exc.report.fail_line())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OrdalgError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
