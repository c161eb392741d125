"""Residuated structure on join-semilattices.

Two presentations of the same data: one partial product on bounded pairs
with a total arrow (relative adjointness), or a family of commutative
monoids, one per section, compatible across sections (sectional
adjointness).  The conversions between them restrict and glue the product;
the bridge functions connect the divisible case with the implication
semilattices of `ordalg.implication`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .core import (Algebra, BinTable, ClassTag, Report, StructureError,
                   common_lower_bounds, ensure_meet, glb_table, leq, section)

RrsAlgebra = Algebra  # alias: Algebra with total imp and partial prod, tag "rrs"


class BridgeError(StructureError):
    """A bridge precondition failed; carries the failing report."""

    def __init__(self, report: Report):
        self.report = report
        super().__init__(report.fail_line())


@dataclass(frozen=True)
class SrsAlgebra:
    """Join-semilattice with one product table per section.

    ``section_prod[b]`` is an n x n partial table defined exactly on pairs
    from [b, 1]; together with the arrow of ``alg`` it forms the sectional
    presentation.
    """

    alg: Algebra
    section_prod: tuple[BinTable, ...]


def _require(alg: Algebra, *names: str) -> None:
    for name in names:
        if getattr(alg, name) is None:
            raise StructureError(f"class {alg.class_tag.value} requires a {name} table")


def _check_adjointness(alg: Algebra) -> Report:
    """Relative adjointness (15): (x v z) . (y v z) <= z iff x v z <= y -> z.

    The two failure directions are reported separately: (15a) when the
    product side holds but the arrow side does not, (15b) for the converse.
    """
    n = alg.n
    lab = alg.label
    jv = alg.join.values
    pv = alg.prod.values
    iv = alg.imp.values
    for x in range(n):
        for y in range(n):
            for z in range(n):
                p = pv[jv[x][z]][jv[y][z]]
                left = p is not None and leq(alg, p, z)
                right = leq(alg, jv[x][z], iv[y][z])
                if left and not right:
                    return Report.failing("(15a)", (lab(x), lab(y), lab(z)),
                                          "true", "false",
                                          note="product below z but join not below arrow")
                if right and not left:
                    return Report.failing("(15b)", (lab(x), lab(y), lab(z)),
                                          "false", "true",
                                          note="join below arrow but product not below z")
    return Report.passing()


def _check_rrs_base(alg: Algebra) -> Report:
    """Domain law, the lower/upper bound laws, and laws (11)-(14), (16)."""
    n, top = alg.n, alg.top
    lab = alg.label
    jv = alg.join.values
    pv = alg.prod.values
    iv = alg.imp.values

    for x in range(n):
        for y in range(n):
            clb = common_lower_bounds(alg, x, y)
            defined = pv[x][y] is not None
            if defined != bool(clb):
                return Report.failing("domain", (lab(x), lab(y)),
                                      lab(pv[x][y]) if defined else "-",
                                      "defined" if clb else "-",
                                      note="product defined exactly on bounded pairs")
    for x in range(n):
        for y in range(n):
            p = pv[x][y]
            if p is None:
                continue
            for z in common_lower_bounds(alg, x, y):
                if not leq(alg, z, p):
                    return Report.failing("preamble", (lab(x), lab(y)),
                                          lab(z), lab(p),
                                          note="common lower bound not below product")
    # x.y <= x and x.y <= y is forced by (11),(12),(14); checking it up
    # front gives the sharpest witness for corrupted tables.
    for x in range(n):
        for y in range(n):
            p = pv[x][y]
            if p is None:
                continue
            if not leq(alg, p, x):
                return Report.failing("(14)/(11)", (lab(x), lab(y)), lab(p), lab(x),
                                      note="product not below left argument")
            if not leq(alg, p, y):
                return Report.failing("(14)/(11)", (lab(x), lab(y)), lab(p), lab(y),
                                      note="product not below right argument")
    for x in range(n):
        if pv[x][top] != x or pv[top][x] != x:
            bad = pv[x][top] if pv[x][top] != x else pv[top][x]
            return Report.failing("(11)", (lab(x),),
                                  "-" if bad is None else lab(bad), lab(x))
    for x in range(n):
        for y in range(n):
            if pv[x][y] is not None and pv[x][y] != pv[y][x]:
                return Report.failing("(12)", (lab(x), lab(y)),
                                      lab(pv[x][y]), lab(pv[y][x]))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if not (alg.downsets[x] & alg.downsets[y] & alg.downsets[z]):
                    continue
                l = pv[pv[x][y]][z]
                rr = pv[x][pv[y][z]]
                if l != rr:
                    return Report.failing("(13)", (lab(x), lab(y), lab(z)),
                                          "-" if l is None else lab(l),
                                          "-" if rr is None else lab(rr))
    for x in range(n):
        for y in range(n):
            if not leq(alg, x, y):
                continue
            for z in range(n):
                if pv[x][z] is None:
                    continue
                if pv[y][z] is None or not leq(alg, pv[x][z], pv[y][z]):
                    return Report.failing("(14)", (lab(x), lab(y), lab(z)),
                                          lab(pv[x][z]),
                                          "-" if pv[y][z] is None else lab(pv[y][z]),
                                          note="expected lhs <= rhs")
    for x in range(n):
        for y in range(n):
            if iv[jv[x][y]][y] != iv[x][y]:
                return Report.failing("(16)", (lab(x), lab(y)),
                                      lab(iv[jv[x][y]][y]), lab(iv[x][y]))
    return Report.passing()


def validate_rrs(alg: Algebra) -> Report:
    """Full relatively-residuated check: preamble laws, (11)-(16)."""
    _require(alg, "imp", "prod")
    rep = _check_rrs_base(alg)
    if not rep.ok:
        return rep
    rep = _check_adjointness(alg)
    if not rep.ok:
        return rep
    return Report.passing("relative residuation laws hold")


def validate_rrs_identities(alg: Algebra) -> Report:
    """Identity characterization of adjointness:

    (17) x v z <= y -> (((x v z) . (y v z)) v z)
    (18) x <= y -> x
    (19) (x v y) . (x -> y) <= y

    Assumes the preamble plus (11)-(14) and (16) hold (they are re-checked;
    their failure is returned as the report).  The verdict is also compared
    against the adjointness verdict on the same algebra; a disagreement
    would falsify the identity characterization and raises.
    """
    _require(alg, "imp", "prod")
    base = _check_rrs_base(alg)
    if not base.ok:
        return base

    n = alg.n
    lab = alg.label
    jv = alg.join.values
    pv = alg.prod.values
    iv = alg.imp.values

    def identities() -> Report:
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    u = jv[x][z]
                    p = pv[u][jv[y][z]]
                    t = jv[p][z]
                    if not leq(alg, u, iv[y][t]):
                        return Report.failing("(17)", (lab(x), lab(y), lab(z)),
                                              lab(u), lab(iv[y][t]),
                                              note="expected lhs <= rhs")
        for x in range(n):
            for y in range(n):
                if not leq(alg, x, iv[y][x]):
                    return Report.failing("(18)", (lab(x), lab(y)),
                                          lab(x), lab(iv[y][x]),
                                          note="expected lhs <= rhs")
        for x in range(n):
            for y in range(n):
                p = pv[jv[x][y]][iv[x][y]]
                if p is None or not leq(alg, p, y):
                    return Report.failing("(19)", (lab(x), lab(y)),
                                          "-" if p is None else lab(p), lab(y),
                                          note="expected lhs <= rhs")
        return Report.passing("residuation identities (17)-(19) hold")

    ident = identities()
    adj = _check_adjointness(alg)
    if ident.ok != adj.ok:
        raise StructureError(
            "identity and adjointness verdicts disagree: "
            f"identities {ident.ok} vs adjointness {adj.ok}")
    return ident


def check_divisible(alg: Algebra) -> Report:
    """(x v y) . (x -> y) = y for all pairs."""
    _require(alg, "imp", "prod")
    n = alg.n
    lab = alg.label
    jv, pv, iv = alg.join.values, alg.prod.values, alg.imp.values
    for x in range(n):
        for y in range(n):
            p = pv[jv[x][y]][iv[x][y]]
            if p != y:
                return Report.failing("divisible", (lab(x), lab(y)),
                                      "-" if p is None else lab(p), lab(y))
    return Report.passing("divisibility holds")


def check_rrs_properties(alg: Algebra) -> Report:
    """Derived properties (i)-(viii) of a relatively residuated semilattice.

    The first inequality of (v) is checked only where x . (x -> y) is
    defined; the pair need not be bounded.
    """
    _require(alg, "imp", "prod")
    n, top = alg.n, alg.top
    lab = alg.label
    jv, pv, iv = alg.join.values, alg.prod.values, alg.imp.values

    for x in range(n):
        for y in range(n):
            if (iv[x][y] == top) != leq(alg, x, y):
                return Report.failing("(i)", (lab(x), lab(y)), lab(iv[x][y]),
                                      "true" if leq(alg, x, y) else "false")
    for x in range(n):
        for y in range(n):
            p = pv[x][y]
            if p is not None and not leq(alg, p, x):
                return Report.failing("(ii)", (lab(x), lab(y)), lab(p), lab(x),
                                      note="expected lhs <= rhs")
    meets = glb_table(alg.leq, alg.labels).values
    for x in range(n):
        for y in range(n):
            p, m = pv[x][y], meets[x][y]
            if m is not None and (p is None or not leq(alg, p, m)):
                return Report.failing("(iii)", (lab(x), lab(y)),
                                      "-" if p is None else lab(p), lab(m),
                                      note="expected lhs <= rhs")
    for x in range(n):
        for y in range(n):
            if not leq(alg, x, iv[y][x]):
                return Report.failing("(iv)", (lab(x), lab(y)), lab(x), lab(iv[y][x]),
                                      note="expected lhs <= rhs")
    for x in range(n):
        for y in range(n):
            w = iv[x][y]
            outer = pv[jv[x][y]][w]
            if outer is None or not leq(alg, outer, y):
                return Report.failing("(v)", (lab(x), lab(y)),
                                      "-" if outer is None else lab(outer), lab(y),
                                      note="expected lhs <= rhs")
            inner = pv[x][w]
            if inner is not None and not leq(alg, inner, outer):
                return Report.failing("(v)", (lab(x), lab(y)), lab(inner), lab(outer),
                                      note="expected lhs <= rhs")
    for x in range(n):
        for y in range(n):
            if not leq(alg, x, iv[iv[x][y]][y]):
                return Report.failing("(vi)", (lab(x), lab(y)),
                                      lab(x), lab(iv[iv[x][y]][y]),
                                      note="expected lhs <= rhs")
    for x in range(n):
        for y in range(n):
            if not leq(alg, x, y):
                continue
            for z in range(n):
                if not leq(alg, iv[y][z], iv[x][z]):
                    return Report.failing("(vii)", (lab(x), lab(y), lab(z)),
                                          lab(iv[y][z]), lab(iv[x][z]),
                                          note="expected lhs <= rhs")
    for x in range(n):
        for y in range(n):
            lhs = iv[iv[iv[x][y]][y]][y]
            if lhs != iv[x][y]:
                return Report.failing("(viii)", (lab(x), lab(y)), lab(lhs), lab(iv[x][y]))
    return Report.passing("properties (i)-(viii) hold")


# ---------------------------------------------------------------------------
# sectional presentation

def srs_from_rrs(alg: Algebra) -> SrsAlgebra:
    """Restrict the product to each section [b, 1]."""
    _require(alg, "imp", "prod")
    n = alg.n
    tables = []
    for b in range(n):
        sec = set(section(alg, b))
        rows = []
        for i in range(n):
            rows.append(tuple(alg.prod.values[i][j] if i in sec and j in sec else None
                              for j in range(n)))
        tables.append(BinTable(tuple(rows), total=False))
    return SrsAlgebra(dataclasses.replace(alg, class_tag=ClassTag.SRS),
                      tuple(tables))


def rrs_from_srs(srs: SrsAlgebra) -> Algebra:
    """Glue the section products into one partial product.

    Raises "incompatible section family" when two bases disagree about the
    same pair, which a family violating the compatibility law does.
    """
    alg = srs.alg
    n = alg.n
    rows: list[list[int | None]] = []
    for x in range(n):
        row: list[int | None] = []
        for y in range(n):
            seen: dict[int, int] = {}
            for b in common_lower_bounds(alg, x, y):
                v = srs.section_prod[b].values[x][y]
                if v is not None:
                    seen[v] = b
            if not seen:
                row.append(None)
            elif len(seen) > 1:
                vals = sorted(seen)
                raise StructureError(
                    f"incompatible section family at ({alg.label(x)},{alg.label(y)}): "
                    f"base {alg.label(seen[vals[0]])} gives {alg.label(vals[0])}, "
                    f"base {alg.label(seen[vals[1]])} gives {alg.label(vals[1])}")
            else:
                row.append(next(iter(seen)))
        rows.append(row)
    return dataclasses.replace(alg, prod=BinTable.from_rows(rows, total=False),
                               class_tag=ClassTag.RRS)


def validate_srs(srs: SrsAlgebra) -> Report:
    """Sectional laws: the stored product (when ``alg`` carries one) is
    defined only on pairs that share a section (domain), each section a
    commutative monoid with unit top, compatibility (i), monotonicity (ii),
    sectional adjointness (iii), and the arrow absorption (iv)."""
    alg = srs.alg
    _require(alg, "imp")
    n, top = alg.n, alg.top
    lab = alg.label
    jv = alg.join.values
    iv = alg.imp.values

    # The section tables keep the product only inside sections, so a value
    # stored for a pair with no common lower bound is checked here or never.
    if alg.prod is not None:
        for x in range(n):
            for y in range(n):
                v = alg.prod.values[x][y]
                if v is not None and not common_lower_bounds(alg, x, y):
                    return Report.failing("domain", (lab(x), lab(y)), lab(v), "-",
                                          note="product defined on a pair that "
                                               "lies in no common section")

    for b in range(n):
        sec = section(alg, b)
        sec_set = set(sec)
        t = srs.section_prod[b].values
        for x in range(n):
            for y in range(n):
                defined = t[x][y] is not None
                if defined != (x in sec_set and y in sec_set):
                    return Report.failing("monoid-domain", (lab(b), lab(x), lab(y)),
                                          "defined" if defined else "-",
                                          "section" if x in sec_set and y in sec_set
                                          else "outside")
        for x in sec:
            for y in sec:
                if t[x][y] not in sec_set:
                    return Report.failing("monoid-closure", (lab(b), lab(x), lab(y)),
                                          lab(t[x][y]), lab(b))
                if t[x][y] != t[y][x]:
                    return Report.failing("monoid-commutative", (lab(b), lab(x), lab(y)),
                                          lab(t[x][y]), lab(t[y][x]))
        for x in sec:
            if t[x][top] != x:
                return Report.failing("monoid-unit", (lab(b), lab(x)),
                                      lab(t[x][top]), lab(x))
        for x in sec:
            for y in sec:
                for z in sec:
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        return Report.failing("monoid-associative",
                                              (lab(b), lab(x), lab(y), lab(z)),
                                              lab(t[t[x][y]][z]), lab(t[x][t[y][z]]))

    for z in range(n):
        for u in section(alg, z):
            tu = srs.section_prod[u].values
            tz = srs.section_prod[z].values
            for x in section(alg, u):
                for y in section(alg, u):
                    if tz[x][y] != tu[x][y]:
                        return Report.failing("(i)", (lab(z), lab(u), lab(x), lab(y)),
                                              lab(tz[x][y]), lab(tu[x][y]),
                                              note="compatibility across sections")

    for u in range(n):
        t = srs.section_prod[u].values
        sec = section(alg, u)
        for x in sec:
            for y in sec:
                if not leq(alg, x, y):
                    continue
                for z in sec:
                    if not leq(alg, t[x][z], t[y][z]):
                        return Report.failing("(ii)", (lab(u), lab(x), lab(y), lab(z)),
                                              lab(t[x][z]), lab(t[y][z]),
                                              note="expected lhs <= rhs")

    for x in range(n):
        for y in range(n):
            for z in range(n):
                t = srs.section_prod[z].values
                p = t[jv[x][z]][jv[y][z]]
                left = p is not None and leq(alg, p, z)
                right = leq(alg, jv[x][z], iv[y][z])
                if left != right:
                    return Report.failing("(iii)", (lab(x), lab(y), lab(z)),
                                          "true" if left else "false",
                                          "true" if right else "false",
                                          note="sectional adjointness")

    for x in range(n):
        for y in range(n):
            if iv[jv[x][y]][y] != iv[x][y]:
                return Report.failing("(iv)", (lab(x), lab(y)),
                                      lab(iv[jv[x][y]][y]), lab(iv[x][y]))
    return Report.passing("sectional residuation laws hold")


# ---------------------------------------------------------------------------
# bridge between implication semilattices and divisible residuation

def _check_prod_idempotent(alg: Algebra) -> Report:
    for x in range(alg.n):
        p = alg.prod.values[x][x]
        if p != x:
            return Report.failing("(i)", (alg.label(x),),
                                  "-" if p is None else alg.label(p), alg.label(x))
    return Report.passing()


def _check_prod_arrow_bound(alg: Algebra) -> Report:
    """Condition (ii): y <= (x v z) -> ((x v z) . (y v z))."""
    n = alg.n
    lab = alg.label
    jv, pv, iv = alg.join.values, alg.prod.values, alg.imp.values
    for x in range(n):
        for y in range(n):
            for z in range(n):
                u = jv[x][z]
                p = pv[u][jv[y][z]]
                if p is None or not leq(alg, y, iv[u][p]):
                    return Report.failing("(ii)", (lab(x), lab(y), lab(z)),
                                          lab(y),
                                          "-" if p is None else lab(iv[u][p]),
                                          note="expected lhs <= rhs")
    return Report.passing()


def has_meets_on_bounded_pairs(alg: Algebra) -> bool:
    """Variant condition (i'): every bounded pair has a greatest lower bound."""
    n = alg.n
    for x in range(n):
        for y in range(n):
            clb = common_lower_bounds(alg, x, y)
            if clb and not any(all(alg.leq[v][u] for v in clb) for u in clb):
                return False
    return True


def ncis_rrs_bridge(alg: Algebra, direction: str) -> Algebra:
    """Convert between implication semilattices and divisible residuated ones.

    ``to_rrs`` installs the partial meet as the product and asserts the
    result is a divisible residuated semilattice with an idempotent product
    satisfying the arrow bound (ii).  ``to_ncis`` checks divisibility,
    idempotence (i), the arrow bound (ii), and that the product coincides
    with the greatest lower bound on bounded pairs, then re-tags the product
    as the meet.  Failed checks raise `BridgeError` with a witness.
    """
    if direction == "to_rrs":
        src = ensure_meet(alg)
        if src.imp is None:
            raise StructureError("to_rrs requires an imp table")
        out = dataclasses.replace(src, prod=src.meet, meet=None,
                                  class_tag=ClassTag.RRS)
        for rep in (validate_rrs(out), check_divisible(out),
                    _check_prod_idempotent(out), _check_prod_arrow_bound(out)):
            if not rep.ok:
                raise BridgeError(rep)
        return out

    if direction == "to_ncis":
        _require(alg, "imp", "prod")
        for rep in (check_divisible(alg), _check_prod_idempotent(alg),
                    _check_prod_arrow_bound(alg)):
            if not rep.ok:
                raise BridgeError(rep)
        true_meet = glb_table(alg.leq, alg.labels).values
        for x in range(alg.n):
            for y in range(alg.n):
                if alg.prod.values[x][y] != true_meet[x][y]:
                    got = alg.prod.values[x][y]
                    want = true_meet[x][y]
                    raise BridgeError(Report.failing(
                        "prod-meet", (alg.label(x), alg.label(y)),
                        "-" if got is None else alg.label(got),
                        "-" if want is None else alg.label(want),
                        note="product must coincide with the greatest lower bound"))
        return dataclasses.replace(alg, meet=alg.prod, prod=None,
                                   class_tag=ClassTag.NCIS)

    raise ValueError(f"unknown bridge direction {direction!r}")


def derive_residual_imp(alg: Algebra) -> BinTable | None:
    """The arrow forced by adjointness from a product, if one exists.

    For each pair (y, z) the set U = {u in [z,1] : u . (y v z) <= z} must be
    a principal down-set of the section; its maximum is y -> z.  Returns
    None when some pair admits no residual.
    """
    if alg.prod is None:
        raise StructureError("residual derivation requires a prod table")
    n = alg.n
    jv, pv = alg.join.values, alg.prod.values
    rows = [[0] * n for _ in range(n)]
    for y in range(n):
        for z in range(n):
            v = jv[y][z]
            candidates = [u for u in section(alg, z)
                          if pv[u][v] is not None and leq(alg, pv[u][v], z)]
            best = None
            for u in candidates:
                if all(leq(alg, w, u) for w in candidates):
                    best = u
                    break
            if best is None:
                return None
            # principality: everything in [z, best] must be a candidate
            cand = set(candidates)
            if any(w not in cand for w in section(alg, z) if leq(alg, w, best)):
                return None
            rows[y][z] = best
    return BinTable.from_rows(rows, total=True)
