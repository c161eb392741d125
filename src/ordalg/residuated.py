"""Residuated structure on join-semilattices.

One partial product on bounded pairs with a total arrow, read two ways:
relatively residuated (`validate_rrs`, adjointness on the whole algebra) or
sectionally residuated (`validate_srs`, each section [b, 1] a commutative
monoid under the restriction of the product, with sectional adjointness).
In the finite case a compatible family of section products is the set of
restrictions of one product, so both read the same tables.  The bridge
maps `rrs_from_ncis` and `ncis_from_rrs` connect the divisible case with
the implication semilattices of `ordalg.implication`; only the second
checks its input, as the paper proves the first lands in divisible rrs.
"""

from __future__ import annotations

from .core import Algebra, BinTable, Report, StructureError, require_tables
from .laws import (ADJOINTNESS, DIVISIBLE, PROD_ARROW_BOUND, PROD_IDEMPOTENT,
                   PROD_MEET, RRS_BASE, RRS_IDENTITIES, RRS_PROPERTIES, SRS_LAWS,
                   evaluate)


class BridgeError(StructureError):
    """A bridge precondition failed; carries the failing report."""

    def __init__(self, report: Report):
        self.report = report
        super().__init__(report.fail_line())


def validate_rrs(alg: Algebra) -> Report:
    """Full relatively-residuated check: preamble laws, (11)-(16); a
    failure of adjointness (15) is reported as (15a) when the product side
    holds but the arrow side does not, (15b) for the converse."""
    return evaluate(alg, RRS_BASE + ADJOINTNESS, "relative residuation laws hold")


def validate_rrs_identities(alg: Algebra) -> Report:
    """Identity characterization of adjointness:

    (17) x v z <= y -> (((x v z) . (y v z)) v z)
    (18) x <= y -> x
    (19) (x v y) . (x -> y) <= y

    The rows of the preamble plus (11)-(14) and (16), which the identities
    assume, run first, so a failure of theirs is the report.  The paper
    proves that on those laws the identities hold exactly when adjointness
    (15) does; tests/test_acceptance.py compares the two verdicts on every
    arrow candidate up to size 5 (criterion 6).
    """
    return evaluate(alg, RRS_BASE + RRS_IDENTITIES, "residuation identities (17)-(19) hold")


def check_divisible(alg: Algebra) -> Report:
    """(x v y) . (x -> y) = y for all pairs."""
    return evaluate(alg, DIVISIBLE, "divisibility holds")


def check_rrs_properties(alg: Algebra) -> Report:
    """Derived properties (i)-(viii) of a relatively residuated semilattice.

    The first inequality of (v) is checked only where x . (x -> y) is
    defined; the pair need not be bounded.
    """
    return evaluate(alg, RRS_PROPERTIES, "properties (i)-(viii) hold")


def validate_srs(alg: Algebra) -> Report:
    """Sectional laws on the restrictions of the product to each section
    [b, 1]: the product is defined only on pairs that share a section
    (domain), each section a commutative monoid with unit top,
    monotonicity (ii), sectional adjointness (iii), and the arrow
    absorption (iv)."""
    return evaluate(alg, SRS_LAWS, "sectional residuation laws hold")


# ---------------------------------------------------------------------------
# bridge between implication semilattices and divisible residuation

def rrs_from_ncis(alg: Algebra) -> Algebra:
    """The divisible residuated semilattice of an implication semilattice:
    the glb installed as the product.  The paper proves the result a
    divisible relatively residuated semilattice with an idempotent product
    (i) under the arrow bound (ii), so no row runs here; tests/test_search.py
    checks those rows on every model, to size 8 with ``--check 8``."""
    require_tables(alg, "imp")
    return alg.replace(prod=alg.glb, meet=None)


def ncis_from_rrs(alg: Algebra) -> Algebra:
    """The implication semilattice of a divisible residuated semilattice:
    the product re-tagged as the meet.  The product must be divisible,
    idempotent (i), satisfy the arrow bound (ii) and equal the greatest
    lower bound; the first failing row raises `BridgeError` with its
    witness."""
    rep = evaluate(alg, DIVISIBLE + PROD_IDEMPOTENT + PROD_ARROW_BOUND + PROD_MEET)
    if not rep.ok:
        raise BridgeError(rep)
    return alg.replace(meet=alg.prod, prod=None)


def derive_residual_imp(alg: Algebra) -> BinTable | None:
    """The arrow forced by adjointness from a product, if one exists.

    For each pair (y, z) the set U = {u in [z,1] : u . (y v z) <= z} must be
    a principal down-set of the section; its maximum is y -> z.  Returns
    None when some pair admits no residual.
    """
    require_tables(alg, "prod")
    n = alg.n
    jv, pv, le = alg.join.values, alg.prod.values, alg.leq
    rows = [[0] * n for _ in range(n)]
    for y in range(n):
        for z in range(n):
            v = jv[y][z]
            sec = sorted(alg.upsets[z])
            candidates = [u for u in sec if pv[u][v] is not None and le[pv[u][v]][z]]
            best = None
            for u in candidates:
                if all(le[w][u] for w in candidates):
                    best = u
                    break
            if best is None:
                return None
            # principality: everything in [z, best] must be a candidate
            cand = set(candidates)
            if any(w not in cand for w in sec if le[w][best]):
                return None
            rows[y][z] = best
    return BinTable.from_rows(rows, total=True)
