"""Sections as pseudocomplemented lattices.

A section of a join-semilattice with top is a principal filter [x, 1].  For
``y`` in the section, its sectional pseudocomplement is the greatest ``z``
in the section with ``y ^ z = x``; every reader here takes it from the
table ``Algebra.pc``, built once per algebra from its glb and join tables.

Sections need not be distributive.  `section_shape_report` reads the shape
of a section off the M3-N5 theorem (Davey & Priestley, *Introduction to
Lattices and Order*, Thm 4.10): a finite lattice is modular iff it has no
pentagon (N5) sublattice, and distributive iff it has neither a pentagon
nor a diamond (M3).  The witness reported is the least (bottom, ..., top)
tuple of such a sublattice in index order.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .core import Algebra, Report
from .laws import SECTIONED_LAWS, evaluate


class SectionShape(NamedTuple):
    base: int
    distributive: bool
    modular: bool
    witness_kind: str | None  # "N5" or "M3"
    witness: tuple[int, ...] | None


def validate_sectioned(alg: Algebra) -> Report:
    """PASS iff (b) every element of every section has a pseudocomplement
    there.  (a), a greatest common lower bound for every bounded pair,
    holds in every finite join-semilattice, and a stored meet is that glb
    by construction, so neither is checked here."""
    return evaluate(alg, SECTIONED_LAWS, "every section is a pseudocomplemented lattice")


def section_shape_report(alg: Algebra, base: int) -> SectionShape:
    """Distributivity and modularity of the section [base, 1] by the M3-N5
    theorem, with the least pentagon (bottom, x, y, w, top), x < y, as the
    witness, else the least diamond (bottom, p, q, r, top), else none."""
    sec = sorted(alg.upsets[base])
    mv = alg.glb.values
    jv, le = alg.join.values, alg.leq
    incomp = lambda a, b: not le[a][b] and not le[b][a]
    n5 = min(((mv[x][w], x, y, w, jv[x][w])
              for x in sec for y in sec if x != y and le[x][y]
              for w in sec if incomp(x, w) and incomp(y, w)
              and mv[x][w] == mv[y][w] and jv[x][w] == jv[y][w]), default=None)
    if n5 is not None:
        return SectionShape(base, False, False, "N5", n5)
    m3 = min(((mv[p][q], p, q, r, jv[p][q]) for p, q, r in combinations(sec, 3)
              if incomp(p, q) and incomp(p, r) and incomp(q, r)
              and mv[p][q] == mv[p][r] == mv[q][r] and jv[p][q] == jv[p][r] == jv[q][r]),
             default=None)
    if m3 is not None:
        return SectionShape(base, False, True, "M3", m3)
    return SectionShape(base, True, True, None, None)
