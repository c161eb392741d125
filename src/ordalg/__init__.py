"""Workbench for finite join-semilattices with pseudocomplemented sections,
their implication and residuated presentations, congruence analysis, and
exhaustive small-model search."""

from .core import (Algebra, BinTable, ClassTag, OrdalgError, ParseError,
                   Report, StructureError, TernTable, UNDEF_TOKEN,
                   Universe, build_algebra, default_labels,
                   first_table_difference, glb_table, lub_table,
                   project_to_class, relabel, validate_join_semilattice)
from .fileio import parse_algebra, serialize_algebra
from .sectioned import SectionShape, section_shape_report, validate_sectioned
from .implication import (check_ncis_properties, derive_implication,
                          derive_sections, validate_ncis)
from .residuated import (BridgeError, check_divisible, check_rrs_properties,
                         derive_residual_imp, ncis_from_rrs, rrs_from_ncis,
                         validate_rrs, validate_rrs_identities, validate_srs)
from .varieties import (ialgebra_from_ncis, ncis_from_ialgebra, ralgebra_from_rrs,
                        rrs_from_ralgebra, validate_ialgebra, validate_ralgebra)
from .congruence import (ConLattice, MaltsevReport, Partition,
                         congruence_lattice, maltsev_report,
                         principal_congruence, term_witness_check)
from .search import (DEFAULT_MAX_SIZE, PROPERTIES, SearchSpec, canonical_form,
                     canonical_key, count_models, enumerate_models,
                     find_counterexample, size_cap)

__version__ = "0.1.0"
