"""Polyphase complementary sequence sets from generalized Boolean functions.

The package is organised by task:

* :mod:`cskit.gbf` — polynomials over Z_q on binary variables, their
  sequences, parsing and serialisation;
* :mod:`cskit.cyclo` — exact arithmetic in Z[w], w a 2^h-th root of unity;
* :mod:`cskit.correlation` — exact aperiodic correlation, complementary-set
  verification, PMEPR measurement, Lee/Euclidean distances;
* :mod:`cskit.graphs` — coupling graphs of restricted polynomials and the
  shape analysis the constructions depend on;
* :mod:`cskit.construct` — the complementary-set constructions (offset,
  balanced, doubled, pairs, quadratic and path-restriction sets) plus a
  seeded generator of qualifying polynomials;
* :mod:`cskit.codebook` — codebook sizes, rates, enumerators, minimum
  distances and the printed-table comparison report;
* :mod:`cskit.cli` — the ``cskit`` command-line tool.
"""

from .cyclo import CycloValue, cyclo_sum
from .errors import (
    BalanceError,
    CskitError,
    DegreeError,
    EmptySequenceError,
    EnumerationError,
    GraphShapeError,
    MixedCouplingError,
    ModulusError,
    ParseError,
)
from .gbf import (
    GbfPoly,
    PolyphaseSeq,
    Restriction,
    gbf_from_json,
    gbf_to_json,
    parse_gbf,
    psi,
    psi_restricted,
    render_gbf,
)
from .correlation import (
    AacfVector,
    CorrVector,
    aacf,
    aacf_report,
    cross_corr,
    envelope_power,
    euclid_sq_dist,
    is_cs,
    lee_dist,
    min_distances,
    pmepr,
    pmepr_autocorr_bound,
    read_sequences,
    set_aacf,
    set_report,
    write_sequences,
)
from .graphs import IsolatedGroup, RestrictionGraph, RestrictionProfile, ShapeClass, analyze, graph_of, l_value
from .construct import (
    CsCandidate,
    balanced_cs,
    cs_meta_from_text,
    cs_to_text,
    doubled_cs,
    golay_candidate,
    golay_pair,
    indicator_poly,
    offset_set,
    path_quadratic,
    path_restriction_cs,
    quadratic_cs,
    random_qualifying_gbf,
    standard_golay_gbfs,
)
from .codebook import (
    coset_code_size,
    enumerate_codebook,
    erm_distance_formulas,
    erm_min_distances,
    family_size,
    golden_report,
    log2_coset_count,
    log2_f_count,
    pmepr_family_sizes,
    rate,
    rate_rows,
    union_code_size_pmepr4,
    union_code_size_pmepr8,
)

__version__ = "0.1.0"
