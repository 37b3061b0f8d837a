"""Polyphase complementary sequence sets from generalized Boolean functions.

The package is organised by task:

* :mod:`cskit.gbf` — polynomials over Z_q on binary variables, their
  sequences, parsing and serialisation;
* :mod:`cskit.cyclo` — exact correlation values in Z[w], w a 2^h-th root
  of unity;
* :mod:`cskit.correlation` — exact aperiodic correlation, complementary-set
  verification, PMEPR measurement and the sequence file format;
* :mod:`cskit.graphs` — the shape analysis of the coupling graphs of
  restricted polynomials that the constructions depend on;
* :mod:`cskit.construct` — the complementary-set constructions (offset,
  balanced, doubled and path-restriction sets, the last with Golay pairs as
  its k = 0 case) plus a seeded generator of qualifying polynomials;
* :mod:`cskit.codebook` — codebook sizes, rates, enumerators, minimum
  distances and the printed-table comparison report;
* :mod:`cskit.cli` — the ``cskit`` command-line tool.
"""

from .cyclo import CycloValue
from .errors import (
    BalanceError,
    CskitError,
    DegreeError,
    EmptySequenceError,
    EnumerationError,
    GraphShapeError,
    ModulusError,
    ParseError,
    SizeLimitError,
)
from .gbf import (
    GbfPoly,
    PolyphaseSeq,
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
    is_cs,
    pmepr,
    pmepr_autocorr_bound,
    read_sequences,
    set_aacf,
    set_report,
    write_sequences,
)
from .graphs import IsolatedGroup, RestrictionProfile, analyze
from .construct import (
    CsCandidate,
    balanced_cs,
    cs_to_text,
    doubled_cs,
    golay_pair,
    offset_set,
    path_restriction_cs,
    random_qualifying_gbf,
    standard_golay_gbfs,
)
from .codebook import (
    coset_code_size,
    count_codebook,
    enumerate_codebook,
    erm_distance_formulas,
    erm_min_distances,
    family_size,
    golden_report,
    log2_coset_count,
    log2_f_count,
    rate,
    rate_rows,
    union_code_size_pmepr4,
    union_code_size_pmepr8,
)

__version__ = "0.1.0"
