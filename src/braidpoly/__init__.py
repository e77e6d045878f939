"""Exact HOMFLY polynomials of links presented as closed braids.

The engine evaluates the polynomial by four formulas -- descending and
ascending resolving trees, and the standard and dual admissible
circuit-partition expansions, each computed by the same leaf search as its
paired tree -- and by a fifth, independent algorithm, the Ocneanu trace on
the Hecke algebra.  It derives Morton-Frank-Williams bounds, braid-index
certificates for reduced alternating braids, and Alexander polynomials from
the polynomial, which those take from the Hecke trace, one split block
(``BraidWord.split_blocks``, which the certificate shares) at a time.
"""

from .braid import (
    FLIPPED,
    KEPT,
    SMOOTHED,
    BraidParseError,
    BraidWord,
    CrossingState,
    DiagramClass,
    GapProfile,
    GapTally,
    MarkovVariant,
    ResolvedDiagram,
    StrandPermutation,
    classify,
    classify_crossings,
    gap_profile,
    markov_variants,
    mirror,
    parse_braid,
    permutation,
    writhe,
)
from .hecke import homfly_hecke
from .invariants import (
    AlexanderReport,
    BlockCertificate,
    BraidIndexCertificate,
    ConsistencyError,
    ConstructionError,
    MfwReport,
    alexander,
    braid_index_certificate,
    construct_u_prime,
    construct_u_star,
    construct_v_star,
    link_polynomial,
    mfw_bounds,
)
from .jaeger import (
    CircuitPartition,
    enumerate_admissible,
    homfly_jaeger,
    is_admissible,
    verify_bijection,
)
from .polynomial import (
    LaurentPoly1,
    LaurentPoly2,
    SubstitutionError,
    ZeroPolynomialError,
)
from .resolver import (
    ASCENDING,
    DESCENDING,
    LeafStatistics,
    LeafSummary,
    enumerate_leaves,
    first_violation,
    homfly,
    leaf_membership_test,
    leaf_statistics,
    split_at,
)

__version__ = "0.1.0"


def _convention_selfcheck() -> None:
    """Assert the over-strand drawing convention at import time.

    A one-crossing negative 2-braid must be descending (its closure is an
    unknot with components - writhe = strands) and the closure of a single
    positive crossing must evaluate to 1.  Both fail loudly if the convention
    is ever perturbed.
    """
    negative = parse_braid("-1")
    kinds = classify_crossings(ResolvedDiagram.all_kept(negative))
    if kinds != ("descending",):
        raise AssertionError("convention check failed: sigma_1^-1 must be descending")
    if homfly(parse_braid("1")) != LaurentPoly2.one():
        raise AssertionError("convention check failed: closure of sigma_1 must give 1")


_convention_selfcheck()
