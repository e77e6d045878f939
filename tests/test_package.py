"""The package root's public names, pinned so that any export shows up as a deliberate diff."""

import types

import braidpoly

PUBLIC = {
    "ASCENDING", "DESCENDING", "FLIPPED", "KEPT", "SMOOTHED",
    "BraidParseError", "BraidWord", "CircuitPartition", "ConsistencyError",
    "ConstructionError", "CrossingState", "LaurentPoly1", "LaurentPoly2",
    "ResolvedDiagram", "SubstitutionError", "ZeroPolynomialError",
    "alexander", "braid_index_certificate", "classify", "classify_crossings",
    "construct_u_prime", "construct_u_star", "construct_v_star",
    "enumerate_admissible", "first_violation", "gap_profile", "homfly",
    "homfly_hecke", "homfly_jaeger", "is_admissible", "leaf_membership_test",
    "markov_variants", "mfw_bounds", "mirror", "parse_braid", "permutation",
    "split_at", "verify_bijection", "writhe",
}


def test_public_names_are_pinned():
    # submodules are left out: which of them are bound on the package
    # depends on what has been imported so far
    names = {
        name
        for name, value in vars(braidpoly).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC
