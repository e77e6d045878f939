import pytest

import braidpoly.hecke
import braidpoly.jaeger
import braidpoly.resolver


@pytest.fixture
def leaf_searches(monkeypatch):
    """Record every leaf search run during the test as ``(tokens, strands, ascending)``.

    Each caller of the kernel ``leaf_search`` reads it from its own module:
    ``homfly`` and ``leaf_statistics`` from ``braidpoly.resolver``,
    ``enumerate_admissible`` and ``verify_bijection`` from
    ``braidpoly.jaeger``, so patching it in both counts every run once.
    ``enumerate_leaves`` streams the literal tree and runs no search.
    """
    calls = []
    search = braidpoly.resolver.leaf_search

    def counted(word, ascending, leaves=None):
        calls.append((word.tokens(), word.strands, ascending))
        return search(word, ascending, leaves)

    for module in (braidpoly.resolver, braidpoly.jaeger):
        monkeypatch.setattr(module, "leaf_search", counted)
    return calls


@pytest.fixture
def hecke_evaluations(monkeypatch):
    """Record every piece the Hecke trace's front end hands to the trace as ``(tokens, strands)``.

    A split block that cancelling and cutting leave whole is recorded as it
    is; one they empty is not recorded at all.
    """
    calls = []
    trace = braidpoly.hecke._block_trace

    def counted(core):
        calls.append((core.tokens(), core.strands))
        return trace(core)

    monkeypatch.setattr(braidpoly.hecke, "_block_trace", counted)
    return calls
