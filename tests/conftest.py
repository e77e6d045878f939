import pytest

import braidpoly.hecke
import braidpoly.jaeger
import braidpoly.resolver


@pytest.fixture
def leaf_searches(monkeypatch):
    """Record every leaf search run during the test as ``(tokens, strands, ascending)``.

    ``homfly`` and ``verify_bijection`` call the kernel ``leaf_search``
    directly and ``leaf_stream`` calls it through ``braidpoly.resolver``, so
    patching it there and in ``braidpoly.jaeger`` counts every run once.
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
    """Record every destabilized split block the Hecke trace runs on as ``(tokens, strands)``."""
    calls = []
    trace = braidpoly.hecke._block_trace

    def counted(core):
        calls.append((core.tokens(), core.strands))
        return trace(core)

    monkeypatch.setattr(braidpoly.hecke, "_block_trace", counted)
    return calls
