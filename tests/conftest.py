import pytest

import braidpoly.hecke
import braidpoly.jaeger
import braidpoly.resolver


@pytest.fixture
def leaf_searches(monkeypatch):
    """Record every leaf search run during the test as ``(tokens, strands, ascending)``."""
    calls = []
    search = braidpoly.resolver.leaf_stream

    def counted(word, ascending):
        calls.append((word.tokens(), word.strands, ascending))
        return search(word, ascending)

    for module in (braidpoly.resolver, braidpoly.jaeger):
        monkeypatch.setattr(module, "leaf_stream", counted)
    return calls


@pytest.fixture
def hecke_evaluations(monkeypatch):
    """Record every Hecke trace run during the test as ``(tokens, strands)``."""
    calls = []
    trace = braidpoly.hecke.hecke_trace

    def counted(word):
        calls.append((word.tokens(), word.strands))
        return trace(word)

    monkeypatch.setattr(braidpoly.hecke, "hecke_trace", counted)
    return calls
