"""Spans around calls into braidpoly's modules, for the traced run only.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces each
callee in :data:`CALLS` as it is bound in its caller's namespace (and a few
methods on their classes) by a wrapper that records a span; :meth:`uninstall`
puts the originals back.  Spans stay in memory as :data:`FIELDS`, with
``parent`` the index of the enclosing span or -1, ``op`` the index of the
``cli.main`` call they belong to and ``key`` the (tokens, strands, mode) of a
kernel call.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute, span name, default mode): a kernel call's span also
# records the word and mode it worked on, so its leaves and partitions can be
# counted after the pass.
CALLS = (
    ("braidpoly.cli", "parse_braid", "braid.parse", None),
    ("braidpoly.cli", "classify", "braid.classify", None),
    ("braidpoly.cli", "gap_profile", "braid.classify", None),
    ("braidpoly.cli", "permutation", "braid.classify", None),
    ("braidpoly.cli", "classify_crossings", "braid.classify", None),
    ("braidpoly.cli", "homfly", "resolver.homfly", "descending"),
    ("braidpoly.cli", "homfly_jaeger", "jaeger.homfly_jaeger", "standard"),
    ("braidpoly.cli", "braid_index_certificate", "invariants.certificate", None),
    ("braidpoly.cli", "alexander", "invariants.alexander", None),
    ("braidpoly.cli", "check_markov", "checks.markov", None),
    ("braidpoly.cli", "check_mirror", "checks.mirror", None),
    ("braidpoly.cli", "check_skein", "checks.skein", None),
    ("braidpoly.cli", "check_bijection", "checks.bijection", None),
    ("braidpoly.invariants", "homfly", "resolver.homfly", "descending"),
    ("braidpoly.invariants", "mfw_bounds", "invariants.mfw", None),
    ("braidpoly.invariants", "classify", "braid.classify", None),
    ("braidpoly.invariants", "gap_profile", "braid.classify", None),
    ("braidpoly.invariants", "mirror", "braid.word_build", None),
    ("braidpoly.invariants", "construct_u_star", "invariants.witness", None),
    ("braidpoly.invariants", "construct_v_star", "invariants.witness", None),
    ("braidpoly.checks", "homfly", "resolver.homfly", "descending"),
    ("braidpoly.checks", "homfly_jaeger", "jaeger.homfly_jaeger", "standard"),
    ("braidpoly.checks", "markov_variants", "braid.markov_variants", None),
    ("braidpoly.checks", "mirror", "braid.word_build", None),
    ("braidpoly.checks", "skein_triple", "braid.word_build", None),
    ("braidpoly.checks", "verify_bijection", "jaeger.verify_bijection", None),
)
# (class, methods, span name) in braidpoly.polynomial.  Only the operations
# callers outside the module use; LaurentPoly1 arithmetic inside the
# substitution stays part of its span.
METHODS = (
    ("LaurentPoly2", ("substitute_alexander",), "polynomial.substitute_alexander"),
    ("LaurentPoly2", ("to_text", "to_json_terms"), "polynomial.format"),
    ("LaurentPoly1", ("to_text", "to_json_terms"), "polynomial.format"),
    (
        "LaurentPoly2",
        ("__add__", "__sub__", "__neg__", "scale_monomial", "mirrored", "__eq__"),
        "polynomial.arith",
    ),
)


FIELDS = ("name", "start", "end", "parent", "word_id", "op", "key")


def _word_mode(default, word, *rest, **kwargs):
    mode = rest[0] if rest else next(iter(kwargs.values()), default)
    return (word.tokens(), word.strands, mode)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.word_id = -1
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, mode=None):
        """``fn`` recording one span per call; see :data:`CALLS` for ``mode``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.word_id, self.op,
                   _word_mode(mode, *args, **kwargs) if mode else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def wrap_generator(self, name, fn):
        """A generator's span runs from its first item to exhaustion.

        It is not pushed as a parent: the consumer's own calls between items
        stay children of the consumer.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.word_id, self.op, None]
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                yield from fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for module, attr, name, mode in CALLS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), mode))
        jaeger = importlib.import_module("braidpoly.jaeger")
        self._patch(
            jaeger,
            "enumerate_leaves",
            self.wrap_generator("resolver.enumerate_leaves", jaeger.enumerate_leaves),
        )
        polynomial = importlib.import_module("braidpoly.polynomial")
        for cls_name, methods, name in METHODS:
            cls = getattr(polynomial, cls_name)
            for method in methods:
                self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
        braid = importlib.import_module("braidpoly.braid")
        lazy = braid.BraidWord.__dict__["column_index"]
        column_index = functools.cached_property(
            self.wrap("braid.word_build", lazy.func)
        )
        column_index.__set_name__(braid.BraidWord, "column_index")
        self._patch(braid.BraidWord, "column_index", column_index)
        # argparse: building the parser and parsing the arguments
        cli = importlib.import_module("braidpoly.cli")
        build = self.wrap("cli.argparse", cli.build_parser)

        def build_parser():
            parser = build()
            parser.parse_args = self.wrap("cli.argparse", parser.parse_args)
            return parser

        self._patch(cli, "build_parser", build_parser)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    return [
        (rec[2] - rec[1]) - _union_length(children.get(i, ())) for i, rec in enumerate(spans)
    ]


def total_time(spans, names, scales) -> float:
    """Time covered by spans named ``names``, nested ones counted once, each
    operation's share scaled by ``scales[op]``."""
    names = set(names)
    by_op: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[0] in names:
            by_op.setdefault(rec[5], []).append((rec[1], rec[2]))
    return sum(_union_length(iv) * scales[op] for op, iv in by_op.items())


def self_time(spans, selfs, name, scales) -> float:
    return sum((s * scales[rec[5]] for rec, s in zip(spans, selfs) if rec[0] == name), 0.0)


def count(spans, name) -> int:
    return sum(1 for rec in spans if rec[0] == name)


def keys(spans, name):
    return [rec[6] for rec in spans if rec[0] == name]
