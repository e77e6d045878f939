"""Exact sparse Laurent polynomial arithmetic.

Two small value types live here:

* :class:`LaurentPoly2` -- integer Laurent polynomials in the two variables
  ``z`` and ``a``, the value domain of the HOMFLY polynomial.
* :class:`LaurentPoly1` -- integer Laurent polynomials in a single variable
  ``s``, the Alexander polynomials with ``s`` standing for ``x^(1/2)``.  It
  is a result type with no arithmetic: values come from
  :meth:`LaurentPoly2.substitute_alexander`.

Both are immutable values backed by sparse exponent->coefficient maps with no
stored zero coefficients.  Coefficients are plain Python integers, so the
arithmetic is exact at any size.

Every exact sum of term maps in the package -- ``+``, ``-`` and ``*`` here,
the skein test, the Alexander substitution and the resolving-tree sum --
adds through one loop, :func:`_add_shifted`: add ``c * z^dz * a^da`` times
a term map into an accumulator and delete each coefficient that cancels.
That loop alone keeps the no-zero rule of this module's values.  The one
exception is the Hecke trace's coefficients (:mod:`braidpoly.hecke`), which
are not term maps: each maps a ``z``-degree to one int that packs a
polynomial in ``a^-2``, and the trace adds them over their int keys.

The canonical printed order of a two-variable polynomial is by ``a``-degree
descending, then ``z``-degree descending, e.g. ``a^2*z^-2 - 2*z^-2 + a^-2*z^-2``.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator, Mapping


class ZeroPolynomialError(ValueError):
    """Raised when degree extremes of the zero polynomial are requested."""


class SubstitutionError(ValueError):
    """Raised when a negative power of ``z`` survives ``a = 1``.

    The substitution ``z = s - s^-1`` then has no Laurent-polynomial value.
    The HOMFLY polynomial of an actual link never does this: its ``z^-1``
    content cancels at ``a = 1``.
    """


# Rows ``k < _KEPT_ROWS`` of :func:`difference_power` are kept once expanded.
_KEPT_ROWS = 64


def _expand_row(k: int) -> tuple[tuple[tuple[int, int], int], ...]:
    terms = []
    b = 1
    for j in range(k + 1):
        terms.append(((0, k - 2 * j), -b if j & 1 else b))
        b = b * (k - j) // (j + 1)
    return tuple(terms)


_kept_row = functools.lru_cache(maxsize=_KEPT_ROWS)(_expand_row)


def difference_power(k: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """``(x - x^-1)^k`` as ``((0, exponent), coefficient)`` pairs, exponents descending.

    The term ``x^(k - 2j)`` has coefficient ``(-1)^j C(k, j)``, and each
    binomial comes from the one before: ``C(k, j + 1) = C(k, j) * (k - j) /
    (j + 1)`` costs one multiplication and one exact division.  A fresh
    ``math.comb(k, j)`` per term grows much faster with ``k``: ``delta^3998``
    took 1.2 s that way against 12 ms this way (2 CPUs, Python 3.11.7).
    Every weight of the package is one of these: ``delta^k = (a - a^-1)^k
    z^-k``, the resolving-tree weights ``a^(+-k) delta^k`` and the
    Alexander substitution's ``(s - s^-1)^k``.  Each exponent sits in the
    second slot of a ``(z, a)`` key, so a row is a term map that
    :func:`_add_shifted` adds, shifted, as it stands.

    A row depends on ``k`` alone, so rows ``k < 64`` are expanded once per
    process and return the same tuple, which every caller only reads.  Row
    ``k`` holds ``k + 1`` ints below ``2^k``, so the kept rows never take
    more than 0.34 MB.  A wider row (a leaf or split of more than 64
    components, a ``z^64`` or higher) is expanded on every call and freed
    with its result: row 5,499 alone takes 3.9 MB.  A negative ``k`` raises
    ``ValueError``.
    """
    if 0 <= k < _KEPT_ROWS:
        return _kept_row(k)
    if k < 0:
        raise ValueError(f"difference_power needs k >= 0, got {k}")
    return _expand_row(k)


def _add_shifted(acc: dict[tuple[int, int], int], pairs: Iterable[tuple[tuple[int, int], int]],
                 dz: int = 0, da: int = 0, c: int = 1) -> None:
    """Add ``c * z^dz * a^da`` times the terms ``pairs`` into ``acc``, in place.

    Each ``((z, a), v)`` of ``pairs`` adds ``c * v`` at ``(z + dz, a + da)``,
    and a key whose sum cancels is deleted, so ``acc`` keeps no zero
    coefficient.  Every exact sum of term maps is made here.  ``c`` and
    every ``v`` must be nonzero; ``pairs`` is only read.
    """
    for (z, a), v in pairs:
        key = (z + dz, a + da)
        s = acc.get(key, 0) + c * v
        if s:
            acc[key] = s
        else:
            del acc[key]


def skein_holds(plus: LaurentPoly2, minus: LaurentPoly2, zero: LaurentPoly2) -> bool:
    """Whether ``a*plus - a^-1*minus = z*zero``, with no polynomial built.

    ``z^-1 (a*plus - a^-1*minus)`` is added into one accumulator, which
    keeps no zero coefficient, so the identity holds exactly when it equals
    ``zero``'s term map.
    """
    acc: dict[tuple[int, int], int] = {}
    _add_shifted(acc, plus._terms.items(), -1, 1)
    _add_shifted(acc, minus._terms.items(), -1, -1, -1)
    return acc == zero._terms


def _format_terms(terms, var_names):
    if not terms:
        return "0"
    pieces = []
    for exps, coeff in terms:
        factors = []
        for name, k in zip(var_names, exps):
            if k == 0:
                continue
            factors.append(name if k == 1 else f"{name}^{k}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


class LaurentPoly2:
    """An exact Laurent polynomial in ``z`` and ``a`` with integer coefficients.

    Internally a map from ``(z_degree, a_degree)`` pairs to nonzero integers.
    Instances are immutable and hashable; all operations return new values.
    The hash is computed on first use and kept.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        """Take ``terms``, dropping zeros; a non-integer raises ``TypeError``."""
        clean = {}
        if terms:
            index = operator.index
            for (dz, da), c in terms.items():
                key = (index(dz), index(da))
                c = index(c)
                if c:
                    clean[key] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, terms: dict[tuple[int, int], int]) -> "LaurentPoly2":
        """Own ``terms`` as they are, with no per-term pass: int pairs to nonzero ints."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        acc = dict(self._terms)
        _add_shifted(acc, other._terms.items())
        return LaurentPoly2._from_clean(acc)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2._from_clean({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        acc = dict(self._terms)
        _add_shifted(acc, other._terms.items(), c=-1)
        return LaurentPoly2._from_clean(acc)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        acc: dict[tuple[int, int], int] = {}
        pairs = other._terms.items()
        for (z, a), c in self._terms.items():
            _add_shifted(acc, pairs, z, a, c)
        return LaurentPoly2._from_clean(acc)

    def __pow__(self, k: int) -> "LaurentPoly2":
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly2.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale_monomial(self, dz: int = 0, da: int = 0, coeff: int = 1) -> "LaurentPoly2":
        """Multiply by ``coeff * z^dz * a^da`` in one pass."""
        if coeff == 0:
            return LaurentPoly2()
        return LaurentPoly2._from_clean(
            {(z + dz, a + da): c * coeff for (z, a), c in self._terms.items()}
        )

    def mirrored(self) -> "LaurentPoly2":
        """Substitute ``z -> -z`` and ``a -> a^-1`` (mirror-image identity)."""
        return LaurentPoly2._from_clean(
            {(dz, -da): (-c if dz % 2 else c) for (dz, da), c in self._terms.items()}
        )

    # -- inspection --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly2) and self._terms == other._terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # not hashed yet
            self._hash = hash(frozenset(self._terms.items()))
            return self._hash

    def terms(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Terms in canonical order: a-degree descending, then z-degree descending."""
        return iter(sorted(self._terms.items(), key=lambda t: (-t[0][1], -t[0][0])))

    def a_degrees(self) -> tuple[int, int, int]:
        """Return ``(E, e, span)``: max/min degree of ``a`` and their difference."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no degree extremes")
        degs = [da for (_, da) in self._terms]
        E, e = max(degs), min(degs)
        return E, e, E - e

    # -- conversions -------------------------------------------------------

    def to_text(self) -> str:
        return _format_terms(
            [((da, dz), c) for (dz, da), c in self.terms()], ("a", "z")
        )

    def to_json_terms(self) -> list[dict[str, int]]:
        return [{"a": da, "z": dz, "c": c} for (dz, da), c in self.terms()]

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.to_text()})"

    def substitute_alexander(self) -> "LaurentPoly1":
        """Evaluate at ``a = 1``, ``z = s - s^-1`` exactly.

        Setting ``a = 1`` collapses the polynomial to ``sum q_k z^k``.  As
        ``s - s^-1`` has a simple root at ``s = 1``, its ``m``-th power never
        divides a nonzero polynomial in it of degree below ``m``, so the value
        is a Laurent polynomial in ``s`` exactly when every ``q_k`` with
        ``k < 0`` vanishes; otherwise :class:`SubstitutionError` is raised.
        The rest is expanded term by term (:func:`difference_power`).
        """
        q: dict[int, int] = {}
        for (dz, _), c in self._terms.items():
            q[dz] = q.get(dz, 0) + c
        if any(c for k, c in q.items() if k < 0):
            raise SubstitutionError("a negative power of z survives a = 1")
        acc: dict[tuple[int, int], int] = {}  # (0, e) -> coefficient of s^e
        for k, c in q.items():
            if c:  # a vanished power, negative ones included, adds nothing
                _add_shifted(acc, difference_power(k), 0, 0, c)
        return LaurentPoly1({e: c for (_, e), c in acc.items()})


class LaurentPoly1:
    """An exact Laurent polynomial in one variable ``s`` over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        """Take ``terms``, dropping zeros; a non-integer raises ``TypeError``."""
        clean = {}
        if terms:
            index = operator.index
            for k, c in terms.items():
                k = index(k)
                c = index(c)
                if c:
                    clean[k] = c
        self._terms = clean

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly1) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def terms(self) -> Iterator[tuple[int, int]]:
        """Terms as ``(exponent, coefficient)`` with exponents descending."""
        return iter(sorted(self._terms.items(), key=lambda t: -t[0]))

    def leading(self) -> tuple[int, int]:
        """``(exponent, coefficient)`` of the highest power of ``s``."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        k = max(self._terms)
        return k, self._terms[k]

    def to_text(self) -> str:
        return _format_terms([((k,), c) for k, c in self.terms()], ("s",))

    def to_json_terms(self) -> list[dict[str, int]]:
        return [{"s": k, "c": c} for k, c in self.terms()]

    def __repr__(self) -> str:
        return f"LaurentPoly1({self.to_text()})"
