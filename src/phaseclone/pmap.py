"""Plain-text PMAP format for matrices of first-order phase polynomials.

A document is a sequence of named blocks::

    pmap lambda1
    dim 2
    entry 0 0 0.125+0.0i 0.125+0.0i 0.25+0.0i
    entry 0 1 0.0+0.0i 1.0+0.0i 1.0+0.0i
    end

``entry i j <a> <b> <c>`` stores the three coefficients of the (i, j)
polynomial; omitted entries are zero.  Each coefficient is written as
``<re><sign><im>i`` where the parts are decimal (optionally with an
exponent) or exact rationals ``p/q``.  Rationals are parsed exactly and
converted once to double; each part is at most
:data:`~phaseclone.operators.MAX_COEFF` in magnitude.  Blank lines and ``#`` comments are ignored.
A document whose blocks are named ``lambda12``, ``lambda1`` and
``lambda2`` describes an uncorrelated triple.  ``dim`` is at most
:data:`MAX_DIM`, checked on the ``dim`` line before anything is
allocated.  Serialization is byte-deterministic: shortest round-trip
decimals, entries in row-major order, zero entries skipped.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import MAX_COEFF, JointPhaseOperator, PhaseOperator, UncorrelatedTriple

__all__ = [
    "MAX_DIM",
    "ParseError",
    "DuplicateEntryError",
    "DimensionMismatchError",
    "PmapDocument",
    "parse_pmap",
    "serialize_pmap",
    "document_from_triple",
    "document_from_operator",
]

TRIPLE_BLOCKS = ("lambda12", "lambda1", "lambda2")

#: Largest accepted block dimension; a (3, 64, 64) block is 98 KB.
MAX_DIM = 64


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class DuplicateEntryError(ParseError):
    pass


class DimensionMismatchError(ValueError):
    pass


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_NUMBER = r"(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
_COMPLEX_RE = re.compile(rf"^([+-]?{_NUMBER})([+-]{_NUMBER})i$")


def _parse_real(token: str, line: int) -> float:
    try:
        x = float(Fraction(token)) if "/" in token else float(token)
    except (ZeroDivisionError, OverflowError):
        x = math.inf
    except ValueError:  # Fraction refuses integers of more than 4300 digits
        raise ParseError(
            f"coefficient part of {len(token)} characters is too long", line
        ) from None
    if not abs(x) <= MAX_COEFF:
        raise ParseError(
            f"coefficient part {token!r} is not a number of magnitude <= {MAX_COEFF:g}", line
        )
    return x


def _parse_complex(token: str, line: int) -> complex:
    m = _COMPLEX_RE.match(token)
    if m is None:
        raise ParseError(
            f"expected coefficient like '0.5+0.0i' or '1/8-1/2i', got {token!r}", line
        )
    return complex(_parse_real(m.group(1), line), _parse_real(m.group(2), line))


@dataclass(frozen=True)
class PmapDocument:
    """Ordered named blocks, each one a phase operator."""

    blocks: dict

    @property
    def has_triple(self) -> bool:
        return all(name in self.blocks for name in TRIPLE_BLOCKS)

    def triple(self) -> UncorrelatedTriple:
        if not self.has_triple:
            missing = [n for n in TRIPLE_BLOCKS if n not in self.blocks]
            raise ValueError(f"document has no triple; missing blocks: {', '.join(missing)}")
        out1 = self.blocks["lambda1"]
        out2 = self.blocks["lambda2"]
        flat = self.blocks["lambda12"]
        if flat.dim != out1.dim * out2.dim:
            raise DimensionMismatchError(
                f"lambda12 has dim {flat.dim}, expected "
                f"{out1.dim} * {out2.dim} = {out1.dim * out2.dim}"
            )
        joint = JointPhaseOperator(flat.coeffs, dim1=out1.dim, dim2=out2.dim)
        return UncorrelatedTriple(joint=joint, out1=out1, out2=out2)


def parse_pmap(text: str) -> PmapDocument:
    """Parse PMAP text; raises :class:`ParseError` with a line number."""
    blocks: dict[str, PhaseOperator] = {}
    name: str | None = None
    dim: int | None = None
    entries: dict[tuple[int, int], tuple] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        if keyword == "pmap":
            if name is not None:
                raise ParseError(f"block {name!r} not closed before new 'pmap'", lineno)
            if len(tokens) != 2 or not _NAME_RE.match(tokens[1]):
                raise ParseError("expected 'pmap <name>'", lineno)
            if tokens[1] in blocks:
                raise ParseError(f"duplicate block name {tokens[1]!r}", lineno)
            name, dim, entries = tokens[1], None, {}
        elif keyword == "dim":
            if name is None:
                raise ParseError("'dim' outside of a pmap block", lineno)
            if dim is not None:
                raise ParseError("duplicate 'dim' line", lineno)
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError("expected 'dim <positive integer>'", lineno)
            try:
                dim = int(tokens[1])
            except ValueError:  # int() refuses strings of more than 4300 digits
                raise ParseError(
                    f"dim token of {len(tokens[1])} digits is too long", lineno
                ) from None
            if dim < 1:
                raise ParseError("expected 'dim <positive integer>'", lineno)
            if dim > MAX_DIM:
                raise ParseError(f"dim {dim} exceeds the maximum of {MAX_DIM}", lineno)
        elif keyword == "entry":
            if name is None:
                raise ParseError("'entry' outside of a pmap block", lineno)
            if dim is None:
                raise ParseError("'dim' must precede 'entry' lines", lineno)
            if len(tokens) != 6:
                raise ParseError("expected 'entry <i> <j> <a> <b> <c>'", lineno)
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError("entry indices must be integers", lineno) from None
            if not (0 <= i < dim and 0 <= j < dim):
                raise ParseError(f"entry index ({i}, {j}) out of range for dim {dim}", lineno)
            if (i, j) in entries:
                raise DuplicateEntryError(f"duplicate entry ({i}, {j})", lineno)
            entries[(i, j)] = tuple(_parse_complex(tok, lineno) for tok in tokens[3:6])
        elif keyword == "end":
            if name is None:
                raise ParseError("'end' outside of a pmap block", lineno)
            if dim is None:
                raise ParseError(f"block {name!r} has no 'dim'", lineno)
            coeffs = np.zeros((3, dim, dim), dtype=complex)
            for (i, j), abc in entries.items():
                coeffs[:, i, j] = abc
            blocks[name] = PhaseOperator(coeffs)
            name, dim, entries = None, None, {}
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno)

    if name is not None:
        raise ParseError(f"block {name!r} is not terminated by 'end'")
    if not blocks:
        raise ParseError("document contains no pmap blocks")
    return PmapDocument(blocks=blocks)


def _format_real(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalise -0.0
    return repr(x)


def _format_complex(z: complex) -> str:
    im = z.imag if z.imag != 0.0 else 0.0
    sign = "+" if im >= 0.0 else "-"
    return f"{_format_real(z.real)}{sign}{_format_real(abs(im))}i"


def _serialize_block(name: str, op: PhaseOperator) -> str:
    lines = [f"pmap {name}", f"dim {op.dim}"]
    for i in range(op.dim):
        for j in range(op.dim):
            e = op.entry(i, j)
            if e.is_zero():
                continue
            lines.append(
                f"entry {i} {j} "
                f"{_format_complex(e.a)} {_format_complex(e.b)} {_format_complex(e.c)}"
            )
    lines.append("end")
    return "\n".join(lines)


def serialize_pmap(doc: PmapDocument) -> str:
    return "\n\n".join(_serialize_block(n, op) for n, op in doc.blocks.items()) + "\n"


def document_from_triple(t: UncorrelatedTriple) -> PmapDocument:
    return PmapDocument(
        blocks={
            "lambda12": PhaseOperator(t.joint.coeffs),
            "lambda1": t.out1,
            "lambda2": t.out2,
        }
    )


def document_from_operator(name: str, op: PhaseOperator) -> PmapDocument:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid block name {name!r}")
    return PmapDocument(blocks={name: op})
