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
exponent) or exact rationals ``p/q``; digits are ASCII ``0-9``.  Rationals
are parsed exactly and converted once to double; each part is at most
:data:`~phaseclone.operators.MAX_COEFF` in magnitude.  Blank lines and ``#``
comments are ignored.  Text in exactly the form :func:`serialize_pmap` writes
is read a block at a time (one ``findall``, one ``complex()`` per coefficient);
any other text, or a fault, goes to the line reader, which checks each token
of a line in turn and is the only one that words a :class:`ParseError`.  Both
give the same bits.
A document whose blocks are named ``lambda12``, ``lambda1`` and
``lambda2`` describes an uncorrelated triple.  ``dim`` is at most
:data:`MAX_DIM`, checked on the ``dim`` line before anything is
allocated.  Serialization is byte-deterministic: shortest round-trip
decimals, entries in row-major order, zero entries skipped.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import MAX_COEFF, DimensionMismatchError, PhaseOperator, UncorrelatedTriple

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


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_DIGITS_RE = re.compile("[0-9]+")
_NUMBER = r"(?:[0-9]+/[0-9]+|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
_COMPLEX_RE = re.compile(rf"([+-]?{_NUMBER})([+-]{_NUMBER})i")


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
        b = self.blocks
        return UncorrelatedTriple(b["lambda12"], b["lambda1"], b["lambda2"])


@functools.cache
def _block_re() -> tuple:
    """The header and ``entry`` line of :func:`serialize_pmap`; one group per coefficient."""
    number = r"(?:[0-9]+\.[0-9]+|[0-9](?:\.[0-9]+)?e[+-][0-9]+)"
    coeff = rf"(-?{number}[+-]{number}j)"
    header = re.compile(r"pmap ([A-Za-z_][A-Za-z0-9_-]*)\ndim ([1-9][0-9]?)\n")
    entry = re.compile(rf"^entry ([0-9]+ [0-9]+) {coeff} {coeff} {coeff}\n", re.M)
    return header.match, entry.findall


@functools.cache
def _cells(dim: int) -> dict:
    """``"i j"`` -> ``i * dim + j`` for every cell of a ``dim`` x ``dim`` block."""
    return {f"{i} {j}": i * dim + j for i in range(dim) for j in range(dim)}


def _read_blocks(text: str) -> PmapDocument | None:
    """Read text in the form :func:`serialize_pmap` writes; ``None`` for any other.

    Never raises: on any departure from the form, a duplicate, an index or
    ``dim`` out of range or a part beyond ``MAX_COEFF`` it returns ``None``.
    Text with a ``#``, CR, ``/`` or tab (the form holds none) is declined
    before any block is read; a doubled space or an index with a leading zero
    (``entry 01 0``) only where its block is read, after the blocks before it.
    """
    if not text.endswith("\nend\n") or "#" in text or "\r" in text or "/" in text or "\t" in text:
        return None  # hand-written text is declined before any block is read
    header, entries = _block_re()
    blocks: dict[str, PhaseOperator] = {}
    for chunk in text[:-1].split("\n\n"):  # blocks are separated by one blank line
        h = header(chunk)
        dim = int(h[2]) if h else 0
        if not 0 < dim <= MAX_DIM or h[1] in blocks or not chunk.endswith("\nend"):
            return None
        body = chunk[h.end() : -len("end")]
        rows = entries(body.replace("i", "j"))
        keys = list(map(_cells(dim).get, (row[0] for row in rows)))
        if "j" in body or len(rows) != body.count("\n") or len(set(keys) - {None}) < len(rows):
            return None  # a line that is no entry, an index out of range, or a duplicate
        flat = np.zeros((dim * dim, 3), complex)  # row-major (i, j), then (a, b, c)
        flat[keys] = np.reshape([complex(c) for row in rows for c in row[1:]], (-1, 3))
        try:
            blocks[h[1]] = PhaseOperator(flat.reshape(dim, dim, 3).transpose(2, 0, 1))
        except ValueError:  # a part beyond MAX_COEFF
            return None
    return PmapDocument(blocks=blocks)


def parse_pmap(text: str) -> PmapDocument:
    """Parse PMAP text; raises :class:`ParseError` with a line number."""
    doc = _read_blocks(text)
    return doc if doc is not None else _read_lines(text)


def _read_lines(text: str) -> PmapDocument:
    """Read any PMAP text line by line; the only reader that raises :class:`ParseError`."""
    blocks: dict[str, PhaseOperator] = {}
    name: str | None = None
    dim: int | None = None
    entries: dict[tuple[int, int], list] = {}

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
            if len(tokens) != 2 or not _DIGITS_RE.fullmatch(tokens[1]):
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
            if not (_DIGITS_RE.fullmatch(tokens[1]) and _DIGITS_RE.fullmatch(tokens[2])):
                raise ParseError("entry indices must be unsigned integers of ASCII digits", lineno)
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError:  # int() refuses strings of more than 4300 digits
                raise ParseError("entry index is too long", lineno) from None
            if not (i < dim and j < dim):
                raise ParseError(f"entry index ({i}, {j}) out of range for dim {dim}", lineno)
            if (i, j) in entries:
                raise DuplicateEntryError(f"duplicate entry ({i}, {j})", lineno)
            parts = []  # (a, b, c) as re, im
            for token in tokens[3:]:
                m = _COMPLEX_RE.fullmatch(token)
                if m is None:
                    raise ParseError(
                        f"expected coefficient like '0.5+0.0i' or '1/8-1/2i', got {token!r}",
                        lineno,
                    )
                parts += map(_parse_real, m.groups(), (lineno, lineno))
            entries[i, j] = parts
        elif keyword == "end":
            if name is None:
                raise ParseError("'end' outside of a pmap block", lineno)
            if dim is None:
                raise ParseError(f"block {name!r} has no 'dim'", lineno)
            parts = [0.0] * (6 * dim * dim)  # row-major (i, j), then (a, b, c) as re, im
            for (i, j), values in entries.items():
                parts[6 * (i * dim + j) : 6 * (i * dim + j) + 6] = values
            coeffs = np.array(parts).view(complex).reshape(dim, dim, 3)
            blocks[name] = PhaseOperator(coeffs.transpose(2, 0, 1))
            name, dim, entries = None, None, {}
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno)

    if name is not None:
        raise ParseError(f"block {name!r} is not terminated by 'end'")
    if not blocks:
        raise ParseError("document contains no pmap blocks")
    return PmapDocument(blocks=blocks)


def _format_complex(z: complex) -> str:
    re_, im = z.real + 0.0, z.imag + 0.0  # -0.0 + 0.0 is 0.0
    return f"{re_!r}{'-' if im < 0.0 else '+'}{abs(im)!r}i"


def _checked_block(name: str, op: PhaseOperator) -> PhaseOperator:
    """``op`` if :func:`parse_pmap` reads a block of this name and dimension, else ``ValueError``."""
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid block name {name!r}")
    if op.dim > MAX_DIM:
        raise ValueError(f"dim {op.dim} exceeds the maximum of {MAX_DIM}")
    return op


def _serialize_block(name: str, op: PhaseOperator) -> str:
    lines = [f"pmap {name}", f"dim {_checked_block(name, op).dim}"]
    for k, abc in enumerate(zip(*op.coeffs.reshape(3, -1).tolist())):  # (a, b, c) per cell
        if any(abc):  # zero entries are skipped
            i, j = divmod(k, op.dim)
            lines.append(f"entry {i} {j} " + " ".join(map(_format_complex, abc)))
    lines.append("end")
    return "\n".join(lines)


def serialize_pmap(doc: PmapDocument) -> str:
    """The PMAP text of ``doc``; ``ValueError`` for a document :func:`parse_pmap` would refuse:
    no block, a block name the reader refuses or a ``dim`` above :data:`MAX_DIM`."""
    if not doc.blocks:
        raise ValueError("document contains no pmap blocks")
    return "\n\n".join(_serialize_block(n, op) for n, op in doc.blocks.items()) + "\n"


def document_from_triple(t: UncorrelatedTriple) -> PmapDocument:
    return PmapDocument(
        blocks={
            "lambda12": t.joint,
            "lambda1": t.out1,
            "lambda2": t.out2,
        }
    )


def document_from_operator(name: str, op: PhaseOperator) -> PmapDocument:
    return PmapDocument(blocks={name: _checked_block(name, op)})
