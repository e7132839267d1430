"""PMAP grammar, error reporting and byte-deterministic round trips."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseclone import (
    DimensionMismatchError,
    DuplicateEntryError,
    ParseError,
    PhaseOperator,
    PmapDocument,
    UncorrelatedTriple,
    builtin,
    document_from_operator,
    document_from_triple,
    parse_pmap,
    serialize_pmap,
)
from phaseclone import pmap
from phaseclone.catalog import NAMES
from phaseclone.cli import main
from phaseclone.operators import MAX_COEFF
from phaseclone.pmap import MAX_DIM

from helpers import fp, max_coeff_diff


def test_grammar_oracle_entry_line():
    doc = parse_pmap(
        "pmap x\n"
        "dim 2\n"
        "entry 0 1 0+0i 1/8+0i 1/8+0i\n"
        "end\n"
    )
    op = doc.blocks["x"]
    assert op.entry(0, 1).distance(fp(0, 0.125, 0.125)) == 0
    assert op.entry(0, 0).distance(fp(0, 0, 0)) == 0


def test_rational_and_scientific_literals():
    doc = parse_pmap(
        "pmap x\ndim 1\nentry 0 0 -1/2+3/4i 1e-05-2.5e1i .5+0i\nend\n"
    )
    e = doc.blocks["x"].entry(0, 0)
    assert e.a == complex(-0.5, 0.75)
    assert e.b == complex(1e-05, -25.0)
    assert e.c == complex(0.5, 0.0)


def test_comments_and_blank_lines():
    doc = parse_pmap(
        "# header comment\n\n"
        "pmap y  # trailing comment\n"
        "dim 1\n"
        "entry 0 0 1+0i 0+0i 0+0i\n"
        "end\n"
    )
    assert doc.blocks["y"].entry(0, 0).distance(fp(1, 0, 0)) == 0


@pytest.mark.parametrize("name", NAMES)
def test_round_trip_byte_identical(name):
    entry = builtin(name)
    if isinstance(entry.payload, UncorrelatedTriple):
        doc = document_from_triple(entry.payload)
    else:
        doc = document_from_operator(entry.name, entry.payload)
    text = serialize_pmap(doc)
    again = serialize_pmap(parse_pmap(text))
    assert again == text


def test_round_trip_preserves_coefficients():
    t = builtin("counterexample").payload
    doc = parse_pmap(serialize_pmap(document_from_triple(t)))
    back = doc.triple()
    assert max_coeff_diff(back.out1, t.out1) == 0
    assert max_coeff_diff(back.joint, t.joint) == 0


def test_index_out_of_range_is_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_pmap("pmap x\ndim 2\nentry 0 5 0+0i 0+0i 1+0i\nend\n")
    assert exc.value.line == 3


def test_duplicate_entry():
    text = "pmap x\ndim 2\nentry 0 0 1+0i 0+0i 0+0i\nentry 0 0 2+0i 0+0i 0+0i\nend\n"
    with pytest.raises(DuplicateEntryError) as exc:
        parse_pmap(text)
    assert exc.value.line == 4


@pytest.mark.parametrize(
    "text",
    [
        "dim 2\n",                                    # dim outside block
        "pmap x\nentry 0 0 1+0i 0+0i 0+0i\nend\n",    # entry before dim
        "pmap x\ndim 2\n",                            # unterminated block
        "pmap x\ndim 2\nentry 0 0 1 0+0i 0+0i\nend\n",  # bare real token
        "pmap x\ndim 2\nentry 0 0 1+0i 0+0i\nend\n",  # wrong token count
        "pmap x\ndim 0\nend\n",                       # non-positive dim
        "pmap x\ndim 2\nend\npmap x\ndim 2\nend\n",   # duplicate block name
        "bogus\n",                                    # unknown keyword
        "",                                           # no blocks at all
        "pmap x\ndim 2\nfoo\nend\n",                  # unknown keyword in block
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_pmap(text)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("pmap x\ndim 2\ndim 2\nend\n", 3, "duplicate 'dim' line"),
        ("pmap x\nend\n", 2, "block 'x' has no 'dim'"),
        ("pmap x\ndim 1\nend\n\npmap y\nend\n", 6, "block 'y' has no 'dim'"),
    ],
)
def test_parse_errors_name_the_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_pmap(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_triple_requires_lambda_blocks():
    doc = parse_pmap("pmap lambda1\ndim 2\nend\n")
    with pytest.raises(ValueError):
        doc.triple()


def test_triple_dimension_mismatch():
    text = (
        "pmap lambda12\ndim 2\nend\n\n"
        "pmap lambda1\ndim 2\nend\n\n"
        "pmap lambda2\ndim 2\nend\n"
    )
    with pytest.raises(DimensionMismatchError):
        parse_pmap(text).triple()


def test_negative_zero_normalised():
    doc = document_from_operator("z", parse_pmap("pmap z\ndim 1\nentry 0 0 1+0i 0+0i 0+0i\nend\n").blocks["z"])
    text = serialize_pmap(doc)
    assert "-0.0" not in text


@pytest.mark.parametrize("name", ["", "1x", "two words", "x/y"])
def test_document_from_operator_rejects_an_invalid_name(name):
    with pytest.raises(ValueError, match="invalid block name"):
        document_from_operator(name, PhaseOperator.zero(1))


def _unreadable_documents() -> dict:
    """Documents whose text ``parse_pmap`` would refuse, and the error each names."""
    one, nine, big = (PhaseOperator.zero(d) for d in (1, 9, MAX_DIM + 1))
    return {
        "bad name": (lambda: PmapDocument(blocks={"bad name": one}), "invalid block name"),
        "trailing newline": (lambda: PmapDocument(blocks={"x\n": one}), "invalid block name"),
        "65x65 operator": (lambda: document_from_operator("x", big), "dim 65 exceeds the maximum of 64"),
        "81x81 joint": (
            lambda: document_from_triple(UncorrelatedTriple(PhaseOperator.zero(81), nine, nine)),
            "dim 81 exceeds the maximum of 64",
        ),
        "no block": (lambda: PmapDocument(blocks={}), "document contains no pmap blocks"),
    }


@pytest.mark.parametrize("case", sorted(_unreadable_documents()))
def test_serializer_refuses_what_the_reader_refuses(case):
    # The serializer raises by the reader's own rules (the block name, MAX_DIM,
    # at least one block) rather than write text parse_pmap rejects.
    make, message = _unreadable_documents()[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize_pmap(make())


def test_serializer_writes_the_largest_block_the_reader_takes():
    op = PhaseOperator(np.full((3, MAX_DIM, MAX_DIM), 0.5))
    text = serialize_pmap(document_from_operator("x_1-y", op))
    assert parse_pmap(text).blocks["x_1-y"] == op


def test_serializer_skips_zero_entries():
    t = builtin("case1-example").payload
    text = serialize_pmap(document_from_triple(t))
    # diagonal triple: no off-diagonal entry lines at all
    assert "entry 0 1" not in text
    assert "entry 1 0" not in text


def test_dim_above_max_rejected_at_dim_line():
    # Rejected on line 2, before the block is closed and anything is built.
    with pytest.raises(ParseError) as exc:
        parse_pmap("pmap x\ndim 1000000000\nend\n")
    assert exc.value.line == 2
    assert parse_pmap(f"pmap x\ndim {MAX_DIM}\nend\n").blocks["x"].dim == MAX_DIM


@pytest.mark.parametrize("token", ["9" * 5000, "1" + "0" * 4400, "0" * 5000 + "99"])
def test_overlong_dim_token_is_parse_error(token):
    # int() refuses strings of more than 4300 digits with a plain ValueError.
    with pytest.raises(ParseError) as exc:
        parse_pmap(f"pmap x\ndim {token}\nend\n")
    assert exc.value.line == 2


def test_dim_leading_zeros():
    assert parse_pmap("pmap x\ndim 002\nend\n").blocks["x"].dim == 2
    with pytest.raises(ParseError):
        parse_pmap("pmap x\ndim 000\nend\n")


@pytest.mark.parametrize("token", ["1/0+0i", "0+1/0i", "1e999+0i", "0-1e400i"])
def test_non_finite_coefficient_is_parse_error(token):
    with pytest.raises(ParseError) as exc:
        parse_pmap(f"pmap x\ndim 1\nentry 0 0 {token} 0+0i 0+0i\nend\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("token", ["1.0000001e150+0i", "0-1e308i", "-1" + "0" * 151 + "/1+0i"])
def test_coefficient_part_past_the_bound_is_parse_error(token):
    with pytest.raises(ParseError, match="magnitude <= 1e") as exc:
        parse_pmap(f"pmap x\ndim 1\nentry 0 0 0+0i {token} 0+0i\nend\n")
    assert exc.value.line == 3


def test_coefficient_parts_at_the_bound_parse():
    op = parse_pmap("pmap x\ndim 1\nentry 0 0 1e150-1e150i 0-1e150i -1e150+0i\nend\n").blocks["x"]
    assert np.abs(op.coeffs.view(float)).max() == MAX_COEFF


def test_overlong_fraction_is_parse_error():
    # Fraction() refuses integers of more than 4300 digits with a plain ValueError.
    with pytest.raises(ParseError) as exc:
        parse_pmap("pmap x\ndim 1\nentry 0 0 " + "1" * 5000 + "/1+0i 0+0i 0+0i\nend\n")
    assert exc.value.line == 3


_JUNK = st.text(max_size=8)
_INDEX = st.sampled_from(["0", "0", "0", "1", "-1", "1_0", "٣", "9" * 4400])
_COEFF = st.sampled_from(
    [
        "0+0i", "1/8-1/2i", ".5+1e-3i", "-2.5e-309+1e308i", "1/0+0i", "1e999+0i",
        "nan+0i", "1+infi", "1+1", "1" * 5000 + "/1+0i", "0+1/" + "3" * 5000 + "i",
    ]
)
_ENTRY = st.tuples(_INDEX, _INDEX, _COEFF, _COEFF, _COEFF).map(lambda t: "entry " + " ".join(t))
_LINE = st.one_of(
    st.sampled_from(["pmap x", "pmap lambda1", "pmap 1x", "pmap", "end", "# note", ""]),
    st.sampled_from(["dim 1", "dim 2", "dim 0", "dim 002", "dim 65", "dim " + "9" * 5000]),
    _ENTRY,
    _JUNK,
    st.lists(st.one_of(_INDEX, _COEFF, _JUNK), max_size=6).map(" ".join),
)
_BLOCK = st.tuples(
    st.sampled_from(["pmap x", "pmap lambda1", "pmap lambda2", "pmap lambda12"]),
    st.sampled_from(["dim 1", "dim 2", "dim 4"]),
    st.lists(_ENTRY, max_size=3),
).map(lambda b: [b[0], b[1], *b[2], "end"])


@settings(max_examples=600, deadline=None)
@given(st.lists(st.one_of(_BLOCK, _BLOCK, _LINE.map(lambda line: [line])), max_size=6))
def test_parse_raises_only_parse_errors(chunks):
    # Well-formed blocks with hostile tokens, interleaved with stray lines.
    text = "\n".join(line for chunk in chunks for line in chunk)
    try:
        doc = parse_pmap(text)
    except (ParseError, DimensionMismatchError):
        return
    first = serialize_pmap(doc)
    assert serialize_pmap(parse_pmap(first)) == first
    if doc.has_triple:
        try:
            doc.triple()
        except DimensionMismatchError:
            pass


#: Coefficient parts are at most MAX_COEFF in magnitude.
_FINITE = st.floats(min_value=-MAX_COEFF, max_value=MAX_COEFF)


@st.composite
def _operators(draw):
    d = draw(st.integers(1, 3))
    parts = np.array(draw(st.lists(_FINITE, min_size=6 * d * d, max_size=6 * d * d)))
    coeffs = parts[: 3 * d * d].astype(complex)
    coeffs.imag = parts[3 * d * d :]
    return PhaseOperator(coeffs.reshape(3, d, d))


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,8}", fullmatch=True), _operators(), min_size=1, max_size=3
    )
)
def test_serialize_parse_serialize_is_byte_identical(blocks):
    text = serialize_pmap(PmapDocument(blocks=blocks))
    assert serialize_pmap(parse_pmap(text)) == text


@pytest.mark.parametrize(
    "text, message",
    [
        ("pmap x\ndim ٢\nend\n", "line 2: expected 'dim <positive integer>'"),
        ("pmap x\ndim 20\nentry 1_0 0 1+0i 0+0i 0+0i\nend\n", "line 3: entry indices must be"),
        ("pmap x\ndim 2\nentry +1 0 1+0i 0+0i 0+0i\nend\n", "line 3: entry indices must be"),
        ("pmap x\ndim 2\nentry 1 ٣ 1+0i 0+0i 0+0i\nend\n", "line 3: entry indices must be"),
        ("pmap x\ndim 2\nentry 0 0 ١/٨+0i 0+0i 0+0i\nend\n", "line 3: expected coefficient"),
        ("pmap x\ndim 2\nentry 0 0 1_0+0i 0+0i 0+0i\nend\n", "line 3: expected coefficient"),
    ],
)
def test_non_ascii_digits_are_parse_errors(tmp_path, capsys, text, message):
    # int(), float() and str.isdecimal() accept every Unicode decimal digit,
    # underscores and a leading plus sign; the PMAP grammar is ASCII 0-9.
    with pytest.raises(ParseError) as exc:
        parse_pmap(text)
    assert str(exc.value).startswith(message)
    path = tmp_path / "bad.pmap"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


_REF_NUMBER = r"(?:[0-9]+/[0-9]+|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
_REF_COMPLEX = re.compile(rf"([+-]?{_REF_NUMBER})([+-]{_REF_NUMBER})i")


def _reference_real(token: str, line: int) -> float:
    try:
        x = float(Fraction(token)) if "/" in token else float(token)
    except (ZeroDivisionError, OverflowError):
        x = math.inf
    except ValueError:
        raise ParseError(
            f"coefficient part of {len(token)} characters is too long", line
        ) from None
    if not abs(x) <= MAX_COEFF:
        raise ParseError(
            f"coefficient part {token!r} is not a number of magnitude <= {MAX_COEFF:g}", line
        )
    return x


def _reference_entry(raw: str, dim: int, taken: set, line: int) -> tuple:
    """One entry line read token by token: the indices and the coefficients, or a ParseError."""
    tokens = raw.split("#", 1)[0].split()
    if len(tokens) != 6:
        raise ParseError("expected 'entry <i> <j> <a> <b> <c>'", line)
    if not all(re.fullmatch("[0-9]+", t) for t in tokens[1:3]):
        raise ParseError("entry indices must be unsigned integers of ASCII digits", line)
    try:
        i, j = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ParseError("entry index is too long", line) from None
    if not (i < dim and j < dim):
        raise ParseError(f"entry index ({i}, {j}) out of range for dim {dim}", line)
    if (i, j) in taken:
        raise DuplicateEntryError(f"duplicate entry ({i}, {j})", line)
    coeffs = []
    for token in tokens[3:]:
        m = _REF_COMPLEX.fullmatch(token)
        if m is None:
            raise ParseError(
                f"expected coefficient like '0.5+0.0i' or '1/8-1/2i', got {token!r}", line
            )
        coeffs.append(complex(_reference_real(m[1], line), _reference_real(m[2], line)))
    return (i, j), coeffs


_HOSTILE_INDEX = st.sampled_from(
    ["0", "1", "2", "3", "007", "63", "64", "-1", "+1", "1_0", "٣", "9" * 4400, "0" * 4400 + "1"]
)
_PART = st.one_of(
    st.sampled_from(
        [
            "0", "1", "0.5", ".5", "5.", "2.5e1", "1E-3", "1e+3", "1/8", "3/4", "007/2", "1/0",
            "0/0", "1e150", "1.0000001e150", "1e308", "1e999", "1" * 5000, "1" * 5000 + "/1",
            "1/" + "3" * 5000, "1" * 151 + "/1", "١", "1_0", "inf", "nan", "", "e5", "1/2.5",
        ]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: repr(abs(x))),
    st.fractions(max_denominator=10**6).map(lambda q: f"{abs(q.numerator)}/{q.denominator}"),
)
_COEFFICIENT = st.one_of(
    st.tuples(st.sampled_from(["", "+", "-"]), _PART, st.sampled_from(["+", "-"]), _PART).map(
        lambda t: "".join(t) + "i"
    ),
    st.sampled_from(["1+1", "1", "+i", "1+2j", "1++2i", "(1+2i)"]),
)
_VALID_PART = st.one_of(
    st.floats(0.0, 1e300).map(repr),
    st.fractions(0, 10**200, max_denominator=10**9).map(lambda q: f"{q.numerator}/{q.denominator}"),
    st.sampled_from(["0", "1", ".5", "5.", "1E-3", "1e150", "1e151", "1" * 400, "007/2"]),
)
_VALID_COEFFICIENT = st.tuples(
    st.sampled_from(["", "+", "-"]), _VALID_PART, st.sampled_from(["+", "-"]), _VALID_PART
).map(lambda t: "".join(t) + "i")


@st.composite
def _fields(draw, dim):
    """Entry fields: in range and well formed, or with hostile tokens, or of a wrong count."""
    kind = draw(st.sampled_from(["valid", "valid", "hostile", "count"]))
    if kind == "count":
        return draw(st.lists(st.one_of(_HOSTILE_INDEX, _COEFFICIENT), max_size=7))
    if kind == "valid":
        index, coefficient = st.integers(0, dim - 1).map(str), _VALID_COEFFICIENT
    else:
        index, coefficient = _HOSTILE_INDEX, _COEFFICIENT
    return [draw(index), draw(index), *(draw(coefficient) for _ in range(3))]


#: Whitespace of ``str.split`` that is no line boundary of ``str.splitlines``.
_SPACE = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2003", " \x1f "])


@settings(max_examples=800, deadline=None)
@given(
    st.integers(1, MAX_DIM).flatmap(lambda dim: st.tuples(st.just(dim), _fields(dim))),
    st.booleans(),
    _SPACE,
    st.sampled_from(["", "  ", "\t"]),
    st.sampled_from(["", " # note", "#", "# a/b 1e999"]),
)
def test_entry_line_matches_the_per_token_reference(dim_fields, taken, space, lead, comment):
    # The line reader's token-by-token read of an entry line against an
    # independent per-token reading of the same line: the same coefficient
    # bits, or the same error and line.
    dim, fields = dim_fields
    raw = lead + space.join(["entry", *fields]) + comment
    pre = "entry 0 0 1+0i 0+0i 0+0i\n" if taken else ""
    line = 4 if taken else 3
    try:
        want = _reference_entry(raw, dim, {(0, 0)} if taken else set(), line)
    except ParseError as err:
        with pytest.raises(ParseError) as exc:
            parse_pmap(f"pmap x\ndim {dim}\n{pre}{raw}\nend\n")
        assert (type(exc.value), str(exc.value), exc.value.line) == (type(err), str(err), line)
        return
    (i, j), coeffs = want
    op = parse_pmap(f"pmap x\ndim {dim}\n{pre}{raw}\nend\n").blocks["x"]
    assert op.coeffs[:, i, j].tobytes() == np.array(coeffs).tobytes()


def _same_blocks(a: PmapDocument, b: PmapDocument) -> bool:
    """The same block names in the same order, each with the same coefficient bits."""
    return list(a.blocks) == list(b.blocks) and all(
        a.blocks[n].coeffs.tobytes() == b.blocks[n].coeffs.tobytes() for n in a.blocks
    )


#: Doubles whose ``repr`` is a coefficient part: random ones, subnormals, the
#: extremes of the accepted range and exact dyadics.
_DOUBLE = st.one_of(
    st.floats(min_value=-MAX_COEFF, max_value=MAX_COEFF),
    st.sampled_from(
        [5e-324, -2.2250738585072e-308, 1e-300, 1e150, -1e150, 0.125, -0.375, 2.0**-60, 3.0 * 2**40]
    ),
)


def _canonical(z: tuple) -> str:
    """``re`` and ``im`` written as :func:`serialize_pmap` writes them, but keeping ``-0.0``."""
    re_, im = z
    return f"{re_!r}{'-' if math.copysign(1.0, im) < 0 else '+'}{abs(im)!r}i"


@st.composite
def _canonical_blocks(draw):
    """Blocks of dim 1-9 or MAX_DIM in the serialized form; zero entries left out."""
    dim = draw(st.one_of(st.integers(1, 9), st.just(MAX_DIM)))
    cell = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    part = st.one_of(_DOUBLE, _DOUBLE, st.just(-0.0), st.just(0.0))
    coefficient = st.tuples(part, part)
    triple = st.tuples(coefficient, coefficient, coefficient)
    entries = draw(st.dictionaries(cell, triple, max_size=12))
    lines = [f"dim {dim}"]
    for (i, j), abc in sorted(entries.items()):
        if any(x != 0.0 for z in abc for x in z):
            lines.append(f"entry {i} {j} " + " ".join(map(_canonical, abc)))
    return lines + ["end"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_canonical_blocks(), min_size=1, max_size=3),
    st.permutations(["lambda12", "lambda1", "lambda2"]),
)
def test_block_reader_and_line_reader_read_the_same_bits(blocks, names):
    text = "\n\n".join("\n".join([f"pmap {n}", *b]) for n, b in zip(names, blocks)) + "\n"
    fast = pmap._read_blocks(text)
    assert fast is not None
    assert _same_blocks(fast, pmap._read_lines(text))
    assert _same_blocks(parse_pmap(text), fast)


_FORM = (
    "pmap lambda1\ndim 2\n"
    "entry 0 0 0.125+0.0i 0.125-0.0i 0.25+0.0i\n"
    "entry 0 1 0.0+0.0i 1e-05+1.0i 1.0+0.0i\n"
    "end\n\n"
    "pmap lambda2\ndim 1\n"
    "entry 0 0 1.0+0.0i 0.0+0.0i -0.5+0.0i\n"
    "end\n"
)


@pytest.mark.parametrize(
    "text",
    [
        "# note\n" + _FORM,
        _FORM.replace("entry 0 1", "entry\t0 1"),
        _FORM.replace("\n", "\r\n"),
        _FORM + "\n",
        "pmap x\ndim 07\nentry 6 6 1.0+0.0i 0.0+0.0i 0.0+0.0i\nend\n",
        _FORM.replace("0.125+0.0i 0.125", "1/8+0.0i 0.125"),
        _FORM.replace("entry 0 1 ", "entry 0 1  "),
        _FORM[:-1],
        _FORM.replace("end\n\n", "entry 0 1 2.0+0.0i 0.0+0.0i 0.0+0.0i\nend\n\n"),
        _FORM.replace("entry 0 1", "entry 2 1"),
        _FORM.replace("entry 0 1", "entry " + "1" * 4400 + " 1"),
        _FORM.replace("1e-05+1.0i", "1e+151+1.0i"),
        _FORM.replace("1e-05+1.0i", "1e-05+1.0j"),
        _FORM.replace("entry 0 1", "xentry 0 1"),
        _FORM.replace("\n\npmap", "\n#pmap"),
        _FORM.replace("end\n\n", "\n"),
        _FORM.replace("lambda2", "lambda1"),
        "pmap x\ndim 65\nend\n",
    ],
    ids=[
        "comment", "tab", "crlf", "trailing-blank-line", "dim-07", "rational", "double-space",
        "no-final-newline", "duplicate-entry", "index-equals-dim", "4400-digit-index", "part-1e151",
        "j-suffix", "junk-before-entry", "commented-out-header", "missing-end",
        "duplicate-block", "dim-above-max",
    ],
)
def test_departures_from_the_form_take_the_line_reader(text):
    assert pmap._read_blocks(text) is None
    try:
        want = pmap._read_lines(text)
    except ParseError as err:
        with pytest.raises(ParseError) as exc:
            parse_pmap(text)
        assert (type(exc.value), str(exc.value), exc.value.line) == (type(err), str(err), err.line)
        return
    assert _same_blocks(parse_pmap(text), want)


def _late_departures() -> dict:
    """A serialized catalog triple (three blocks) with one departure in its last entry line."""
    text = serialize_pmap(document_from_triple(builtin("case3-example").payload))
    head, last = text[:-1].rsplit("\nentry ", 1)
    return {
        "tab": f"{head}\nentry\t{last}\n",
        "tab-between-parts": f"{head}\nentry {last.replace('i ', 'i' + chr(9), 1)}\n",
        "double-space": f"{head}\nentry  {last}\n",
        "trailing-double-space": f"{head}\nentry {last.replace(chr(10), '  ' + chr(10), 1)}\n",
        "leading-zero": f"{head}\nentry 0{last}\n",
    }


@pytest.mark.parametrize("name", ["tab", "tab-between-parts"])
def test_a_late_tab_is_declined_before_any_block_is_read(name, monkeypatch):
    # The serialized form holds no tab, so text with one goes to the line
    # reader at once, wherever it is: the block reader's header matcher never
    # runs, and the bits are the line reader's.
    text = _late_departures()[name]
    want = pmap._read_lines(text)

    def refuse():
        raise AssertionError("the block reader read a block of hand-written text")

    monkeypatch.setattr(pmap, "_block_re", refuse)
    assert pmap._read_blocks(text) is None
    assert _same_blocks(parse_pmap(text), want)


@pytest.mark.parametrize("name", ["double-space", "trailing-double-space", "leading-zero"])
def test_a_late_doubled_space_or_leading_zero_is_declined_where_its_block_is_read(name, monkeypatch):
    # A doubled space or an index with a leading zero is only caught where
    # its block is read, so the blocks before it are read by the block reader
    # first; the result is still the line reader's.
    text = _late_departures()[name]
    headers = []
    header, entries = pmap._block_re()
    want = pmap._read_lines(text)
    monkeypatch.setattr(pmap, "_block_re", lambda: (lambda c: headers.append(c) or header(c), entries))
    assert pmap._read_blocks(text) is None
    assert len(headers) == 3  # the third block, the last, holds the departure
    assert _same_blocks(parse_pmap(text), want)


def test_a_serialized_document_is_read_by_the_block_reader(monkeypatch):
    # The fast path must not go dead unnoticed: with the line reader gone,
    # what serialize_pmap writes still reads back.
    def refuse(text):
        raise AssertionError("the line reader ran on a serialized document")

    text = serialize_pmap(document_from_triple(builtin("counterexample").payload))
    monkeypatch.setattr(pmap, "_read_lines", refuse)
    assert serialize_pmap(parse_pmap(text)) == text
