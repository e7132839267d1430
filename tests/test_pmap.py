"""PMAP grammar, error reporting and byte-deterministic round trips."""

from __future__ import annotations

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
from phaseclone.catalog import NAMES
from phaseclone.operators import MAX_COEFF, max_coeff_diff
from phaseclone.pmap import MAX_DIM

from helpers import fp


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
