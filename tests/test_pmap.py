"""PMAP grammar, error reporting and byte-deterministic round trips."""

from __future__ import annotations

import pytest

from phaseclone import (
    DimensionMismatchError,
    DuplicateEntryError,
    ParseError,
    UncorrelatedTriple,
    builtin,
    document_from_operator,
    document_from_triple,
    parse_pmap,
    serialize_pmap,
)
from phaseclone.catalog import NAMES
from phaseclone.operators import max_coeff_diff
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


@pytest.mark.parametrize("token", ["1/0+0i", "0+1/0i", "1e999+0i", "0-1e400i"])
def test_non_finite_coefficient_is_parse_error(token):
    with pytest.raises(ParseError) as exc:
        parse_pmap(f"pmap x\ndim 1\nentry 0 0 {token} 0+0i 0+0i\nend\n")
    assert exc.value.line == 3
