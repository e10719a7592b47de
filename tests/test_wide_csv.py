"""Differential test of the ``anova`` CSV reader against the row-by-row
reference in conftest: the same float64 array, bit for bit, or a
``DomainError`` with the same text."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmbayes.cli import _read_wide_csv
from rmbayes.errors import DomainError

from conftest import reference_read_wide_csv


def _outcome(reader, path):
    try:
        return reader(path)
    except DomainError as exc:
        return str(exc)


def assert_reads_like_reference(path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(reference_read_wide_csv, path)
    got = _outcome(_read_wide_csv, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        expected = np.array(expected, dtype=float)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64, got
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


EDGE_CASES = {
    "plain": "a,b\n1,2\n3,4\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "cr": "a,b\r1,2\r3,4\r",
    "no final newline": "a,b\n1,2\n3,4",
    "leading blank line": "\na,b\n1,2\n3,4\n",
    "blank line after header": "a,b\n\n1,2\n3,4\n",
    "blank lines between rows": "a,b\n1,2\n\n\r\n3,4\n",
    "trailing blank lines": "a,b\n1,2\n3,4\n\n\n",
    "whitespace-only row": "a,b\n1,2\n , \n3,4\n",
    "whitespace-only header row": " , \na,b\n1,2\n3,4\n",
    "whitespace-only row above numbers": " , \n1,2\n3,4\n5,6\n",
    "quoted cells": '"a","b"\n"1","2"\n"3",4\n',
    "quoted header comma": '"a,b",c\n1,2\n3,4\n',
    "quoted header newline": '"a\nb",c\n1,2\n3,4\n',
    # the header's second line, read on its own, is a row of numbers
    "quoted header over a number row": '"a\n"1",2\n3,4\n',
    "byte order mark": "\ufeffa,b\n1,2\n3,4\n",
    "quoted newline": 'a,b\n"1\n",2\n3,4\n',
    "quote then digit": 'a,b\n"1"2,3\n4,5\n',
    "unterminated quote": 'a,b\n"1,2\n3,4\n',
    "hash in header": "#a,b\n1,2\n3,4\n",
    "hash in data": "a,b\n1,2\n#3,4\n",
    "nan and inf": "a,b\nnan,inf\n-Infinity,+NaN\n",
    "overflow and underflow": "a,b\n1e999,-1e999\n1e-400,4.9e-324\n",
    "signed zeros": "a,b\n-0.0,0\n-0,+0\n",
    "long mantissa": "a,b\n0.1000000000000000055511151231257827021181583404541015625,2\n"
                     "123456789012345678901234567890e-10,4\n",
    "underscores": "a,b\n1_000,2\n3,4\n",
    "hex": "a,b\n0x10,2\n3,4\n",
    "ragged": "a,b\n1,2\n3\n",
    "ragged after blank lines": "a,b\n1,2\n\n\n3\n",
    "trailing comma": "a,b\n1,2,\n3,4,\n",
    "extra column": "a,b\n1,2,3\n4,5,6\n",
    "header only": "a,b\n",
    "header and blank lines": "a,b\n\n\n",
    "empty file": "",
    "one data row": "a,b\n1,2\n",
    "single column": "a\n1\n2\n3\n",
    "non-ascii digits": "a,b\n١,٢\n3,4\n",
    "vertical tab": "a,b\n1\v,2\n3,4\n",
    "form feed": "a,b\n1,\f2\n3,4\n",
    "spaces around numbers": "a,b\n 1 , 2 \n3,\t4\n",
    "non-numeric cell": "a,b\n1,2\n3,four\n",
    "empty cell": "a,b\n1,\n3,4\n",
    "tab separated": "a\tb\n1\t2\n3\t4\n",
    # longer than the csv module's default field limit of 131 072 characters
    "long cell": "a,b\n1,2\n3,0." + "0" * 200_000 + "1\n4,7\n",
    "long cell after blank line": "a,b\n\n1,2\n3,0." + "0" * 200_000 + "1\n4,7\n",
}


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_cases_read_like_reference(tmp_path, text):
    assert_reads_like_reference(tmp_path / "wide.csv", text)


@pytest.mark.parametrize("name", ["wide.csv.gz", "wide.bz2", "wide.xz", "wide.lzma"])
def test_compression_suffix_is_a_plain_name(tmp_path, name):
    assert_reads_like_reference(tmp_path / name, EDGE_CASES["plain"])


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_DOUBLES = st.one_of(st.floats(allow_subnormal=True),
                     st.integers(0, 2 ** 64 - 1).map(_from_bits))
_NOISE = st.text(alphabet="0123456789.e-+_,\"# \t\r\nx", max_size=30)


@st.composite
def csv_texts(draw) -> str:
    """Rows of ``repr`` of random doubles, all of one width, mixed with rows of
    CSV-like noise, under one line ending."""
    k = draw(st.integers(1, 4))
    number_row = st.lists(_DOUBLES, min_size=k, max_size=k).map(
        lambda values: ",".join(map(repr, values)))
    rows = draw(st.lists(st.one_of(number_row, _NOISE), max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(rows) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
def test_random_csv_reads_like_reference(tmp_path_factory, text):
    assert_reads_like_reference(tmp_path_factory.mktemp("csv") / "wide.csv", text)
