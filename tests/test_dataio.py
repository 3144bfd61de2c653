from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evidnet import (
    CorruptFieldError,
    DimensionMismatchError,
    EvidnetError,
    FeatureDataset,
    MalformedCsvError,
    NonFiniteInputError,
    export_predictions,
    forward_batch,
    load_csv,
    load_model,
    save_model,
    write_csv,
)
from evidnet import dataio
from evidnet.dataio import PREDICTIONS_HEADER

from helpers import exactly, random_wide_model
from oracles import (
    previous_quotients,
    reference_load_csv,
    reference_predictions_text,
    reference_write_csv,
)
from test_model import three_class_model, tiny_model


# dataset container

def test_feature_dataset_properties():
    ds = FeatureDataset(
        features=np.zeros((3, 2)),
        labels=[0, None, 1],
        class_names=("positive", "negative"),
    )
    assert ds.n == 3
    assert ds.d_in == 2
    assert sum(lab is not None for lab in ds.labels) == 2
    assert not ds.fully_labeled()
    assert FeatureDataset(np.zeros((1, 2)), [1], ("a", "b")).fully_labeled()


def test_feature_dataset_validation():
    with pytest.raises(DimensionMismatchError):
        FeatureDataset(np.zeros(3), [0, 0, 0], ("a", "b"))
    with pytest.raises(NonFiniteInputError):
        FeatureDataset(np.array([[np.nan]]), [0], ("a", "b"))
    with pytest.raises(DimensionMismatchError, match="^1 labels for 2 rows$"):
        FeatureDataset(np.zeros((2, 1)), [0], ("a", "b"))
    for bad in (2, -1, 0.5, 1.5, 1.0, True, False):
        with pytest.raises(ValueError):
            FeatureDataset(np.zeros((1, 1)), [bad], ("a", "b"))
    with pytest.raises(ValueError):  # bool is an Integral, but not a class index
        FeatureDataset(np.zeros((2, 1)), [True, None], ("a", "b"))
    for bad in (np.int64(2), np.int64(-1), np.True_, np.float64(1.0)):
        with pytest.raises(ValueError):
            FeatureDataset(np.zeros((1, 1)), [bad], ("a", "b"))
    # any other Integral in range is a class index
    ds = FeatureDataset(np.zeros((3, 1)), [np.int64(1), np.uint8(0), None], ("a", "b"))
    assert ds.labels == [1, 0, None]
    # write_csv could not write either of these so that load_csv reads it
    # back: a repeated name would merge two classes' labels, and a file of
    # no feature column has no valid header
    with pytest.raises(ValueError, match=exactly("class names must be distinct, got ('a', 'a')")):
        FeatureDataset(np.zeros((2, 1)), [0, 1], ("a", "a"))
    with pytest.raises(DimensionMismatchError,
                       match="^features must have at least one column$"):
        FeatureDataset(np.zeros((3, 0)), [0, 1, None], ("a", "b"))


# csv parsing

def test_load_csv_infers_names_in_first_appearance_order(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,f1,label\n1.5,2.0,bad\n0.25,-1.0,good\n3.0,4.0,bad\n")
    ds = load_csv(p)
    assert ds.class_names == ("bad", "good")
    assert ds.labels == [0, 1, 0]
    assert np.array_equal(ds.features, [[1.5, 2.0], [0.25, -1.0], [3.0, 4.0]])


def test_load_csv_unlabeled_marker(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,label\n1.0,?\n2.0,yes\n")
    ds = load_csv(p)
    assert ds.labels == [None, 0]
    assert ds.class_names == ("yes",)
    assert sum(lab is not None for lab in ds.labels) == 1


def test_load_csv_with_fixed_names(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,label\n1.0,good\n2.0,?\n")
    ds = load_csv(p, class_names=("bad", "good"))
    assert ds.class_names == ("bad", "good")
    assert ds.labels == [1, None]
    p2 = tmp_path / "bad.csv"
    p2.write_text("f0,label\n1.0,ugly\n")
    with pytest.raises(MalformedCsvError,
                       match=exactly(f"{p2}: row 1: label 'ugly' not among ('bad', 'good')")):
        load_csv(p2, class_names=("bad", "good"))


def test_load_csv_header_validation(tmp_path):
    cases = [
        "g0,label\n",  # wrong feature name
        "f1,f0,label\n",  # wrong order
        "f0,f1\n",  # no label column
        "label\n",  # no features
        "f0,f1,label,extra\n",  # trailing junk
    ]
    for i, text in enumerate(cases):
        p = tmp_path / f"h{i}.csv"
        p.write_text(text + "1.0,2.0,x\n" if text.count(",") == 2 else text)
        want = f"{p}: header must be f0,...,f{{d-1}},label, got {text.strip()}"
        with pytest.raises(MalformedCsvError, match=exactly(want)):
            load_csv(p)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(MalformedCsvError, match=exactly(f"{empty}: no content")):
        load_csv(empty)


def test_load_csv_header_only_gives_empty_dataset(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,f1,f2,label\n")
    ds = load_csv(p)
    assert ds.n == 0
    assert ds.d_in == 3
    assert ds.class_names == ()


def test_load_csv_row_errors_cite_one_based_rows(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("f0,f1,label\n1.0,2.0,a\n1.0,b\n")
    with pytest.raises(MalformedCsvError,
                       match=exactly(f"{ragged}: row 2 has 2 cells, expected 3")):
        load_csv(ragged)
    alpha = tmp_path / "a.csv"
    alpha.write_text("f0,f1,label\n1.0,abc,a\n")
    with pytest.raises(MalformedCsvError, match=exactly(f"{alpha}: row 1, column f1: 'abc'")):
        load_csv(alpha)
    nonfinite = tmp_path / "n.csv"
    nonfinite.write_text("f0,f1,label\n1.0,nan,a\n")
    with pytest.raises(MalformedCsvError,
                       match=exactly(f"{nonfinite}: row 1, column f1: non-finite value 'nan'")):
        load_csv(nonfinite)
    inf = tmp_path / "i.csv"
    inf.write_text("f0,f1,label\ninf,1.0,a\n")
    with pytest.raises(MalformedCsvError,
                       match=exactly(f"{inf}: row 1, column f0: non-finite value 'inf'")):
        load_csv(inf)


NAMES = ("a", "b", "c")
# labels that only a quoted cell can hold: a comma, a doubled quote, a newline
QUOTED_NAMES = ("x,y", 'x"y', "x\ny")
# labels written bare that hold a NUL or an information separator
ODD_NAMES = ("x\x00y", "x\x1cy")
# numbers float() reads: with an underscore or non-ASCII digits, which
# numpy's reader refuses, and with whitespace outside ASCII, which it reads
NUMBER_CELLS = st.one_of(
    st.sampled_from(
        ["-0.0", "0", "42", "-7", "1e-300", "5e-324", "1.7e308", "-1.7e308",
         " 1.5", "2.5 ", " -3 ", "+.5", "1_000", "1E5",
         "\uff11", "\u0661\u0662", "\xa01", "1\u2028", "\x851"]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10 ** 20), 10 ** 20).map(str),
)
# "\x1c1.5" and "1.5\x1f" are numbers to numpy's reader, which takes the
# separators U+001C to U+001F as whitespace, and not to float()
NON_NUMERIC_CELLS = st.sampled_from(["abc", "", "1.0.0", "0x10", "--1", "1e", "1\x00", 'x"y',
                                     "\x1c1.5", "1.5\x1f", " ", "\t"])
NON_FINITE_CELLS = st.sampled_from(["nan", "inf", "-inf", "NaN", " Infinity", "1e999"])
FUZZ_SETTINGS = settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def file_layouts(draw, n_rows, d):
    """How a file's rows are written: the line end, whether the last line
    ends, and which cells are quoted. Quoted cells start at a drawn row, so
    the rows before it are plain; a cell that needs quotes is quoted
    wherever it is. No row is followed by a blank line."""
    quote_from = draw(st.integers(0, n_rows))
    cells = [(i, j) for i in range(quote_from, n_rows) for j in range(d + 1)]
    return {
        "eol": draw(st.sampled_from(["\n", "\r\n", "\r"])),
        "final_eol": draw(st.booleans()),
        "blank_after": {},
        "quoted": set(draw(st.lists(st.sampled_from(cells), max_size=6))) if cells else set(),
        "quote_from": quote_from,
    }


@st.composite
def feature_files(draw, min_rows=0):
    """(d, rows, class_names, layout) of a valid feature file; rows end in
    the label. Rows from the layout's quote_from on may carry labels that
    need quotes, when the class names allow them."""
    d = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(NUMBER_CELLS, min_size=d, max_size=d), st.sampled_from(NAMES + ("?",))
    )
    rows = draw(st.lists(row, min_size=min_rows, max_size=8))
    names = draw(
        st.none()
        | st.permutations(NAMES)
        | st.permutations(NAMES + ("d",))
        | st.permutations(NAMES + QUOTED_NAMES)
        | st.permutations(NAMES + ODD_NAMES)
    )
    rows = [cells + [label] for cells, label in rows]
    layout = draw(file_layouts(len(rows), d))
    if names is None or QUOTED_NAMES[0] in names:
        for i in range(layout["quote_from"], len(rows)):
            if draw(st.booleans()):
                rows[i][d] = draw(st.sampled_from(QUOTED_NAMES))
    if names is None or ODD_NAMES[0] in names:
        for row in rows:
            if draw(st.booleans()):
                row[d] = draw(st.sampled_from(ODD_NAMES))
    return d, rows, names, layout


@st.composite
def faulty_feature_files(draw):
    """A feature file with faults injected into one or more distinct rows.

    A faulty row is either ragged, or has one or more bad feature cells
    and/or an unknown label, or a cell holding a byte that is not UTF-8
    (written from the lone surrogate that decodes it); an unknown label
    forces fixed class names.
    A blank line, a row of no cells, or a line of whitespace, a row of one
    cell, may follow any row. A last row with a cell longer than csv's
    field limit may follow them all: the earlier faulty row is reported.
    """
    d, rows, names, layout = draw(feature_files(min_rows=1))
    layout["blank_after"] = draw(st.dictionaries(st.integers(0, len(rows) - 1),
                                                 st.sampled_from(["", " ", "\t", "  "]),
                                                 max_size=2))
    targets = draw(
        st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3, unique=True)
    )
    for i in targets:
        row = rows[i]
        if draw(st.booleans()):
            if draw(st.booleans()):
                del row[draw(st.integers(0, d))]
            else:
                row.insert(draw(st.integers(0, d)), draw(NUMBER_CELLS))
            continue
        kinds = st.sampled_from(["non_numeric", "non_finite", "label", "not_utf8"])
        faults = draw(st.lists(kinds, min_size=1, max_size=3))
        for fault in faults:
            if fault == "label":
                row[d] = "zzz"
                names = names or NAMES
            elif fault == "not_utf8":
                j = draw(st.integers(0, d))
                row[j] = row[j][:1] + draw(st.sampled_from(["\udcff", "\udcc3", "\udce2\udc82"]))
            else:
                cells = NON_NUMERIC_CELLS if fault == "non_numeric" else NON_FINITE_CELLS
                row[draw(st.integers(0, d - 1))] = draw(cells)
    if draw(st.booleans()):
        long_row = ["1.5"] * d + ["a"]
        long_row[draw(st.integers(0, d))] = "y" * (csv.field_size_limit() + 1)
        rows.append(long_row)
    return d, rows, names, layout


PLAIN = {"eol": "\n", "final_eol": True, "blank_after": {}, "quoted": set(),
         "quote_from": 0}


def _write_feature_file(path, d, rows, layout=PLAIN):
    def cell(i, j, text):
        if (i, j) in layout["quoted"] or any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join([f"f{j}" for j in range(d)] + ["label"])]
    for i, cells in enumerate(rows):
        lines.append(",".join(cell(i, j, text) for j, text in enumerate(cells)))
        if i in layout["blank_after"]:
            lines.append(layout["blank_after"][i])
    text = layout["eol"].join(lines) + (layout["eol"] if layout["final_eol"] else "")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


@FUZZ_SETTINGS
@given(feature_files())
@example((2, [["1.7e308", "1.7e308", "a"], ["-1.7e308", "-1.7e308", "?"]], None, PLAIN))
@example((1, [["1", "a"], ["2", "x,y"], ["3", 'x"y'], ["4", "x\ny"]], None,
          {**PLAIN, "quote_from": 1, "final_eol": False}))
@example((2, [["\uff11", "\u0661\u0662", "a"], ["\xa01", "1\u2028", "?"], ["\x851", "1_000", "b"]],
          NAMES, PLAIN))
@example((1, [["1.5", "x\x00y"], ["2.5", "x\x1cy"], ["-0.0", "x\x00y"]], None, PLAIN))
def test_load_csv_matches_reference_on_valid_files(tmp_path, file):
    d, rows, names, layout = file
    p = tmp_path / "fuzz.csv"
    _write_feature_file(p, d, rows, layout)
    features, labels, class_names = reference_load_csv(p, class_names=names)
    ds = load_csv(p, class_names=names)
    assert ds.features.shape == features.shape
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels == labels
    assert ds.class_names == class_names


@FUZZ_SETTINGS
@given(faulty_feature_files())
@example((2, [["1.7e308", "1.7e308", "a"], ["1.0", "nan", "zzz"]], NAMES, PLAIN))
@example((1, [["1", "a"], ["2", "b"]], None, {**PLAIN, "blank_after": {0: ""}}))
@example((1, [["1", "a"], ["2", "b"]], None, {**PLAIN, "blank_after": {1: " "}}))
@example((2, [["1", "2", "a"], ["\x1c1.5", "2", "b"]], None, PLAIN))
@example((2, [["1", "1.5\x1f", "a"], ["1", "2", "b"]], None, PLAIN))
@example((1, [["1\x00", "a"]], None, PLAIN))
@example((1, [["1", "a"], ["2", "x\x1cy"]], NAMES, PLAIN))
@example((1, [["abc", "a"], ["1", "y" * 200_000]], None, PLAIN))
def test_load_csv_matches_reference_on_faulty_files(tmp_path, file):
    d, rows, names, layout = file
    p = tmp_path / "fuzz.csv"
    _write_feature_file(p, d, rows, layout)
    with pytest.raises(Exception) as expected:
        reference_load_csv(p, class_names=names)
    with pytest.raises(expected.type) as got:
        load_csv(p, class_names=names)
    assert got.type is expected.type
    assert str(got.value) == str(expected.value)


def _spy(monkeypatch, owner, name):
    """Count the calls of owner.name, which still runs."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


# characters that send a file to the row walk: csv.reader's quote and CR
WALK_CHARS = ('"', "\r")
# information separators, which float() refuses and a class name may hold
SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def test_plain_files_take_one_fast_pass_and_the_rest_the_walk(tmp_path, monkeypatch):
    plain = _spy(monkeypatch, dataio, "_load_plain")
    walk = _spy(monkeypatch, dataio, "_walk")
    check_cells = _spy(monkeypatch, dataio, "_check_cells")
    feats = np.random.default_rng(14).standard_normal((40, 3))
    feats[5] = [1.7e308, 1.7e308, -0.0]  # a sum that overflows sends a walked row to _check_cells
    labels = [None if i % 3 == 0 else i % 2 for i in range(40)]
    ds = FeatureDataset(feats, labels, ("positive", "negative"))
    p = tmp_path / "plain.csv"
    write_csv(ds, p)
    back = load_csv(p, class_names=ds.class_names)
    assert back.features.tobytes() == feats.tobytes() and back.labels == labels
    assert (plain, walk, check_cells) == (["_load_plain"], [], [])
    # the walk on the same file does reach _check_cells
    with open(p, newline="", encoding="utf-8") as fh:
        dataio._walk(fh, p, ds.class_names)
    assert check_cells == ["_check_cells"]

    for char in WALK_CHARS + SEPARATORS:
        plain.clear()
        walk.clear()
        names = (f"x{char}y", "negative")
        write_csv(dataclasses.replace(ds, class_names=names), p)
        back = load_csv(p, class_names=names)
        assert back.features.tobytes() == feats.tobytes() and back.labels == labels
        assert len(plain) == 1 and len(walk) == (char in WALK_CHARS), repr(char)
    for char in SEPARATORS:  # float() refuses them before a number
        walk.clear()
        p.write_text(f"f0,label\n1.5,a\n{char}2.5,a\n", encoding="utf-8")
        with pytest.raises(MalformedCsvError,
                           match=exactly(f"{p}: row 2, column f0: {char + '2.5'!r}")):
            load_csv(p)
        assert walk == ["_walk"]

    walk.clear()
    p.write_text("f0,f1,label\n")
    assert load_csv(p).features.shape == (0, 2)
    assert walk == ["_walk"]


def test_late_anomaly_is_walked_from_its_chunk_on(tmp_path, monkeypatch):
    walked = []
    records = dataio._records

    def counted(*args, **kwargs):
        for row in records(*args, **kwargs):
            walked.append(list(row))  # the walk pops the label
            yield row

    monkeypatch.setattr(dataio, "_records", counted)
    labels = [None if i % 3 == 0 else i % 2 for i in range(5000)]
    ds = FeatureDataset(np.random.default_rng(15).standard_normal((5000, 16)), labels,
                        ("positive", "negative"))
    p = tmp_path / "late.csv"
    write_csv(ds, p)
    text = p.read_bytes()
    cut = text.rfind(b",") + 1
    p.write_bytes(text[:cut] + b'"' + text[cut:-1] + b'"\n')  # the last label quoted
    features, labels, class_names = reference_load_csv(p, class_names=ds.class_names)
    back = load_csv(p, class_names=ds.class_names)
    assert back.features.tobytes() == features.tobytes() == ds.features.tobytes()
    assert back.labels == labels == ds.labels and back.class_names == class_names
    # the walk reads the rows of the last chunk only, and the header not at all
    shortest = min(map(len, text.split(b"\n")[1:-1]))
    assert 1 <= len(walked) <= dataio.CHUNK_BYTES // shortest + 1
    assert walked[0][0] != "f0" and walked[-1][-1] == ds.class_names[labels[-1]]


# mantissa widths of the pass's wide type: the double, and this host's
# long double where it is wider
WIDTHS = sorted({53, dataio._WIDE_BITS})


@contextlib.contextmanager
def _wide_type(bits):
    """dataio's decimal pass run through the wide type of a bits-bit
    mantissa, as on a host whose long double has that width."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in dataio._wide_constants(bits).items():
            mp.setattr(dataio, name, value)
        yield


def _decimal(cells):
    """dataio's exact decimal pass over cells: their values, and the mask
    of cells whose value it gives."""
    text = dataio._PAD + ",".join(cells).encode("utf-8") + b"," + bytes(8)
    ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord(","))
    starts = np.concatenate(([dataio._WINDOW], ends[:-1] + 1))
    return dataio._decimal_cells(text, starts, ends)


def _bits_to_double(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64).item()


FINITE_DOUBLES = st.integers(0, 2 ** 64 - 1).map(_bits_to_double).filter(math.isfinite)


def _midpoint_near(x, digits):
    """The midpoint between x and the next double, rounded to digits
    significant digits: its long-double quotient may land on the midpoint."""
    mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
    return format(mid, f".{digits - 1}e")


def _one_unit_off(cell, step):
    """cell with its last mantissa digit moved by step units, carries included."""
    mantissa, _, exponent = cell.partition("e")
    frac = len(mantissa) - mantissa.index(".") - 1 if "." in mantissa else 0
    moved = str(int(mantissa.replace(".", "")) + step).rjust(frac + 1, "0")
    moved = f"{moved[:len(moved) - frac]}.{moved[len(moved) - frac:]}" if frac else moved
    return moved + (f"e{exponent}" if exponent else "")


DECIMAL_CELLS = st.one_of(
    FINITE_DOUBLES.map(repr),
    FINITE_DOUBLES.map(lambda x: "%.17g" % x),
    FINITE_DOUBLES.map(lambda x: "%.18e" % x),
    st.floats(-1e6, 1e6).map(lambda x: "%.3f" % x),
    st.integers(10 ** 18, 10 ** 20).map(str),  # 19 to 21 digits
    st.tuples(st.integers(1, 10 ** 19), st.integers(0, 25)).map(
        lambda t: "0." + "0" * t[1] + str(t[0])),
    st.tuples(st.floats(1e-5, 1e15), st.sampled_from([17, 18, 19]), st.sampled_from([-1, 0, 1]))
    .map(lambda t: _one_unit_off(_midpoint_near(*t[:2]), t[2])),
    st.sampled_from(["0", "-0.0", "5.", ".5", "+1", "-.5", "1e5", "1E-05", "00012.50"]),
)
# cells whose long-double quotient lands exactly on a midpoint between two
# doubles while their value lies to one side: a second rounding errs
DOUBLE_ROUNDING = ["1.655784709746200889e+2", "1.725559502566830610e-5",
                   "5.88177674309736949e+3", "5.127203936955033393e-5",
                   "7.572756427665779756e-5", "1.489735837626619786e+8"]
# integers halfway between two doubles, and their neighbours
MIDPOINTS = ["9007199254740993", "9007199254740992", "9007199254740994",
             "100000000000000008", "100000000000000007", "100000000000000009",
             "9.007199254740993e15", "90071992547409.93e2", "1000000000000000.08e2"]


@settings(deadline=None, max_examples=300)
@given(st.lists(DECIMAL_CELLS, min_size=1, max_size=30))
@example(DOUBLE_ROUNDING + MIDPOINTS)
@example([_one_unit_off(cell, step) for cell in DOUBLE_ROUNDING for step in (-1, 1)])
@example(["5e-324", "-2.2250738585072014e-308", "1.7976931348623157e+308", "1.7e308",
          "0.000123456789012345678", "1234567890123456789", "12345678901234567890",
          "-0.0", "0", "5.", ".5", "+1"])
def test_decimal_pass_gives_float_bit_for_bit(cells):
    for bits in WIDTHS:
        with _wide_type(bits):
            values, exact = _decimal(cells)
        for cell, value, taken in zip(cells, values.tolist(), exact.tolist()):
            if taken:
                want = np.float64(float(cell)).tobytes()
                assert np.float64(value).tobytes() == want, (bits, cell)


def test_decimal_pass_takes_plain_cells_and_leaves_the_rest():
    taken = ["0", "-0.0", "5.", ".5", "-.5", "1.5", repr(0.1), "%.3f" % 2.5, "1e5", "1E-05",
             "-2.5e+10", "9007199254740992", "9.007199254740992e15", "1e-22", "1e22"]
    # taken where M up to 10**19 and 10**27 are exact in the wide type
    wide = ["%.18e" % 0.1, "%.18e" % -7e-9, repr(-1.2345678901234567e-05),
            "0.000123456789012345678", "1234567890123456789", "100000000000000007",
            "100000000000000009", "1e-23", "3e23", "1e-27", "1e27"]
    left = ["+1", " 2.5", "2.5 ", "1_000", "１", "inf", "nan", "", "-", ".", "e5",
            "1e", "1e+", "1.2.3", "1e5e5", "--1", "1-", "1e1234", "1.5e-5.5",
            "12345678901234567890", "9007199254740993", "100000000000000008",
            "1e-28", "1e28", "5e-324", "1.7e308", "0" * 30 + "1"] + DOUBLE_ROUNDING
    for bits in WIDTHS:
        with _wide_type(bits):
            values, exact = _decimal(taken + wide + left)
        long_double = bits > 53
        assert exact.tolist() == ([True] * len(taken) + [long_double] * len(wide)
                                  + [False] * len(left))
        n = len(taken) + len(wide) * long_double
        assert values[:n].tobytes() == np.array([float(c) for c in (taken + wide)[:n]]).tobytes()


def _same_constants(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):  # a long double's padding bytes are arbitrary
            assert got[name].dtype == value.dtype and (got[name] == value).all(), name
        else:
            assert got[name] == value, name


def _module_constants():
    return {name: getattr(dataio, name) for name in dataio._wide_constants(53)}


def test_wide_type_swaps_every_wide_constant():
    # the module's constants are the host's, and _wide_type swaps each one
    _same_constants(_module_constants(), dataio._wide_constants(dataio._LONG_BITS))
    for bits in WIDTHS:
        with _wide_type(bits):
            _same_constants(_module_constants(), dataio._wide_constants(bits))
    # an x87 or binary128 long double keeps its last significand bits in
    # a word the probe finds
    assert (dataio._MIDPOINT_WORD is not None) == (dataio._LONG_BITS in (64, 113))


def test_decimal_pass_without_a_midpoint_word_runs_on_doubles(monkeypatch):
    # where the probe finds no word, the pass takes the double's path, and
    # its values are still float()'s
    monkeypatch.setattr(dataio, "_midpoint_word", lambda below: None)
    _same_constants(dataio._wide_constants(dataio._LONG_BITS), dataio._wide_constants(53))
    test_decimal_pass_gives_float_bit_for_bit()


# the pass's quotients M / 10**f lie in [10**-f, 2**64 * 10**f] for the
# host's largest scale f, where a double holds 53 bits
_SCALE = dataio._wide_constants(dataio._LONG_BITS)["_MAX_SCALE"]
PASS_QUOTIENTS = st.integers(*(int(np.float64(v).view(np.uint64))
                               for v in (10.0 ** -_SCALE, 2.0 ** 64 * 10.0 ** _SCALE)))


def _wide_midpoints(bits):
    """The exact midpoints (x + next(x)) / 2 of the doubles of bit patterns
    bits, in the long double, then their neighbours one long-double ulp
    below and above."""
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    mid = x.astype(np.longdouble)
    mid += np.nextafter(x, np.inf)
    mid /= 2
    return np.concatenate([mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)])


@settings(deadline=None, max_examples=200)
@given(st.lists(PASS_QUOTIENTS, min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(-30, 30), st.booleans()),
                min_size=1, max_size=40))
@example([int(np.float64(v).view(np.uint64)) for v in (1.0, 2.0 ** 53, 0.1, 1e46, 1e-27)],
         [(2 ** 53 + 1, 0, True), (2 ** 64 - 1, 0, True), (10 ** 19 - 1, 27, True),
          (1, -27, True), (1, 28, True), (3, 0, False)])
def test_quotients_flag_the_midpoints_the_previous_arithmetic_flagged(quotients, pairs):
    # mantissas of the long double with scale 0 are the wide quotients
    # themselves: exact midpoints between two doubles and their neighbours
    wide = _wide_midpoints(quotients)
    mantissa, scale, ok = (np.array(column, dtype=dtype)
                           for column, dtype in zip(zip(*pairs), (np.uint64, np.int64, bool)))
    cases = [(wide, np.zeros(wide.size, dtype=np.int64), np.ones(wide.size, dtype=bool)),
             (mantissa, scale, ok)]
    for bits in WIDTHS:
        masks = []
        with _wide_type(bits):
            for m, f, before in cases:
                ok_now, ok_then = before.copy(), before.copy()
                x = dataio._quotients(m, f.copy(), ok_now)
                assert x.tobytes() == previous_quotients(m, f.copy(), ok_then).tobytes(), bits
                assert ok_now.tobytes() == ok_then.tobytes(), bits
                masks.append(ok_now)
        # where the long double is wider, the midpoints and none of their
        # neighbours are flagged
        n = len(quotients)
        assert masks[0].tolist() == [bits == 53] * n + [True] * 2 * n, bits


# doubles of every decade the repr pass decides on this host: x * 10**s in
# [10**16, 10**17) for |s| within the largest scale
WRITER_DECADES = st.integers(17 - _SCALE, 13 + _SCALE).flatmap(
    lambda e: st.integers(*(int(np.float64(10.0 ** k).view(np.uint64)) for k in (e, e + 1))))


@pytest.mark.skipif(dataio._WIDE_BITS == 53,
                    reason="where the long double is the double, every value goes to repr")
@settings(deadline=None, max_examples=300)
@given(st.lists(WRITER_DECADES.map(_bits_to_double), min_size=1, max_size=60))
@example([0.1 + 0.2, 1 / 3, 2 / 3, 1e-10, 9.999999999999999e40, 2.0 ** 100, 123456789.12345678])
def test_17_digit_candidates_taken_unread_read_back(values):
    # a decided value whose digits end in a nonzero digit took the 17-digit
    # candidate without a read-back; the writer's previous read-back, through
    # the previous midpoint test, accepts it
    x = np.array(values + [-v for v in values])
    digits, decpt, decided = dataio._shortest_digits(x)
    took17 = decided & (digits % 10 != 0)
    ok = np.ones(np.count_nonzero(took17), dtype=bool)
    read = previous_quotients(digits[took17], 17 - decpt[took17], ok)
    assert ok.all() and (read == np.abs(x[took17])).all()


def _printed(values):
    """dataio's repr pass over values, as a column: one bytes per value."""
    return dataio._float_lines(np.array(values, dtype=float).reshape(-1, 1)).split(b"\n")[:-1]


def _stepped(x, steps):
    """The double steps doubles away from x."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


# doubles one of whose candidates has a long-double quotient exactly on a
# midpoint between two doubles: without the midpoint guard the pass keeps a
# candidate that reads back as the neighbour, and misprints them
GUARDED_MIDPOINTS = [6694143.01064855, 0.009269667908932029, 7.2307697686779,
                     0.0288482612064255, 3386.86703311622, 0.12900064012933599,
                     5.76838932871183e-05, 9511606.704899989]
# doubles whose scaled value x * 10**s, rounded once in long double, lies
# within its error bound of halfway between two 17-digit integers: without
# the tie guard the pass may round them the wrong way
NEAR_TIES = [3620564.4333463633, 0.0027186434465799407, -1.2697932106160427e+23,
             3.4078869064949885e+27]
REPR_SOURCES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_bits_to_double),  # every exponent, subnormals, nan, inf
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.nan]),
    st.integers(-2 ** 53, 2 ** 53).map(float),
    st.integers(-2 ** 80, 2 ** 80).map(float),
    st.integers(-1074, 1023).map(lambda k: 2.0 ** k),
    st.integers(-40, 140).map(lambda k: 2.0 ** k),  # the gap below is half the gap above
    # 10**k and its neighbours; repr switches to an exponent below 1e-4 and from 1e16 on
    st.tuples(st.integers(-30, 45), st.integers(-3, 3))
    .map(lambda t: _stepped(float(f"1e{t[0]}"), t[1])),
    st.tuples(st.sampled_from([1e-4, 1e16]), st.integers(-40, 40)).map(lambda t: _stepped(*t)),
    # values whose repr has 1 to 17 digits
    st.tuples(st.integers(1, 17), st.integers(1, 10 ** 17 - 1), st.integers(-30, 30))
    .map(lambda t: float(f"{t[1] % 10 ** t[0]}e{t[2]}")),
    st.tuples(st.floats(1e-12, 1e40), st.integers(1, 17))
    .map(lambda t: float(f"{t[0]:.{t[1] - 1}e}")),
    # near a tie: halfway between two 17-digit decimals, exactly halfway
    # between two 16-digit ones, or halfway between two doubles
    st.tuples(st.integers(10 ** 16, 10 ** 17 - 1), st.integers(-40, 20))
    .map(lambda t: float(f"{t[0]}5e{t[1]}")),
    st.integers(2, 6).flatmap(  # 17 - j digits, then j after the point, the last a 5
        lambda j: st.integers(10 ** (16 - j) * 2 ** (j - 1), 10 ** (17 - j) * 2 ** (j - 1) - 1)
        .map(lambda m: (2 * m + 1) / 2 ** j)),
    st.tuples(FINITE_DOUBLES, st.sampled_from([15, 16, 17]), st.integers(-1, 1))
    .map(lambda t: _stepped(float(_midpoint_near(t[0], t[1])), t[2])),
    st.sampled_from(GUARDED_MIDPOINTS + NEAR_TIES),
)
REPR_VALUES = st.tuples(REPR_SOURCES, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@settings(deadline=None, max_examples=300)
@given(st.lists(REPR_VALUES, min_size=1, max_size=40))
@example(GUARDED_MIDPOINTS + NEAR_TIES + [
    math.nan, -math.inf, 0.5, 0.125, -0.0, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
    1e23, 1e22, 2.0 ** -1022, 2.0 ** 89, 2.0 ** 122, 628118714294326.8, 585343579402.8438])
def test_repr_pass_writes_repr_bytes(values):
    for bits in WIDTHS:
        with _wide_type(bits):
            printed = _printed(values)
        for value, text in zip(values, printed, strict=True):
            assert text == repr(value).encode(), (bits, value)


@pytest.mark.skipif(dataio._WIDE_BITS == 53,
                    reason="where the long double is the double, every value goes to repr")
def test_repr_pass_decides_nearly_every_value():
    x = np.random.default_rng(8).standard_normal((400, 128)) * 8
    _, _, decided = dataio._shortest_digits(x.ravel())
    assert decided.mean() >= 0.97
    # what it decides without repr: short values too
    _, _, decided = dataio._shortest_digits(np.array([0.5, 0.125, -0.0, 1.0, 0.1, 1e-4, 1e16]))
    assert decided.all()


def test_unreadable_csv_names_the_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"f0,label\n1,\xff\n")
    with pytest.raises(MalformedCsvError, match="bad.csv: not valid UTF-8"):
        load_csv(bad)
    # csv's field size limit binds on every record, quoted or not
    long_label = "y" * 200_000
    for cell in (f'"{long_label}"', long_label):
        bad.write_text(f"f0,label\n1,{cell}\n")
        with pytest.raises(MalformedCsvError, match="bad.csv: field larger than field limit"):
            load_csv(bad)


def test_bad_utf8_is_refused_at_its_row(tmp_path):
    # a faulty row before bad UTF-8 in the same read block is the one named
    p = tmp_path / "late.csv"
    p.write_bytes(b"f0,f1,label\n1.0,2.0,a\n1.0,abc,a\n" + b"1.0,2.0,a\n" * 50
                  + b"1.0,2.0,\xff\n")
    with pytest.raises(MalformedCsvError, match=exactly(f"{p}: row 2, column f1: 'abc'")):
        load_csv(p)
    p.write_bytes(b"f0,f1,label\n1.0,2.0,a\n" + b"1.0,2.0,a\n" * 50 + b"1.0,\xc3,a\n")
    with pytest.raises(MalformedCsvError, match="late.csv: not valid UTF-8 in row 52$"):
        load_csv(p)
    p.write_bytes(b"f0,f\xff1,label\n1.0,2.0,a\n")
    with pytest.raises(MalformedCsvError, match="not valid UTF-8 in the header$"):
        load_csv(p)
    # a quoted record spanning lines is one row
    p.write_bytes(b'f0,label\r\n1.0,"x\r\ny"\r\n2.0,"\xe2\x82\r\n"\r\n')
    with pytest.raises(MalformedCsvError, match="not valid UTF-8 in row 2$"):
        load_csv(p)


def test_field_limit_binds_on_every_record_the_walk_reads(tmp_path):
    long_label = "y" * 200_000
    p = tmp_path / "long.csv"
    plain = f"f0,label\n1,{long_label}\n2,{long_label}\n"
    p.write_text(plain + '3,"b"\n')  # the quote on the last row sends the file to the walk
    with pytest.raises(MalformedCsvError, match="long.csv: field larger than field limit"):
        load_csv(p)
    p.write_text(plain)
    with pytest.raises(MalformedCsvError, match="long.csv: field larger than field limit"):
        load_csv(p)
    p.write_text(f"f0,{long_label}\n1,a\n")  # an oversized header name
    with pytest.raises(MalformedCsvError, match="long.csv: field larger than field limit"):
        load_csv(p)


def test_long_cell_reads_the_same_whatever_follows(tmp_path):
    # a cell past the field size limit is refused, and one past it in bytes
    # but not in characters loaded, whether or not a quote far below sends
    # a later chunk to the walk
    p = tmp_path / "long.csv"
    rows = "".join(f"{i}.5,a\n" for i in range(20_000))
    for tail in ("", '3,"a"\n'):
        p.write_text(f"f0,label\n1,{'y' * 200_000}\n{rows}{tail}", encoding="utf-8")
        with pytest.raises(MalformedCsvError) as expected:
            reference_load_csv(p)
        with pytest.raises(MalformedCsvError) as got:
            load_csv(p)
        assert str(got.value) == str(expected.value)

        p.write_text(f"f0,label\n1,{'é' * 100_000}\n{rows}{tail}", encoding="utf-8")
        features, labels, class_names = reference_load_csv(p)
        ds = load_csv(p)
        with open(p, newline="", encoding="utf-8") as fh:
            _, walked, _, _ = dataio._walk(fh, p, None)
        assert ds.features.tobytes() == features.tobytes() == walked.tobytes()
        assert ds.labels == labels and ds.class_names == class_names
        assert ds.n == 20_001 + bool(tail)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((8, 3))
    feats[0, 0] = 1e-300
    feats[1, 1] = 1.7e308
    feats[2, 2] = 0.1
    feats[3, 0] = -0.0
    feats[4, 1] = 12345678901234567.0
    labels = [0, 1, None, 0, None, 1, 1, 0]
    ds = FeatureDataset(feats, labels, ("positive", "negative"))
    p = tmp_path / "round.csv"
    write_csv(ds, p)
    back = load_csv(p, class_names=ds.class_names)
    assert np.array_equal(back.features, ds.features)
    assert back.labels == ds.labels
    assert back.class_names == ds.class_names


# floats whose repr is hard to get right, and names only a quoted cell holds
EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300,
               1.7e308, -1.7e308, 12345678901234567.0, 0.1)
NAME_CHARS = st.sampled_from(["a", "b", " ", ",", '"', "\r", "\n", "?", "\u00e9"])


@st.composite
def feature_datasets(draw):
    """A FeatureDataset of up to 6 rows of d in [1, 4] finite floats, with
    up to 3 distinct class names built from plain and special characters."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    cell = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(cell, min_size=n * d, max_size=n * d))
    names = draw(st.lists(st.text(NAME_CHARS, max_size=4), max_size=3, unique=True))
    label = st.none() | st.integers(0, len(names) - 1) if names else st.none()
    labels = draw(st.lists(label, min_size=n, max_size=n))
    return FeatureDataset(np.array(values, dtype=float).reshape(n, d), labels, names)


@FUZZ_SETTINGS
@given(feature_datasets())
@example(FeatureDataset(np.array([[1e-300], [-0.0], [5e-324]]), [0, None, 1],
                        ("a,b", 'say "hi"')))
@example(FeatureDataset(np.zeros((2, 1)), [0, None], ("",)))
@example(FeatureDataset(np.zeros((2, 1)), [0, None], ("?",)))
@example(FeatureDataset(np.array([[0.5], [2.0], [5e-324]]), [0, 1, None], ("x\ry", "b")))
@example(FeatureDataset(np.array([[0.5], [2.0], [5e-324]]), [0, 1, None], ("\r", "a,b")))
@example(FeatureDataset(np.array([[0.5], [2.0], [5e-324]]), [0, 1, None], ("p\r\nq", "r\rs\r")))
def test_write_csv_matches_reference_writer(tmp_path, ds):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    if "?" in ds.class_names and ds.class_names.index("?") in ds.labels:
        # a row of the class "?" would read back as unlabeled
        with pytest.raises(ValueError):
            write_csv(ds, got)
        return
    write_csv(ds, got)
    reference_write_csv(ds, want)
    assert got.read_bytes() == want.read_bytes()
    # every file written reads back bit for bit
    back = load_csv(got, class_names=ds.class_names)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels == ds.labels


@pytest.mark.parametrize("d", [7, dataio._FORMAT_CELLS + 3])
def test_write_csv_matches_reference_writer_across_chunks(tmp_path, d):
    # two whole chunks of rows and a part of one, or rows longer than a
    # chunk, holding values of every layout repr has
    n = 2 * max(1, dataio._FORMAT_CELLS // d) + 3
    rng = np.random.default_rng(21)
    feats = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-9, 21, (n, d))
    feats.flat[::11] = np.round(feats.flat[::11], 2)
    feats.flat[::13] = -0.0
    labels = [None if i % 4 == 0 else i % 2 for i in range(n)]
    ds = FeatureDataset(feats, labels, ("a,b", "plain"))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(ds, got)
    reference_write_csv(ds, want)
    assert got.read_bytes() == want.read_bytes()


def test_write_csv_refuses_a_labelled_row_of_the_class_named_unlabeled(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("untouched")
    ds = FeatureDataset([[1.0], [2.0]], [0, 1], ("?", "b"))
    with pytest.raises(ValueError,
                       match=exactly("class '?' cannot be written: it marks an unlabeled row")):
        write_csv(ds, p)
    assert p.read_text() == "untouched"
    # the name alone is no fault: unlabeled rows and the other classes are
    # written, and read back under the same names
    ds = FeatureDataset([[1.0], [2.0]], [None, 1], ("?", "b"))
    write_csv(ds, p)
    assert p.read_text() == "f0,label\n1.0,?\n2.0,b\n"
    back = load_csv(p, class_names=ds.class_names)
    assert back.labels == [None, 1] and back.class_names == ("?", "b")


def test_write_csv_memory_is_flat_in_rows(tmp_path):
    rng = np.random.default_rng(13)
    labels = [None if i % 3 == 0 else i % 2 for i in range(5000)]
    ds = FeatureDataset(rng.standard_normal((5000, 128)), labels, ("positive", "negative"))
    tracemalloc.start()
    try:
        write_csv(ds, tmp_path / "big.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one row at a time; the whole matrix as Python floats would be ~20 MB
    assert peak < 2 * 2**20


def test_load_csv_memory_is_flat_in_rows(tmp_path):
    rng = np.random.default_rng(13)
    labels = [None if i % 3 == 0 else i % 2 for i in range(5000)]
    ds = FeatureDataset(rng.standard_normal((5000, 128)), labels, ("positive", "negative"))
    p = tmp_path / "big.csv"
    write_csv(ds, p)
    tracemalloc.start()
    try:
        back = load_csv(p, class_names=ds.class_names)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.features.tobytes() == ds.features.tobytes()
    # the 5 MB matrix with the file streamed; the file's 12.5 MB of text
    # held as one string would not fit under this bound
    assert peak < 8 * 2**20


def test_write_csv_failure(tmp_path):
    ds = FeatureDataset(np.zeros((1, 1)), [None], ())
    with pytest.raises(EvidnetError, match=f"^{re.escape(str(tmp_path))}: "):
        write_csv(ds, tmp_path)  # path is a directory


# model serialization

def test_model_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    for i in range(5):
        model = random_wide_model(rng)
        p = tmp_path / f"m{i}.json"
        save_model(model, p)
        back = load_model(p)
        assert back.config == model.config
        assert back.class_names == model.class_names
        assert back.theta.tobytes() == model.theta.tobytes()


def test_save_model_is_deterministic(tmp_path):
    model = random_wide_model(np.random.default_rng(10))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_model_with_training_meta(tmp_path):
    model = tiny_model()
    p = tmp_path / "m.json"
    save_model(model, p, training_meta={"seed": 7, "best_val_accuracy": 0.5})
    doc = json.loads(p.read_text())
    assert doc["training_meta"]["seed"] == 7
    back = load_model(p)
    assert np.array_equal(back.w, model.w)


def test_load_model_errors(tmp_path):
    model = tiny_model()
    good = tmp_path / "good.json"
    save_model(model, good)

    notjson = tmp_path / "x.json"
    notjson.write_text("{ not json")
    with pytest.raises(CorruptFieldError):
        load_model(notjson)
    notjson.write_bytes(b'{"format_version": "\xff"}')
    with pytest.raises(CorruptFieldError, match="x.json: not valid UTF-8"):
        load_model(notjson)

    array = tmp_path / "arr.json"
    array.write_text("[1, 2]")
    with pytest.raises(CorruptFieldError):
        load_model(array)

    doc = json.loads(good.read_text())
    doc["format_version"] = 999
    bad = tmp_path / "v.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorruptFieldError,
                       match=exactly(f"{bad}: format_version 999, supported: 1")):
        load_model(bad)

    doc = json.loads(good.read_text())
    del doc["w"]
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorruptFieldError, match="'w'"):
        load_model(bad)

    doc = json.loads(good.read_text())
    doc["config"]["r"] = 0
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorruptFieldError):
        load_model(bad)

    # sizes are JSON integers, never floats, strings or booleans
    for key, value in (("h", 2.9), ("d_in", "2"), ("r", True)):
        doc = json.loads(good.read_text())
        doc["config"][key] = value
        bad.write_text(json.dumps(doc))
        with pytest.raises(CorruptFieldError, match=f"{key} is"):
            load_model(bad)

    # a prototype list or center of the wrong size is a corrupt file too
    doc = json.loads(good.read_text())
    doc["prototypes"] = doc["prototypes"] * 2  # r says 1, file has 2
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorruptFieldError, match=exactly(f"{bad}: expected 1 prototypes, found 2")):
        load_model(bad)

    doc = json.loads(good.read_text())
    doc["prototypes"][0]["center"] = [1.0, 2.0, 3.0]  # h is 2
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorruptFieldError, match=exactly(
            f"{bad}: prototype centers have shape (1, 3), expected (r, 2)")):
        load_model(bad)

    # the faults the model itself finds are corruption naming the file too
    for field, value, message in (
            ("w", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "w has shape (2, 3), expected (2, 2)"),
            ("b", [0.0, 0.0, 0.0], "b has shape (3,), expected (2,)"),
            ("class_names", ["a", "b", "c"], "3 class names for k=2")):
        doc = json.loads(good.read_text())
        doc[field] = value
        bad.write_text(json.dumps(doc))
        with pytest.raises(CorruptFieldError, match=exactly(f"{bad}: {message}")):
            load_model(bad)
    doc = json.loads(good.read_text())
    doc["prototypes"][0]["beta"] = [0.0, 0.0]
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorruptFieldError,
                       match=exactly(f"{bad}: a prototype's beta squares sum to zero")):
        load_model(bad)

    # malformed containers are corruption too, never a raw TypeError
    for field, value in (("prototypes", [5]), ("prototypes", 5),
                         ("class_names", None), ("class_names", "pn"),
                         ("class_names", [None, None]), ("class_names", [1, 2]),
                         ("class_names", ["a", ""]), ("class_names", ["a", "a"])):
        doc = json.loads(good.read_text())
        doc[field] = value
        bad.write_text(json.dumps(doc))
        with pytest.raises(CorruptFieldError):
            load_model(bad)

    doc = json.loads(good.read_text())
    doc["w"] = [["x", "y"], ["z", "w"]]
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorruptFieldError):
        load_model(bad)

    # every parameter cell is a JSON number: never a string or a boolean,
    # even where numpy would convert it
    for field in ("w", "center", "beta", "xi", "eta"):
        for cell in ("1.5", True, False):
            doc = json.loads(good.read_text())
            if field == "w":
                doc["w"][0][0] = cell
            elif field in ("xi", "eta"):
                doc["prototypes"][0][field] = cell
            else:
                doc["prototypes"][0][field][0] = cell
            bad.write_text(json.dumps(doc))
            with pytest.raises(CorruptFieldError, match=f"bad field '{field}': holds"):
                load_model(bad)

    # an integer past the float range is corruption, not an OverflowError
    doc = json.loads(good.read_text())
    doc["b"][0] = 10**400
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorruptFieldError, match="bad field 'b'"):
        load_model(bad)

    # non-finite parameters are data corruption, not a crash
    text = good.read_text().replace("1.0", "NaN", 1)
    bad.write_text(text)
    with pytest.raises(CorruptFieldError):
        load_model(bad)


# prediction export

def test_export_predictions_worked_example(tmp_path):
    model = tiny_model()  # output masses (0.3, 0.2, 0.5), pl (0.8, 0.7)
    ds = FeatureDataset(np.zeros((1, 2)), [None], ("positive", "negative"))
    p = tmp_path / "pred.csv"
    assert export_predictions(model, ds, p) == 1
    lines = p.read_text().splitlines()
    assert lines[0] == PREDICTIONS_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "0"
    values = [float(c) for c in cells[1:6]]
    assert values == pytest.approx([0.3, 0.2, 0.5, 0.8, 0.7], abs=1e-12)
    assert cells[6] == "positive"


def test_export_predictions_vacuous_row(tmp_path):
    model = tiny_model(xi=(-40.0,))
    ds = FeatureDataset(np.ones((1, 2)), [None], ("positive", "negative"))
    p = tmp_path / "pred.csv"
    export_predictions(model, ds, p)
    cells = p.read_text().splitlines()[1].split(",")
    values = [float(c) for c in cells[1:6]]
    assert values == pytest.approx([0.0, 0.0, 1.0, 1.0, 1.0], abs=1e-12)
    assert cells[6] == "positive"  # full tie resolves to the first class


def test_export_predictions_decisions_match_plausibility(tmp_path):
    rng = np.random.default_rng(12)
    model = tiny_model(beta=((0.2, 0.8), (0.7, 0.3)), xi=(0.5, 0.5),
                       eta=(1.0, 0.5), center=((0.0, 0.0), (1.0, 1.0)))
    feats = rng.uniform(-2, 2, (20, 2))
    ds = FeatureDataset(feats, [None] * 20, ("positive", "negative"))
    p = tmp_path / "pred.csv"
    assert export_predictions(model, ds, p) == 20
    lines = p.read_text().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in lines] == list(range(20))
    for line in lines:
        cells = line.split(",")
        pl_pos, pl_neg = float(cells[4]), float(cells[5])
        want = "positive" if pl_pos >= pl_neg else "negative"
        assert cells[6] == want
        # masses are a valid assignment and pl is their partial sum
        m_pos, m_neg, m_om = (float(c) for c in cells[1:4])
        assert m_pos + m_neg + m_om == pytest.approx(1.0, abs=1e-9)
        assert pl_pos == pytest.approx(m_pos + m_om, abs=1e-15)


@pytest.mark.parametrize("names", [("a,b", 'say "hi"'), ("x\ny", "plain"), ("x\ry", "plain")])
def test_export_predictions_quotes_class_names(tmp_path, names):
    model = tiny_model(beta=((0.2, 0.8), (0.7, 0.3)), xi=(0.5, 0.5),
                       eta=(1.0, 0.5), center=((0.0, 0.0), (1.0, 1.0)))
    model = dataclasses.replace(model, class_names=names)
    feats = np.random.default_rng(12).uniform(-2, 2, (20, 2))
    p = tmp_path / "pred.csv"
    export_predictions(model, FeatureDataset(feats, [None] * 20, names), p)
    with open(p, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert ",".join(header) == PREDICTIONS_HEADER
    assert len(rows) == 20
    assert all(len(row) == 7 for row in rows)
    _, _, pl = forward_batch(model, feats)
    assert [row[6] for row in rows] == [names[0] if a >= b else names[1] for a, b in pl]
    assert {row[6] for row in rows} == set(names)
    assert (",plain\n" in p.read_text()) == ("plain" in names)  # written bare, as before


@pytest.mark.parametrize("names", [("positive", "negative"), ("a,b", 'say "hi"')])
def test_export_predictions_matches_reference_writer(tmp_path, names):
    # gamma = eta^2 overflows to inf on the third center, whose row gets NaN
    # masses; a far row is vacuous; the rows take more than one chunk
    with np.errstate(over="ignore"):
        model = tiny_model(beta=((0.2, 0.8), (0.7, 0.3), (0.5, 0.5)), xi=(0.5, 0.5, 0.0),
                           eta=(1.0, 0.5, 1e200), center=((0.0, 0.0), (1.0, 1.0), (2.0, 1.0)))
    model = dataclasses.replace(model, class_names=names)
    feats = np.random.default_rng(14).uniform(-3, 3, (dataio._FORMAT_CELLS // 5 + 7, 2))
    feats[[0, 500, -1]] = (2.0, 1.0)
    feats[3] = (1e3, 1e3)
    p = tmp_path / "pred.csv"
    with np.errstate(invalid="ignore"):
        export_predictions(model, FeatureDataset(feats, [None] * len(feats), names), p)
        want = reference_predictions_text(model, feats)
    assert p.read_bytes() == want.encode()
    assert b"\n500,nan,nan,nan,nan,nan," in p.read_bytes()


def test_export_predictions_empty_and_errors(tmp_path):
    model = tiny_model()
    empty = FeatureDataset(np.zeros((0, 2)), [], ("positive", "negative"))
    p = tmp_path / "pred.csv"
    assert export_predictions(model, empty, p) == 0
    assert p.read_text() == PREDICTIONS_HEADER + "\n"
    wrong = FeatureDataset(np.zeros((1, 3)), [None], ("positive", "negative"))
    with pytest.raises(DimensionMismatchError):
        export_predictions(model, wrong, p)
    three = FeatureDataset(np.zeros((1, 2)), [None], ("a", "b", "c"))
    with pytest.raises(EvidnetError,
                       match="^prediction export is defined for binary models, got 3 classes$"):
        export_predictions(three_class_model(), three, p)


def test_export_predictions_deterministic(tmp_path):
    model = tiny_model()
    ds = FeatureDataset(np.linspace(-1, 1, 10).reshape(5, 2), [None] * 5,
                        ("positive", "negative"))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_predictions(model, ds, p1)
    export_predictions(model, ds, p2)
    assert p1.read_bytes() == p2.read_bytes()
