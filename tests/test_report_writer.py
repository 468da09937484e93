"""writer.encode_report writes JSON directly, byte for byte as

    json.dumps(payload, sort_keys=True, indent=1).encode() + b"\\n"

would, since every golden digest and every rerun comparison reads its
bytes.  The reference below is that expression; the writer is compared with
it on the payload of every command, in every mode, and on drawn payloads
that reach each branch of json's encoder: empty and nested containers,
tuples, escapes, big ints, bools, None, special floats and non-string keys.

A list of plain scalars, or of equal-shaped rows of them, is written as a
table (writer._table); so is a writer.Rows, a table of named rows that a
report hands over as it holds it (the build report's goal log and frozen
entries), which is compared with json.dumps of its dict form
(report_reference.plain).  Tables are drawn too, with one row sometimes
broken: a broken list must take the recursive path, and a broken Rows is
refused.  The named cases below catch a table path that puts a key's % into
its template unescaped or that accepts ragged rows.  A list of dicts and a
dict of dicts, which the goal log and the frozen entries were before they
became Rows, take the recursive path; their Rows write the same bytes.
"""

from __future__ import annotations

import enum
import json
import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from cofinitary import cli, writer
from cofinitary.writer import Rows, encode_report
from report_reference import plain


def reference(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, indent=1).encode() + b"\n"


def _outcome(encode, payload):
    """The bytes, or the type of the error json rejects the payload with."""
    try:
        return encode(payload)
    except (TypeError, ValueError) as err:
        return type(err)


# -- every command's payload -----------------------------------------------

_TEMPLATE_FILES = {
    "good": {"elements": ["p", "q"], "less": [["p", "q"]], "I": [[], ["p"], ["p", "q"]],
             "L0": ["p"], "L1": ["q"]},
    "broken": {"elements": ["p", "q"], "less": [["p", "q"]], "I": [["q"]],
               "L0": ["p"], "L1": ["q"]},
}

COMMANDS = {
    **{
        f"build-{mode}": ["build-group", "--mode", mode, "--generators", "3",
                          "--points", "8", "--seed", "4"]
        for mode in ("adp", "edf", "mad")
    },
    "build-cofinitary": ["build-group", "--mode", "cofinitary", "--generators", "3",
                         "--max-word-len", "3", "--points", "8", "--seed", "4"],
    **{
        f"ffp-{mode}": ["ffp-suite", "--mode", mode, "--samples", "12", "--seed", "2"]
        for mode in ("cofinitary", "adp", "edf", "mad")
    },
    "hit-density": ["hit-density", "--generators", "3", "--words", "4", "--maxN", "10",
                    "--window", "64", "--samples", "8", "--seed", "5"],
    "suslin-hechler": ["suslin", "--poset", "hechler", "--n", "1", "--samples", "60",
                       "--seed", "3"],
    "suslin-loc-1": ["suslin", "--poset", "loc", "--n", "1", "--samples", "60", "--seed", "3"],
    "template": ["template", "--lambdas", "2,3", "--omega1", "2"],
    "template-file-good": ["template", "--template-file", "{good}"],
    "template-file-broken": ["template", "--template-file", "{broken}"],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_command_payload(name, tmp_path, monkeypatch, capsys):
    files = {}
    for key, blob in _TEMPLATE_FILES.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(blob))
    payloads = []
    write = cli._write_report

    def recording(path, payload):
        payloads.append(payload)
        write(path, payload)

    monkeypatch.setattr(cli, "_write_report", recording)
    argv = [a.format(**files) for a in COMMANDS[name]]
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) in (0, 1)
    capsys.readouterr()
    (payload,) = payloads
    assert out.read_bytes() == encode_report(payload) == reference(plain(payload))


def test_the_writer_does_not_call_json_dumps(monkeypatch):
    payload = {"b": [1, 2], "a": {"x": None, "y": [[0, 1]], "z": "w"}}
    want = reference(payload)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert encode_report(payload) == want


# -- fixed and drawn payloads -----------------------------------------------


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ()},
        [1, [2, [3, []]], {"k": (4, 5)}],
        {"s": "quote \" backslash \\ nl \n tab \t nul \x00 é   \U0001f600 \udc80"},
        [10**40, -(10**40), -1, 0, True, False, None],
        [1, True, 2],
        {"t": True, "f": False, "n": None},
        [0.0, -0.0, 1.5, 1e300, -1e-300, math.nan, math.inf, -math.inf],
        {"x": math.nan, "y": -0.0},
        {2: "two", 10: "ten", -1: "minus"},
        {1.5: "a", -0.0: "b", math.inf: "c"},
        {True: 1, False: 0},
        {None: [1]},
        [Colour.RED, {"c": Colour.RED}],
        {Name("k"): Name("v"), "j": [Name("a"), "b"]},
        OrderedDict([("z", 1), ("a", 2)]),
        "top-level string",
        7,
        None,
        2.5,
    ],
)
def test_fixed_payloads(payload):
    assert encode_report(payload) == reference(payload)


@pytest.mark.parametrize(
    "payload",
    [{1, 2}, {"a": {1}}, [frozenset()], {"a": b"bytes"}, {(1, 2): 3}, {"a": 1, 2: "b"}],
    ids=["set", "nested-set", "frozenset", "bytes", "tuple-key", "mixed-keys"],
)
def test_rejected_payloads_raise_type_error(payload):
    with pytest.raises(TypeError):
        reference(payload)
    with pytest.raises(TypeError):
        encode_report(payload)


# -- tables ---------------------------------------------------------------------

_TABLES = {
    "scalars": [3, "s", 1.5, True, None, -(10**40)],
    "pairs": [[0, 1], [2, 3], (4, 5)],
    "one-column rows": [[1], [2]],
    "goal rows": [{"goal": "domain:g0@0", "stage": 1, "witness": 0},
                  {"witness": None, "goal": "hit", "stage": 2}],
    "one-key rows": [{"k": 1}, {"k": "v"}],
    "percent keys": [{"%s": 1, "a%%b": "%s", "%": "%d", "%(x)s": 2}] * 2,
    "quote keys": [{'"': 1, 'a"b\\': 2}, {'"': 3, 'a"b\\': 4}],
    "non-ascii keys": [{"é": 1, "\U0001f600": "ü", "\n": "\u2028"}] * 3,
    "special values": [[True, None, math.nan], [False, math.inf, -math.inf],
                       [10**60, -0.0, 1e300]],
    "newline values": [["a\nb", "%s"], ["%%", "\r\n"]],
}
_NOT_TABLES = {
    "int-enum": [[Colour.RED, 1], [2, 3]],
    "int-enum scalars": [Colour.RED, 2],
    "str subclass": [{"k": Name("v")}, {"k": "w"}],
    "str subclass key": [{Name("k"): 1}, {"k": 2}],
    "ragged short": [[1, 2], [3]],
    "ragged long": [[1], [2, 3]],
    "ragged dict extra key": [{"a": 1}, {"a": 2, "b": 3}],
    "ragged dict other key": [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    "empty lists": [[], []],
    "empty dicts": [{}, {}],
    "empty row": [[1], []],
    "empty dict row": [{"a": 1}, {}],
    "list in a row": [[1, [2]], [3, [4]]],
    "dict in a row": [{"a": {}}, {"a": {}}],
    "dict and list rows": [{"a": 1}, [1]],
    "int keys": [{1: "a"}, {1: "b"}],
    "ordered dicts": [OrderedDict(a=1), OrderedDict(a=2)],
    "scalar and row": [1, [1]],
}


@pytest.mark.parametrize("rows", list(_TABLES.values()), ids=list(_TABLES))
def test_tables(rows):
    # a list of dicts takes the recursive path; its Rows, the table path,
    # writes the same bytes
    named = type(rows[0]) is dict
    assert (writer._table(rows, "\n ") is None) == named
    for payload in (rows, {"t": rows}, [rows, rows]):
        assert encode_report(payload) == reference(payload)
    if named:
        table = Rows(list(rows[0]), [tuple(map(row.__getitem__, rows[0])) for row in rows])
        for payload, same in ((table, rows), ({"t": table}, {"t": rows}), ([table, table], [rows, rows])):
            assert encode_report(payload) == reference(same)


@pytest.mark.parametrize("rows", list(_NOT_TABLES.values()), ids=list(_NOT_TABLES))
def test_lists_that_are_not_tables(rows):
    assert writer._table(rows, "\n ") is None
    for payload in (rows, {"t": rows}, [rows, rows]):
        assert encode_report(payload) == reference(payload)


_KEYED_TABLES = {
    "frozen words": {"g0": {"fix": [0, 1, 2], "hat_words": 2, "stage": 3},
                     "g0^-1 g1": {"fix": [], "hat_words": 4, "stage": 0}},
    "empty lists": {"a": {"k": []}, "b": {"k": []}},
    "one-key rows": {"a": {"k": [1]}, "b": {"k": 2}},
    "percent keys": {"%s": {"%d": [1, "%s"], "a%%b": "%", "%(x)s": 0},
                     "%%": {"%d": [], "a%%b": None, "%(x)s": [True, False]}},
    "escaped keys": {'"\n': {"\\": [1.5, math.nan], "\u00e9": True},
                     "\U0001f600": {"\\": [], "\u00e9": -0.0}},
    "special values": {"x": {"v": [10**60, -math.inf, None], "w": math.nan},
                       "y": {"v": ["a\nb", "%s", "\u2028"], "w": False}},
    "int outer keys": {1: {"a": [1]}, -2: {"a": "b"}},
    "float outer keys": {1.5: {"a": 1}, math.inf: {"a": 2}},
}
_NOT_KEYED_TABLES = {
    "int-enum cell": {"a": {"k": Colour.RED}, "b": {"k": 1}},
    "int-enum in a list": {"a": {"k": [Colour.RED, 1]}, "b": {"k": [2]}},
    "str subclass cell": {"a": {"k": Name("v")}, "b": {"k": "w"}},
    "str subclass in a list": {"a": {"k": [Name("v")]}},
    "str subclass key": {"a": {Name("k"): 1}, "b": {"k": 2}},
    "tuple cell": {"a": {"k": (1, 2)}, "b": {"k": [1, 2]}},
    "list in a list": {"a": {"k": [[1]]}},
    "dict cell": {"a": {"k": {}}, "b": {"k": {"j": 1}}},
    "ragged extra key": {"a": {"k": 1}, "b": {"k": 1, "j": 2}},
    "ragged other key": {"a": {"k": 1, "j": 2}, "b": {"k": 1, "i": 2}},
    "empty rows": {"a": {}, "b": {}},
    "empty row": {"a": {"k": 1}, "b": {}},
    "scalar value": {"a": {"k": 1}, "b": 1},
    "list value": {"a": {"k": 1}, "b": [1]},
    "int inner keys": {"a": {1: "x"}, "b": {1: "y"}},
    "ordered dict rows": {"a": OrderedDict(k=1), "b": OrderedDict(k=2)},
}


def _keyed_rows(table) -> Rows:
    """The keyed Rows of a dict of dicts, under its first row's keys."""
    fields = list(next(iter(table.values())))
    return Rows(fields, [(k, *row.values()) for k, row in table.items()], keyed=True)


@pytest.mark.parametrize("table", list(_KEYED_TABLES.values()), ids=list(_KEYED_TABLES))
def test_keyed_tables(table):
    # the dict of dicts takes the recursive path; its keyed Rows, the
    # table path, writes the same bytes when its keys are str, and else is
    # refused
    rows = _keyed_rows(table)
    for payload in (table, {"t": table}, [table, table]):
        assert encode_report(payload) == reference(payload)
    if all(type(k) is str for k in table):
        for payload in (rows, {"t": rows}, [rows, rows]):
            assert encode_report(payload) == reference(plain(payload))
    else:
        with pytest.raises(TypeError):
            encode_report(rows)


@pytest.mark.parametrize("table", list(_NOT_KEYED_TABLES.values()), ids=list(_NOT_KEYED_TABLES))
def test_dicts_that_are_not_keyed_tables(table):
    for payload in (table, {"t": table}, [table, table]):
        assert encode_report(payload) == reference(payload)


# -- Rows -----------------------------------------------------------------------

_ROWS = {
    "goal log": Rows(("goal", "stage", "witness"),
                     [("domain:g0@0", 1, 0), ("freeze:g0 g1^-1", 2, None), ("hit:g0>=3", 3, 7)]),
    "frozen entries": Rows(["stage", "fix", "hat_words"],
                           [("g1", 2, (0, 3), 2), ("g0 g1", 1, (), 4), ("g0", 3, [5], 2)],
                           keyed=True),
    "fields out of order": Rows(["z", "a", "m"], [(1, 2, 3), (4, 5, 6)]),
    "one field": Rows(["k"], [(1,), ("v",)]),
    "percent": Rows(["%s", "a%%b", "%(x)s"], [("%s", "%d", ["%", "%%"])] * 2),
    "percent keys": Rows(["%d"], [("%s", 1), ("%%", ["%s"]), ("%(x)s", None)], keyed=True),
    "escapes": Rows(['"\n', "\u00e9"], [("quote \" nl \n tab \t", "\u2028 \U0001f600"),
                                         ("\x00\x1f\x7f", ["a\nb", "\udc80"])]),
    "non-ascii keys": Rows(["\u00fc"], [("\U0001f600", 1), ("\u00e9\n", 2), ("a", 3)], keyed=True),
    "special values": Rows(["b", "f", "n"], [(True, 1.5, None), (False, math.nan, None),
                                            (None, -0.0, [math.inf, -math.inf, 10**60])]),
    "empty": Rows(["a"], []),
    "empty keyed": Rows(["a"], [], keyed=True),
    "list fields": Rows(["b", "a"], [[1, 2], [3, [4, 5]]]),
}
_REFUSED_ROWS = {
    "ragged short": (ValueError, Rows(["a", "b"], [(1, 2), (3,)])),
    "ragged long": (ValueError, Rows(["a"], [(1,), (2, 3)])),
    "ragged keyed": (ValueError, Rows(["a"], [("k", 1), ("j",)], keyed=True)),
    "empty keyed row": (ValueError, Rows(["a"], [("k", 1), ()], keyed=True)),
    "repeated key": (ValueError, Rows(["a"], [("k", 1), ("j", 2), ("k", 3)], keyed=True)),
    "repeated field": (ValueError, Rows(["a", "a"], [(1, 2)])),
    "no fields": (ValueError, Rows([], [(), ()])),
    "int key": (TypeError, Rows(["a"], [(1, 1), (2, 2)], keyed=True)),
    "str subclass key": (TypeError, Rows(["a"], [(Name("k"), 1)], keyed=True)),
    "int field": (TypeError, Rows([1], [(1,)])),
    "str subclass field": (TypeError, Rows([Name("a")], [(1,)])),
    "int-enum cell": (TypeError, Rows(["a"], [(Colour.RED,), (1,)])),
    "str subclass cell": (TypeError, Rows(["a"], [("v",), (Name("w"),)])),
    "int-enum in a list": (TypeError, Rows(["a"], [([1, Colour.RED],)])),
    "list in a list": (TypeError, Rows(["a"], [([[1]],)])),
    "dict cell": (TypeError, Rows(["a"], [({},)])),
    "set cell": (TypeError, Rows(["a"], [({1},)])),
    "bytes cell": (TypeError, Rows(["a"], [(b"x",)])),
}


@pytest.mark.parametrize("rows", list(_ROWS.values()), ids=list(_ROWS))
def test_rows(rows):
    for payload in (rows, {"t": rows}, [rows, rows], {"t": [1, rows]}):
        assert encode_report(payload) == reference(plain(payload))


@pytest.mark.parametrize("error, rows", list(_REFUSED_ROWS.values()), ids=list(_REFUSED_ROWS))
def test_refused_rows(error, rows):
    for payload in (rows, {"t": rows}):
        with pytest.raises(error):
            encode_report(payload)


def test_rows_are_not_json():
    # a Rows is written by encode_report alone; json.dumps rejects it
    with pytest.raises(TypeError):
        reference({"t": _ROWS["goal log"]})


def test_mixed_key_rows_raise_type_error():
    rows = [{"a": 1, 2: 3}, {"a": 1, 2: 3}]
    with pytest.raises(TypeError):
        reference(rows)
    with pytest.raises(TypeError):
        encode_report(rows)


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.text(alphabet='"\\\n\t\x00\x1f\x7fé \U0001f600 ab', max_size=8),
)
_keys = st.one_of(st.text(max_size=6), st.integers(-5, 5), st.floats(), st.booleans(), st.none())
_row_keys = st.text(alphabet='%s"\\\né\U0001f600ab', max_size=4)
_row_values = st.one_of(_scalars, st.just(Colour.RED), st.builds(Name, st.text(max_size=3)))


@st.composite
def _tables(draw, values):
    """A list of rows of one shape, dicts with the same keys or lists and
    tuples of one length, holding drawn values; sometimes one row is then
    broken: made ragged, emptied, or of the other kind."""
    if draw(st.booleans()):
        keys = draw(st.lists(_row_keys, min_size=1, max_size=4, unique=True))
        width, make = len(keys), lambda row: dict(zip(keys, row))
    else:
        width = draw(st.integers(1, 4))
        make = draw(st.sampled_from([list, tuple]))
    cells = st.lists(values, min_size=width, max_size=width)
    rows = draw(st.lists(cells.map(make), min_size=1, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        rows[i] = draw(st.sampled_from([
            row[:-1] if isinstance(row, (list, tuple)) else dict(list(row.items())[:-1]),
            [*row, 0] if isinstance(row, (list, tuple)) else {**row, "%extra": 0},
            type(row)(),
            list(row.values()) if isinstance(row, dict) else dict(enumerate(row)),
        ]))
    return rows


@st.composite
def _keyed_tables(draw, values):
    """A dict of dicts with the same keys, holding drawn values or lists of
    them; sometimes one row is then broken: made ragged, emptied, or given
    a key or a cell of another kind."""
    keys = draw(st.lists(_row_keys, min_size=1, max_size=4, unique=True))
    cells = st.one_of(values, st.lists(values, max_size=4))
    rows = st.lists(cells, min_size=len(keys), max_size=len(keys)).map(lambda r: dict(zip(keys, r)))
    table = draw(st.dictionaries(_row_keys, rows, min_size=1, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        name = draw(st.sampled_from(sorted(table)))
        row = table[name]
        table[name] = draw(st.sampled_from([
            dict(list(row.items())[:-1]),
            {**row, "%extra": 0},
            {**row, keys[0]: (1, 2)},
            {**row, keys[0]: [Colour.RED]},
            list(row.values()),
        ]))
    return table


@st.composite
def _drawn_rows(draw):
    """Rows of drawn fields and cells, keyed or not, and whether one row was
    then broken: made ragged, given a non-plain cell, or keyed by the first
    row's key."""
    fields = draw(st.lists(_row_keys, min_size=1, max_size=4, unique=True))
    cell = st.one_of(_scalars, st.lists(_scalars, max_size=4),
                     st.lists(_scalars, max_size=3).map(tuple))
    rows = draw(st.lists(st.tuples(*[cell] * len(fields)), max_size=6))
    keyed = draw(st.booleans())
    if keyed:
        keys = draw(st.lists(_row_keys, min_size=len(rows), max_size=len(rows), unique=True))
        rows = [(k, *row) for k, row in zip(keys, rows)]
    broken = bool(rows) and draw(st.integers(0, 3)) == 0
    if broken:
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        breaks = [row[:-1], (*row, 0), (*row[:-1], Colour.RED), (*row[:-1], [Name("x")])]
        if keyed and i:
            breaks.append((rows[0][0], *row[1:]))
        rows[i] = draw(st.sampled_from(breaks))
    return Rows(fields, rows, keyed), broken


@settings(max_examples=300, deadline=None)
@given(_drawn_rows())
def test_drawn_rows(drawn):
    rows, broken = drawn
    for payload in (rows, {"t": rows}):
        if broken:
            with pytest.raises((TypeError, ValueError)):
                encode_report(payload)
        else:
            assert encode_report(payload) == reference(plain(payload))


def _containers(children):
    return st.one_of(
        _tables(_row_values),
        _tables(children),
        _keyed_tables(_row_values),
        _keyed_tables(children),
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(st.integers(), max_size=6),
        st.lists(st.text(max_size=4), max_size=6),
        st.dictionaries(st.text(max_size=6), children, max_size=6),
        st.dictionaries(st.integers(-5, 5), children, max_size=4),
        st.dictionaries(st.floats(), children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),  # mixed keys: both reject most
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(_scalars, _containers, max_leaves=40))
def test_drawn_payloads(payload):
    assert _outcome(encode_report, payload) == _outcome(reference, payload)
