"""The report writer.

A report file is exactly json.dumps(payload, sort_keys=True, indent=1) and
a final newline: every golden digest and rerun comparison reads these
bytes.  CPython's json runs its pure-Python encoder whenever indent is set,
one call per container, so encode_report writes the same bytes itself.

Most of a report is tables.  A list whose items are plain scalars, or
non-empty rows of one shape holding plain scalars (the pairs of each map),
is written in one C encoder call: its values, row by row, joined by "\\n",
which no value's text holds, since json escapes every newline inside a
string.  The split texts then fill one %-template of the table.

Named rows come as Rows: a table the program hands over as it holds it,
with no dict per row (the build report's goal log and frozen entries).
Their cells may also be lists or tuples of plain scalars.  Each column's
texts come from one encoder call, and the rows fill one template in the
fields' sorted order; keyed Rows are written in their keys' sorted order.
Any other value takes the recursive path, lists of dicts included (the
short ones a report still holds: the ffp clauses, hit-density's conditions
and misses, the template axioms).  It escapes strings with json's
encode_basestring_ascii and hands any other scalar to json.dumps, whose C
encoder writes it as the indented encoder would (a value of a type json
rejects raises TypeError).
Imported by the CLI's first report write and by BuildReport.to_json, so
building the parser does not compile it.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional, Sequence

# exact types: a subclass (IntEnum, a str subclass) takes the recursive path
_SCALARS = frozenset({int, str, float, bool, type(None)})
_LISTS = frozenset({list, tuple})
# the texts of a list of _SCALARS, one to a line, in brackets
_lines = json.JSONEncoder(separators=("\n", ": "), check_circular=False).encode


class Rows:
    """Named rows, written as their dict form: the list of the dicts
    dict(zip(fields, row)), or when keyed, the dict that maps each row's
    first cell, an exact str, to dict(zip(fields, row[1:])).  The fields
    are distinct exact strs and every cell is a plain scalar or a list or
    tuple of them.  The writer raises ValueError for a row of another
    length or a repeated key, and TypeError for any other cell, key or
    field; json.dumps rejects a Rows."""

    __slots__ = ("fields", "rows", "keyed")

    def __init__(self, fields: Sequence[str], rows: Sequence[Sequence], keyed: bool = False) -> None:
        self.fields = fields
        self.rows = rows
        self.keyed = keyed


def encode_report(payload) -> bytes:
    """The bytes of a report file: json.dumps(payload, sort_keys=True,
    indent=1) and a final newline, byte for byte."""
    out: list[str] = []
    _encode(payload, "\n", out)
    out.append("\n")
    return "".join(out).encode()


def _encode(o, nl: str, out: list[str]) -> None:
    """Append the JSON text of o to out; nl is a newline and o's indent."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + " "
        sep, comma = "{" + inner, "," + inner
        for k, v in sorted(o.items()):
            key = f"{sep}{encode_basestring_ascii(k if type(k) is str else _key_text(k))}: "
            kind = type(v)
            if kind is int:  # the common leaves are written without a call
                out.append(key + int.__repr__(v))
            elif kind is str:
                out.append(key + encode_basestring_ascii(v))
            elif v is None:
                out.append(key + "null")
            elif isinstance(v, (dict, list, tuple, Rows)):
                out.append(key)
                _encode(v, inner, out)
            else:
                out.append(key + json.dumps(v))
            sep = comma
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + " "
        table = _table(o, inner)
        if table is not None:
            out.append(f"[{inner}{table}{nl}]")
            return
        sep, comma = "[" + inner, "," + inner
        for x in o:
            out.append(sep)
            _encode(x, inner, out)
            sep = comma
        out.append(nl + "]")
    elif type(o) is Rows:
        out.append(_rows(o, nl))
    else:
        out.append(json.dumps(o))


def _rows(table: Rows, nl: str) -> str:
    """The JSON text of a Rows at indent nl."""
    fields, rows, keyed = table.fields, table.rows, table.keyed
    if not all(type(f) is str for f in fields):
        raise TypeError("Rows fields must be str")
    if not fields or len(set(fields)) != len(fields):
        raise ValueError(f"Rows fields must be distinct and at least one: {fields!r}")
    width = len(fields) + keyed  # a keyed row starts with its key
    if set(map(len, rows)) - {width}:
        raise ValueError(f"a row's length is not {width}")
    if not rows:
        return "{}" if keyed else "[]"
    if keyed:
        rows = sorted(rows, key=itemgetter(0))
    # columns by index, not zip(*rows), which makes one iterator per row
    columns = [list(map(itemgetter(i), rows)) for i in range(width)]
    keys = columns.pop(0) if keyed else None
    if keyed:
        if not all(type(k) is str for k in keys):
            raise TypeError("Rows keys must be str")
        if any(map(str.__eq__, keys, islice(keys, 1, None))):
            raise ValueError("a Rows key is repeated")
    order = sorted(range(len(fields)), key=fields.__getitem__)
    inner = nl + " "
    text = _named([fields[i] for i in order], [columns[i] for i in order], inner, keys)
    if text is None:
        raise TypeError("a Rows cell is not a plain scalar or a list or tuple of them")
    start, end = "{}" if keyed else "[]"
    return f"{start}{inner}{text}{nl}{end}"


def _table(items, inner: str) -> Optional[str]:
    """The texts of a list's items joined by "," + inner, when the list is
    a table: plain scalars, or non-empty rows of one length (lists and
    tuples) that hold plain scalars.  None for any other list."""
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        return _lines(items)[1:-1].replace("\n", "," + inner)
    first = items[0]
    if not (kinds <= {list, tuple} and first) or set(map(len, items)) != {len(first)}:
        return None
    values = list(chain.from_iterable(items))
    if not set(map(type, values)) <= _SCALARS:
        return None
    deeper = inner + " "
    row = f"[{deeper}{(',' + deeper).join(['%s'] * len(first))}{inner}]"
    return ("," + inner).join([row] * len(items)) % tuple(_lines(values)[1:-1].split("\n"))


def _named(fields: list[str], columns: list, inner: str, keys) -> Optional[str]:
    """The texts of named rows joined by "," + inner: row i holds column
    j's cell i under fields[j], the fields in sorted order, and is preceded
    by keys[i] unless keys is None.  None when a cell is neither a plain
    scalar nor a list or tuple of them."""
    deeper = inner + " "
    texts = [_column(c, deeper) for c in columns]
    if None in texts:
        return None
    if keys is not None:
        texts.insert(0, _lines(keys)[1:-1].split("\n"))
    # a % in a field would read as a conversion in the template
    heads = [encode_basestring_ascii(f).replace("%", "%%") + ": %s" for f in fields]
    row = f"{'%s: ' if keys is not None else ''}{{{deeper}{(',' + deeper).join(heads)}{inner}}}"
    return ("," + inner).join([row] * len(texts[0])) % tuple(chain.from_iterable(zip(*texts)))


def _column(cells, deeper: str) -> Optional[list[str]]:
    """The texts of one column's cells at indent deeper, from one encoder
    call; None when a cell is neither a plain scalar nor a list or tuple
    of them."""
    kinds = set(map(type, cells))
    if kinds <= _SCALARS:
        return _lines(cells)[1:-1].split("\n")
    if not kinds <= _SCALARS | _LISTS:
        return None
    flat: list = []
    sizes = []  # a list cell's length, or -1 for a scalar cell
    for cell in cells:
        if type(cell) in _LISTS:
            flat += cell
            sizes.append(len(cell))
        else:
            flat.append(cell)
            sizes.append(-1)
    if not set(map(type, flat)) <= _SCALARS:
        return None
    texts = iter(_lines(flat)[1:-1].split("\n") if flat else ())
    deepest = deeper + " "
    comma = "," + deepest
    return [
        next(texts) if n < 0 else f"[{deepest}{comma.join(islice(texts, n))}{deeper}]" if n else "[]"
        for n in sizes
    ]


def _key_text(k) -> str:
    """The text of a key before it is quoted, as json.dumps reads it."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
