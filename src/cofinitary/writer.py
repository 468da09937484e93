"""The report writer.

A report file is exactly json.dumps(payload, sort_keys=True, indent=1) and
a final newline: every golden digest and rerun comparison reads these
bytes.  CPython's json runs its pure-Python encoder whenever indent is set,
one call per container, so encode_report writes the same bytes itself.

Most of a report is tables: the pairs [n, m] of each map and the goal log's
{"goal", "stage", "witness"} rows.  A list whose items are plain scalars,
or non-empty rows of one shape holding plain scalars, is written in one C
encoder call: its values, row by row, joined by "\\n", which no value's
text holds, since json escapes every newline inside a string.  The split
texts then fill one %-template of the table.  So do a dict's dict rows
whose cells may also be lists of plain scalars: the build report's
frozen_fix.  Any other value takes the recursive path, which escapes
strings with json's encode_basestring_ascii and hands any other scalar to
json.dumps, whose C encoder writes it as the indented encoder would (a
value of a type json rejects raises TypeError).
Imported by the CLI's first report write, so building the parser does not
compile it.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

# exact types: a subclass (IntEnum, a str subclass) takes the recursive path
_SCALARS = frozenset({int, str, float, bool, type(None)})
# the texts of a list of _SCALARS, one to a line, in brackets
_lines = json.JSONEncoder(separators=("\n", ": "), check_circular=False).encode


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
        items = sorted(o.items())
        table = _keyed_table(items, inner)
        if table is not None:
            out.append(f"{{{inner}{table}{nl}}}")
            return
        sep, comma = "{" + inner, "," + inner
        for k, v in items:
            key = f"{sep}{encode_basestring_ascii(k if type(k) is str else _key_text(k))}: "
            kind = type(v)
            if kind is int:  # the common leaves are written without a call
                out.append(key + int.__repr__(v))
            elif kind is str:
                out.append(key + encode_basestring_ascii(v))
            elif v is None:
                out.append(key + "null")
            elif isinstance(v, (dict, list, tuple)):
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
    else:
        out.append(json.dumps(o))


def _table(items, inner: str) -> Optional[str]:
    """The texts of a list's items joined by "," + inner, when the list is
    a table: plain scalars, or non-empty rows of one shape (dicts with the
    same str keys, or lists and tuples of one length) that hold plain
    scalars.  None for any other list."""
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        return _lines(items)[1:-1].replace("\n", "," + inner)
    first = items[0]
    if kinds == {dict} and first and all(type(k) is str for k in first):
        keys = sorted(first)
        # a % in a key would read as a conversion in the template
        heads = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys]
        get = itemgetter(*keys)  # a row's values, or the value of a one-key row
        rows = map(get, items) if len(keys) > 1 else zip(map(get, items))
        brackets = "{}"
    elif kinds <= {list, tuple} and first:
        heads = [""] * len(first)
        rows = items
        brackets = "[]"
    else:
        return None
    if set(map(len, items)) != {len(heads)}:
        return None
    try:  # a dict as long as the first that has all of its keys has its keys
        values = list(chain.from_iterable(rows))
    except KeyError:
        return None
    if not set(map(type, values)) <= _SCALARS:
        return None
    deeper = inner + " "
    row = f"{brackets[0]}{deeper}{(',' + deeper).join(h + '%s' for h in heads)}{inner}{brackets[1]}"
    return ("," + inner).join([row] * len(items)) % tuple(_lines(values)[1:-1].split("\n"))


def _keyed_table(items, inner: str) -> Optional[str]:
    """The texts of a dict's sorted items joined by "," + inner, when the
    dict is a table: its values are non-empty dicts with one set of str
    keys, holding plain scalars or lists of them.  None for any other dict."""
    rows = [v for _, v in items]
    if set(map(type, rows)) != {dict}:
        return None
    first = rows[0]
    if not first or not all(type(k) is str for k in first) or set(map(len, rows)) != {len(first)}:
        return None
    keys = sorted(first)
    get = itemgetter(*keys)
    try:  # as in _table, a row with all of the first's keys has just those
        cells = list(chain.from_iterable(map(get, rows)) if len(keys) > 1 else map(get, rows))
    except KeyError:
        return None
    flat: list = []
    sizes = []  # a list cell's length, or -1 for a scalar cell
    for cell in cells:
        kind = type(cell)
        if kind is list:
            if not set(map(type, cell)) <= _SCALARS:
                return None
            flat += cell
            sizes.append(len(cell))
        elif kind in _SCALARS:
            flat.append(cell)
            sizes.append(-1)
        else:
            return None
    texts = iter(_lines(flat)[1:-1].split("\n") if flat else ())
    deeper = inner + " "
    deepest = deeper + " "
    comma = "," + deepest
    filled = []
    for n in sizes:
        if n < 0:
            filled.append(next(texts))
        else:
            filled.append(f"[{deepest}{comma.join(islice(texts, n))}{deeper}]" if n else "[]")
    heads = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys]
    row = f"%s: {{{deeper}{(',' + deeper).join(h + '%s' for h in heads)}{inner}}}"
    slots = []
    width = len(keys)
    for i, (k, _) in enumerate(items):
        slots.append(encode_basestring_ascii(k if type(k) is str else _key_text(k)))
        slots += filled[i * width : (i + 1) * width]
    return ("," + inner).join([row] * len(rows)) % tuple(slots)


def _key_text(k) -> str:
    """The text of a key before it is quoted, as json.dumps reads it."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
