"""The input boundary: every file and flag value becomes a domain object here.

Each parser reads one format and raises InvalidInstance for any shape it
does not expect; only the raw access runs under `_reading`, so the domain
constructors it then calls keep their own errors. Rationals travel as
strings "p/q" (plain "n" for integers) so exactness survives the wire; one
grammar, `_ratio`, reads them all. Arc order in a file defines the arc ids.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, groupby, repeat
from math import gcd
from operator import itemgetter
from typing import Any, Callable, Iterable

from .errors import InvalidInstance
from .graphs import Digraph, StPair, WeightedGroundSet
from .linalg import ratio_row


@contextmanager
def _reading(what: str):
    """Report a wrongly shaped `what` as InvalidInstance."""
    try:
        yield
    except KeyError as exc:
        raise InvalidInstance(f"missing {what} key: {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise InvalidInstance(f"malformed {what}: {exc}") from exc


def _array(value: Any, what: str) -> list:
    """`value` if it is a JSON array; a string or object in its place would
    be read one character or key per item."""
    if not isinstance(value, list):
        raise InvalidInstance(f"malformed {what}: expected an array, got {type(value).__name__}")
    return value


def _ratio(value: Any) -> tuple[int, int]:
    """The one rational grammar: (numerator, denominator > 0) in lowest
    terms from an integer or a "p/q" string; never a bool or float. An
    ASCII "n" or "n/d" (digits, n may lead with "-") skips Fraction's
    pattern match: each part goes through int(), which keeps its limit on
    the number of digits. Any other string goes through Fraction(str)."""
    if type(value) is int:
        return value, 1
    try:
        if type(value) is str and value.isascii():
            num, slash, den = value.partition("/")
            if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                n, d = int(num), int(den or 1)
                if d:
                    g = gcd(n, d)
                    return n // g, d // g
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return Fraction(value).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        pass
    raise InvalidInstance(f"cannot parse rational from {value!r}")


def fraction_from_json(value: Any) -> Fraction:
    """A rational from an integer or a "p/q" string, by `_ratio`."""
    return Fraction(*_ratio(value))


def _token_lookup(tokens: Iterable, parse: Callable = fraction_from_json) -> Callable:
    """How a reader of rationals parses `tokens`, which it can list. When
    every token is exactly a str or int, the lookup in a table holding
    `parse` of each distinct token, parsed once in first-seen order; the
    caller maps its tokens through it in C. Any other token can only be
    refused, so then, and when the table meets a refusal, it is `parse`
    itself: the caller reads token by token and meets the first refusal,
    with its message, where it always did."""
    tokens = list(tokens)
    if not set(map(type, tokens)) <= {str, int}:
        return parse
    table = dict.fromkeys(tokens)
    try:
        for token in table:
            table[token] = parse(token)
    except InvalidInstance:
        return parse
    return table.__getitem__


def int_from_json(value: Any) -> int:
    """An integer from a JSON integer; never a bool, float or string."""
    if type(value) is int:
        return value
    raise InvalidInstance(f"expected an integer, got {value!r}")


def _check_ints(values: list) -> None:
    """`int_from_json` on every value, as one pass over their types; only a
    failure walks them to name the first offender."""
    if not set(map(type, values)) <= {int}:
        for value in values:
            int_from_json(value)


def fraction_to_json(value: Fraction) -> str:
    return str(value)


def fractions_to_json(values: Iterable[Fraction]) -> list[str]:
    """`fraction_to_json` of each value, once per run of one object and once
    per distinct object: a flow witness is mostly runs of one Fraction(0).
    Keyed by id, since hashing a Fraction costs more than printing it; the
    cache keeps each object it keys alive, so no id is reused under it."""
    texts: dict[int, tuple[Fraction, str]] = {}
    out: list[str] = []
    for key, run in groupby(values, id):
        run = list(run)
        if key not in texts:
            texts[key] = (run[0], fraction_to_json(run[0]))
        out.extend(repeat(texts[key][1], len(run)))
    return out


def parse_rationals(raw: str) -> list[Fraction]:
    """Comma rationals, e.g. "3/4,1/4"."""
    tokens = raw.split(",")
    return list(map(_token_lookup(tokens), tokens))


def parse_ids(raw: str) -> list[int]:
    """Comma element ids, e.g. "0,2,5"; blank means none. Each id is ASCII
    decimal digits, spaces around it allowed: no sign, underscore or other
    digit script, all of which int() would accept."""
    if raw.strip() == "":
        return []
    return [_decimal_id(part, f"id list {raw!r}") for part in raw.split(",")]


def _decimal_id(token: str, where: str) -> int:
    token = token.strip()
    if not (token.isascii() and token.isdigit()):
        raise InvalidInstance(f"malformed {where}: {token!r} is not a decimal id")
    return int(token)


def parse_id_lists(raw: str) -> list[list[int]]:
    """Semicolon-separated id lists, e.g. "0,1;2"."""
    return [parse_ids(part) for part in raw.split(";")]


def parse_bits(raw: str, dim: int) -> tuple[int, ...]:
    """A 0/1 string of length `dim`, such as "010"."""
    if len(raw) != dim or not set(raw) <= {"0", "1"}:
        raise InvalidInstance(f"expected a 0/1 string of length {dim}, got {raw!r}")
    return tuple(int(ch) for ch in raw)


def parse_edges(raw: str) -> list[tuple[int, int]]:
    """Comma list of "a-b" pairs, e.g. "0-1,1-2"; each end is an id as in `parse_ids`."""
    where = f"edge list {raw!r}"
    return [(_decimal_id(a, where), _decimal_id(b, where))
            for a, _, b in (pair.partition("-") for pair in raw.split(","))]


def parse_cost(spec: str, dim: int) -> CostOracle:
    """zero | linear:c0,c1,... | quadratic:r0,r1,... with one rational per element."""
    from . import tolls
    if spec == "zero":
        return tolls.linear_cost([0] * dim)
    kind, _, rest = spec.partition(":")
    if kind not in ("linear", "quadratic"):
        raise InvalidInstance(f"unknown cost spec {spec!r}")
    tokens = rest.split(",") if rest else []
    ratios = map(_token_lookup(tokens, _ratio), tokens)
    # A whole coefficient stays an int, which the costs read with no Fraction.
    values = [n if d == 1 else Fraction(n, d) for n, d in ratios]
    if len(values) != dim:
        raise InvalidInstance(f"cost needs {dim} coefficients")
    return tolls.linear_cost(values) if kind == "linear" else tolls.quadratic_cost(values)


def parse_graph(data: dict) -> Digraph:
    """Format: {"nodes": n, "arcs": [[t,h],...]} (other keys ignored); an arc
    with more or fewer than two entries is refused, not truncated.

    The arcs go straight to the filing walk, `Digraph._filed`; only when it
    refuses or is not tried (a negative or outsized node count) does one
    plain walk, in arc order, name the first arc that is not a pair of JSON
    integers, before `Digraph` checks the count and the range."""
    with _reading("graph"):
        nodes = int_from_json(data["nodes"])
        arcs = _array(data["arcs"], "graph")
    g = Digraph._filed(nodes, arcs)
    if g is not None:
        return g
    with _reading("graph"):  # an arc without a len (5) fails in len()
        for aid, arc in enumerate(arcs):
            if isinstance(arc, dict) or len(arc) != 2:
                raise InvalidInstance(
                    f"malformed graph: arc {aid} is not a [tail, head] pair: {arc!r}")
            int_from_json(arc[0])
            int_from_json(arc[1])
    return Digraph(nodes, arcs)


def parse_instance(data: dict) -> tuple[Digraph, StPair, WeightedGroundSet]:
    """Instance format: {"nodes": n, "arcs": [[t,h],...], "s": id, "t": id,
    "weights": ["p/q", ...] (optional, default all 1)}."""
    g = parse_graph(data)
    with _reading("instance"):
        source, sink = int_from_json(data["s"]), int_from_json(data["t"])
        raw = data.get("weights")
        if raw is not None:
            table = dict(zip(raw, map(_token_lookup(_array(raw, "weights"), _ratio), raw)))
    st = StPair(source, sink)
    st.validate(g)
    if raw is None:
        return g, st, WeightedGroundSet.uniform(g.arc_count)
    if len(raw) != g.arc_count:
        raise InvalidInstance("one weight per arc required")
    return g, st, WeightedGroundSet._by_token(raw, table)


def instance_to_json(g: Digraph, st: StPair, metadata: dict | None = None) -> dict:
    data: dict[str, Any] = {
        "nodes": g.node_count,
        "arcs": list(map(list, g.arcs)),
        "s": st.source,
        "t": st.sink,
    }
    if metadata:
        data["metadata"] = metadata
    return data


def parse_weights(data: dict | list, size: int) -> WeightedGroundSet:
    """Either a bare list of rationals or {"weights": [...]}."""
    with _reading("weights"):
        raw = _array(data["weights"] if isinstance(data, dict) else data, "weights")
        table = dict(zip(raw, map(_token_lookup(raw, _ratio), raw)))
    if len(raw) != size:
        raise InvalidInstance(f"expected {size} weights, got {len(raw)}")
    return WeightedGroundSet._by_token(raw, table)


def read_id_set(raw: str, load: Callable[[str], Any]) -> list[int]:
    """Comma ids inline, or a .json file read by `load`: {"S": [ids]} or a bare list."""
    if not raw.endswith(".json"):
        return parse_ids(raw)
    data = load(raw)
    with _reading("id set"):
        ids = _array(data["S"] if isinstance(data, dict) else data, "id set")
    _check_ints(ids)
    return ids


def parse_solution_list(data: dict) -> SolutionList:
    """Format: {"dim": n, "vectors": ["0101", ...]}; a vector may also be a list
    of 0/1 integers or "0"/"1" strings."""
    from .explicit import SolutionList
    with _reading("solution list"):
        dim = int_from_json(data["dim"])
        rows = [_bits(vec) for vec in _array(data["vectors"], "solution list")]
    return SolutionList._from_rows(dim, rows)


_BITS = {"0": 0, "1": 1, 0: 0, 1: 1}


def _bits(vec: Any) -> tuple[int, ...]:
    """A 0/1 vector from a string, or from an array of 0/1 integers and "0"/"1"
    strings. One dict lookup per coordinate checks and converts it; a bool
    or float would hash like the int it equals, so a list of other types,
    or a failed lookup, goes through `_bit`, which names the bad coordinate."""
    if type(vec) is str or set(map(type, _array(vec, "solution list"))) <= {int, str}:
        try:
            return tuple(map(_BITS.__getitem__, vec))
        except KeyError:
            pass
    return tuple(_bit(v) for v in vec)


def _bit(value: Any) -> int:
    """0 or 1 from the integer or the one-character string; never a float or bool."""
    if value in ("0", "1") or (type(value) is int and value in (0, 1)):
        return int(value)
    raise InvalidInstance(f"solution coordinates must be 0 or 1, got {value!r}")


def parse_affine_basis(data: dict) -> AffineBasis:
    """Format: {"points": [["p/q", ...], ...]}, read to integer rows, no Fraction."""
    from .linear import AffineBasis
    with _reading("basis"):
        raw = _array(data["points"], "basis")
        ratio = _token_lookup(chain.from_iterable(_array(p, "basis") for p in raw), _ratio)
        rows = [ratio_row(list(map(ratio, p))) for p in raw]
    return AffineBasis._from_rows(rows)


def parse_polymatroid_table(data: dict) -> PolymatroidOracle:
    """Format: {"size": n, "values": {"": "0", "0": ..., "0,2": ...}}.

    Keys are comma-joined sorted element ids; every subset must be present.
    """
    from .polymatroids import PolymatroidOracle
    with _reading("table"):
        size = int_from_json(data["size"])
        entries = data["values"].items()
        parse = _token_lookup(map(itemgetter(1), entries))
        table = {frozenset(parse_ids(key)): parse(value) for key, value in entries}
    return PolymatroidOracle.from_table(size, table)


def load_json(path: str, digest: Any) -> Any:
    """The UTF-8 JSON in the file at `path`; its bytes also go to `digest.update`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        return json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise InvalidInstance(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InvalidInstance(f"{path} is not JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInstance(f"{path} nests too deeply to read") from exc


def to_json(value: Any) -> str:
    """The text of `json.dumps(value, indent=2, sort_keys=True)`: the one
    output format, for stdout and for files.

    json takes its pure-Python encoder whenever it indents, one call per
    item. Here dicts (keys sorted) and lists or tuples of containers are
    walked in Python, but a list of strings that need no escapes is joined
    with quotes, newline and indent between items, and any other list whose
    items are all exactly str or int goes to the C encoder in one call, with
    the newline and indent as its item separator; its brackets are then
    re-wrapped. Every other scalar goes through `json.dumps`, so escapes and
    number formats are json's own. A dict key that is not a str raises
    TypeError: json would print the number or constant quoted, and no
    payload has one.
    """
    parts: list[str] = []
    _write(value, "\n", parts.append)
    return "".join(parts)


def _write(value: Any, newline: str, out: Callable[[str], None]) -> None:
    """Append `value`'s text to `out`; `newline` ends a line and indents
    the next to the level of `value` itself."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out("{}")
            return
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(sep + json.dumps(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
        elif isinstance(value[0], str) and _plain_strings(value):
            out("[" + inner + '"' + ('",' + inner + '"').join(value) + '"' + newline + "]")
        elif set(map(type, value)) <= {str, int}:
            text = json.dumps(value, separators=("," + inner, ": "))
            out("[" + inner + text[1:-1] + newline + "]")
        else:
            sep = "[" + inner
            for item in value:
                out(sep)
                _write(item, inner, out)
                sep = "," + inner
            out(newline + "]")
    else:
        out(json.dumps(value))


def _plain_strings(value: list | tuple) -> bool:
    """True when every item is a str and json would print each unescaped:
    their joined text is ASCII, printable, and has no quote or backslash."""
    try:
        text = "".join(value)
    except TypeError:
        return False
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def dump_json(path: str, data: dict) -> None:
    text = to_json(data) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInstance(f"cannot write {path}: {exc.strerror}") from exc
