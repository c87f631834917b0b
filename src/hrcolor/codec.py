"""Text formats for graphs and colored instances.

Two formats are supported, both UTF-8 with LF line endings:

* instance documents: a JSON object with keys in the fixed order
  name, n, edges, k, attackers, colors, preceded by a `#` header comment
  line stating the numbering conventions (vertices 0-based on the wire,
  colors 1-based);
* bare edge lists: a first line "n m" followed by m lines "u v", each
  number written in ASCII digits with an optional leading minus sign.

Encoding is canonical: the same value always produces the same bytes.
The CLI reads files with `utf-8-sig`, so a byte-order mark that starts a
file never reaches a decoder; one anywhere else is text.

Decoding reports the first fault it meets as a `CodecError`. Each edge
is checked once and written straight into the closed-neighborhood masks
that become the `Graph` (through `Graph._from_closed`, which checks
nothing again). Each color is checked once and written straight into its
vertex's color mask; `Multicoloring.__init__` then range-checks each mask
once more. A valid instance-document edge, and a valid color list, passes
one inline test; only a faulty one runs the checks that name its first
fault, so no message is built for valid input.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .coloring import Multicoloring
from .constructions import ColoredInstance
from .graph import MAX_VERTICES, Graph

HEADER = "# instance document: vertices are 0-based, colors are 1-based"

#: Largest palette a document may declare. A coloring holds its palette as
#: a bit mask of k bits, so a larger k is refused before any coloring is
#: built (code "too-large"); every catalog instance has k <= 10.
MAX_COLORS = 4096


class CodecError(ValueError):
    """Parse or validation failure with a stable machine-readable code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


def instance_object(inst: ColoredInstance) -> dict[str, Any]:
    """The document's JSON object form, keys in canonical order."""
    fields: dict[str, Any] = {}
    if inst.name is not None:
        fields["name"] = inst.name
    fields["n"] = inst.graph.n
    fields["edges"] = [list(e) for e in inst.graph.edges()]
    fields["k"] = inst.coloring.palette_size
    if inst.attackers is not None:
        fields["attackers"] = inst.attackers
    fields["colors"] = [list(s) for s in inst.coloring.sets()]
    return fields


def encode_instance(inst: ColoredInstance) -> str:
    """Canonical document for a colored instance; byte-identical across runs."""
    lines = [HEADER, "{"]
    fields = list(instance_object(inst).items())
    for i, (key, value) in enumerate(fields):
        comma = "," if i + 1 < len(fields) else ""
        lines.append(f'"{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _strip_comments(text: str) -> str:
    return "\n".join(
        line for line in text.split("\n") if not line.lstrip().startswith("#")
    )


def _require_int(value: Any, field: str) -> int:
    if type(value) is not int:
        raise CodecError("schema", f"field {field!r} must be an integer")
    return value


def _require_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise CodecError(
            "too-large", f"n = {n} exceeds the limit of {MAX_VERTICES} vertices"
        )


def _require_palette(value: Any) -> int:
    k = _require_int(value, "k")
    if k < 1:
        raise CodecError("schema", "field 'k' must be at least 1")
    if k > MAX_COLORS:
        raise CodecError("too-large", f"k = {k} exceeds the limit of {MAX_COLORS} colors")
    return k


def _load_json(text: str) -> Any:
    """Parse a JSON document after dropping its comment lines. Every parse
    failure, including nesting too deep for the parser and integer literals
    too long to convert, is a "syntax" error."""
    try:
        return json.loads(_strip_comments(text))
    except (ValueError, RecursionError) as exc:
        raise CodecError("syntax", f"invalid document: {exc}") from None


def _coloring(raw_colors: Any, k: int, n: int | None = None) -> Multicoloring:
    """Check the `colors` field, a list of n per-vertex color lists when n is
    given, each of 1-based colors within 1..k, sorted ascending without
    duplicates; each list's mask is built as its order is checked."""
    if not isinstance(raw_colors, list):
        raise CodecError("schema", "field 'colors' must be a list of color lists")
    if n is not None and len(raw_colors) != n:
        raise CodecError(
            "length-mismatch",
            f"'colors' has {len(raw_colors)} entries but n = {n}",
        )
    masks: list[int] = []
    for v, cs in enumerate(raw_colors):
        if type(cs) is not list:
            raise CodecError("schema", f"colors[{v}] must be a list")
        m = last = 0
        for c in cs:
            if type(c) is not int or not last < c <= k:
                break
            m |= 1 << (c - 1)
            last = c
        else:
            masks.append(m)
            continue
        # not valid: every color is checked for its type, then its range,
        # so a list that passes both is out of order
        for c in cs:
            _require_int(c, f"colors[{v}]")
        for c in cs:
            if not 1 <= c <= k:
                raise CodecError(
                    "color-range", f"colors[{v}] contains {c}, outside 1..{k}"
                )
        raise CodecError(
            "color-order", f"colors[{v}] must be sorted ascending with no duplicates"
        )
    return Multicoloring(k, masks)


def _check_edge(u: int, v: int, n: int, closed: list[int], at: str) -> None:
    """Validate edge {u, v} against the vertex count and the edges before it,
    which `closed` holds as per-vertex closed-neighborhood masks, then write
    it there. `at` names the edge's place in the document ("edge #i" or
    "line i")."""
    if not (0 <= u < n and 0 <= v < n):
        raise CodecError("index-range", f"{at}: [{u}, {v}] out of range 0..{n - 1}")
    if u == v:
        raise CodecError("self-loop", f"{at}: self-loop at {u}")
    if closed[u] >> v & 1:
        raise CodecError("duplicate-edge", f"{at}: [{u}, {v}] repeats")
    closed[u] |= 1 << v
    closed[v] |= 1 << u


_INTEGER = re.compile(r"-?[0-9]+")


def _integers(tokens: list[str], message: str) -> list[int]:
    """Parse edge-list tokens: ASCII digits with an optional leading minus."""
    try:
        if all(_INTEGER.fullmatch(t) for t in tokens):
            return [int(t) for t in tokens]
    except ValueError:  # more digits than int() converts
        pass
    raise CodecError("syntax", message)


_KNOWN_KEYS = {"name", "n", "edges", "k", "attackers", "colors"}


def decode_instance(text: str) -> ColoredInstance:
    """Parse and validate an instance document.

    Raises CodecError with one of the codes: syntax, schema, too-large,
    index-range, self-loop, duplicate-edge, color-range, color-order,
    length-mismatch.
    """
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise CodecError("schema", "document must be a JSON object")
    unknown = set(obj) - _KNOWN_KEYS
    if unknown:
        raise CodecError("schema", f"unknown field(s): {', '.join(sorted(unknown))}")
    for field in ("n", "edges", "k", "colors"):
        if field not in obj:
            raise CodecError("schema", f"missing field {field!r}")

    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise CodecError("schema", "field 'name' must be a string")
    n = _require_int(obj["n"], "n")
    if n < 0:
        raise CodecError("schema", "field 'n' must be non-negative")
    _require_vertex_count(n)
    k = _require_palette(obj["k"])
    attackers = obj.get("attackers")
    if attackers is not None:
        attackers = _require_int(attackers, "attackers")
        if attackers < 1:
            raise CodecError("schema", "field 'attackers' must be at least 1")

    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise CodecError("schema", "field 'edges' must be a list of [u, v] pairs")
    closed = [1 << u for u in range(n)]
    for pos, e in enumerate(raw_edges):
        if not (type(e) is list and len(e) == 2):
            raise CodecError("schema", f"edge #{pos} must be a [u, v] pair")
        u, v = e
        # closed[u] holds u itself, so a self-loop fails the last test too
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n
                and not closed[u] >> v & 1):
            # not valid: these checks name the first fault and raise it
            _require_int(u, f"edges[{pos}][0]")
            _require_int(v, f"edges[{pos}][1]")
            _check_edge(u, v, n, closed, f"edge #{pos}")
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    kappa = _coloring(obj["colors"], k, n)
    # positional, once per op: a keyword call binds through Record._bind
    return ColoredInstance(name, Graph._from_closed(n, tuple(closed)), kappa, attackers)


def decode_edge_list(text: str) -> Graph:
    """Parse a bare graph: first line "n m", then m lines "u v".

    Raises CodecError with one of the codes: syntax, schema, too-large,
    index-range, self-loop, duplicate-edge.
    """
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise CodecError("syntax", "empty edge-list document")
    head = lines[0].split()
    if len(head) != 2:
        raise CodecError("syntax", "first line must be 'n m'")
    n, m = _integers(head, "first line must hold two integers")
    if n < 0 or m < 0:
        raise CodecError("schema", "counts must be non-negative")
    _require_vertex_count(n)
    if len(lines) - 1 != m:
        raise CodecError(
            "syntax", f"expected {m} edge lines, found {len(lines) - 1}"
        )
    closed = [1 << u for u in range(n)]
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise CodecError("syntax", f"line {lineno}: expected 'u v'")
        u, v = _integers(parts, f"line {lineno}: expected two integers")
        _check_edge(u, v, n, closed, f"line {lineno}")
    return Graph._from_closed(n, tuple(closed))


def decode_coloring(text: str) -> Multicoloring:
    """Parse a coloring file: a JSON object {"k": int, "colors": [[...], ...]}.

    Colors are 1-based, sorted ascending per vertex, validated as in
    instance documents. Raises CodecError with one of the codes: syntax,
    schema, too-large, color-range, color-order.
    """
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise CodecError("schema", "document must be a JSON object")
    unknown = set(obj) - {"k", "colors"}
    if unknown:
        raise CodecError("schema", f"unknown field(s): {', '.join(sorted(unknown))}")
    if "k" not in obj or "colors" not in obj:
        raise CodecError("schema", "coloring needs fields 'k' and 'colors'")
    return _coloring(obj["colors"], _require_palette(obj["k"]))
