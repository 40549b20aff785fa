"""Text formats for instances and advice scripts.

All four problem kinds share one shape: a `p <kind> ...` header line followed
by one record line per star/arc/edge. `#` starts a comment (full-line or
trailing), blank lines are ignored, vertex ids are 1-based, and star/edge ids
are the 0-based positions of their record lines.
"""

from __future__ import annotations

import hashlib

from .graphs import Multigraph, RecordError
from .instances import DPAInstance, SSCInstance, Star, TwoECSInstance

KINDS = ("ssc", "mscs", "dpa", "2ecs")


class ParseError(Exception):
    """Malformed instance or advice text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _significant_lines(text: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) for every non-blank, non-comment line."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if tokens:
            out.append((no, tokens))
    return out


def _ints(tokens: list[str], no: int) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        raise _not_ints(tokens, no) from None


def _not_ints(tokens: list[str], no: int) -> ParseError:
    return ParseError(f"expected integers, got {' '.join(tokens)!r}", no)


def parse_instance(text: str):
    """Parse instance text; returns (kind, instance).

    mscs parses into a star instance with one singleton star per arc line;
    duplicate arc lines become distinct stars. A line that does not read
    as a record raises ParseError at that line while the records are read.
    Then the instance checks them, and the first record in file order that
    it rejects (a vertex out of range, a source among its sinks, a
    duplicate or badly priced edge) raises ParseError at its line.
    """
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty input: no header line")
    no, header = lines[0]
    if header[0] != "p" or len(header) != 4:
        raise ParseError("header must be 'p <kind> <n> <count>'", no)
    kind = header[1]
    if kind not in KINDS:
        raise ParseError(f"unknown problem kind {kind!r}", no)
    n, count = _ints(header[2:], no)
    if n < 1:
        raise ParseError(f"vertex count must be >= 1, got {n}", no)
    body = lines[1:]
    if len(body) != count:
        raise ParseError(
            f"header declares {count} record lines, found {len(body)}", no
        )
    try:
        return kind, _build_instance(kind, n, body)
    except RecordError as exc:
        raise ParseError(str(exc), body[exc.index][0]) from None


def _build_instance(kind: str, n: int, body: list[tuple[int, list[str]]]):
    # Each record's numbers are read by position; a token that is not an
    # integer raises the message `_ints` gives for the same tokens.
    if kind == "ssc":
        stars = []
        for idx, (lno, tok) in enumerate(body):
            if tok[0] != "s" or len(tok) < 4:
                raise ParseError("star line must be 's <source> <fan> <sinks...>'", lno)
            try:
                source, fan, sinks = int(tok[1]), int(tok[2]), frozenset(map(int, tok[3:]))
            except ValueError:
                raise _not_ints(tok[1:], lno) from None
            if fan != len(tok) - 3:
                raise ParseError(
                    f"fan {fan} does not match {len(tok) - 3} listed sinks", lno
                )
            stars.append(Star(idx, source, sinks))
        return SSCInstance(n, tuple(stars))

    if kind == "mscs":
        stars = []
        for idx, (lno, tok) in enumerate(body):
            if tok[0] != "a" or len(tok) != 3:
                raise ParseError("arc line must be 'a <u> <v>'", lno)
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise _not_ints(tok[1:], lno) from None
            stars.append(Star(idx, u, (v,)))
        return SSCInstance(n, tuple(stars))

    if kind == "dpa":
        edges = []
        for lno, tok in body:
            if tok[0] != "e" or len(tok) != 4:
                raise ParseError("edge line must be 'e <u> <v> <cost>'", lno)
            try:
                edges.append((int(tok[1]), int(tok[2]), int(tok[3])))
            except ValueError:
                raise _not_ints(tok[1:], lno) from None
        return DPAInstance(n, tuple(edges))

    edges2 = []
    for lno, tok in body:
        if tok[0] != "e" or len(tok) != 3:
            raise ParseError("edge line must be 'e <u> <v>'", lno)
        try:
            edges2.append((int(tok[1]), int(tok[2])))
        except ValueError:
            raise _not_ints(tok[1:], lno) from None
    return TwoECSInstance(Multigraph(n, tuple(edges2)))


def natural_kind(instance) -> str:
    if isinstance(instance, SSCInstance):
        return "ssc"
    if isinstance(instance, DPAInstance):
        return "dpa"
    if isinstance(instance, TwoECSInstance):
        return "2ecs"
    raise TypeError(f"unsupported instance type {type(instance).__name__}")


def write_instance(instance, kind: str | None = None) -> str:
    """Canonical text for an instance (stable under parse/write round trips)."""
    kind = kind or natural_kind(instance)
    if kind == "ssc":
        if not isinstance(instance, SSCInstance):
            raise TypeError("ssc format needs a star instance")
        lines = [f"p ssc {instance.vertex_count} {len(instance.stars)}"]
        for st in instance.stars:
            if len(st.sinks) == 1:
                (sink,) = st.sinks
                lines.append(f"s {st.source} 1 {sink}")
            else:
                sinks = " ".join(map(str, sorted(st.sinks)))
                lines.append(f"s {st.source} {len(st.sinks)} {sinks}")
    elif kind == "mscs":
        if not isinstance(instance, SSCInstance):
            raise TypeError("mscs format needs a star instance")
        lines = [f"p mscs {instance.vertex_count} {len(instance.stars)}"]
        for st in instance.stars:
            if len(st.sinks) != 1:
                raise ValueError("mscs format requires singleton stars")
            lines.append(f"a {st.source} {min(st.sinks)}")
    elif kind == "dpa":
        if not isinstance(instance, DPAInstance):
            raise TypeError("dpa format needs a power-assignment instance")
        lines = [f"p dpa {instance.vertex_count} {len(instance.edges)}"]
        for u, v, cost in instance.edges:
            lines.append(f"e {u} {v} {cost}")
    elif kind == "2ecs":
        if not isinstance(instance, TwoECSInstance):
            raise TypeError("2ecs format needs a multigraph instance")
        g = instance.graph
        lines = [f"p 2ecs {g.vertex_count} {len(g.edges)}"]
        lines += [f"e {u} {v}" if u < v else f"e {v} {u}" for u, v in g.edges]
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    return "\n".join(lines) + "\n"


def instance_digest(instance) -> str:
    """sha256 of the canonical text in the instance's natural kind."""
    return hashlib.sha256(write_instance(instance).encode()).hexdigest()


def parse_advice(text: str) -> list[int]:
    """Advice scripts: whitespace-separated ints, '#' comments allowed."""
    values: list[int] = []
    for no, tokens in _significant_lines(text):
        values.extend(_ints(tokens, no))
    return values


def write_advice(script) -> str:
    return " ".join(str(v) for v in script) + "\n"


WITNESS_TAG = "# opt-witness:"


def witness_comment(star_ids) -> str:
    return f"{WITNESS_TAG} {' '.join(str(s) for s in sorted(star_ids))}\n"


def extract_witness(text: str) -> tuple[int, ...] | None:
    """Pull an optimal-witness star-id list out of an instance file's comments."""
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith(WITNESS_TAG):
            tokens = stripped[len(WITNESS_TAG):].split()
            return tuple(_ints(tokens, no))
    return None
