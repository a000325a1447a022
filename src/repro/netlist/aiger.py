"""AIGER reader (ASCII ``aag`` and binary ``aig``) and writer.

AIGER is the standard interchange format of the hardware model-checking
community (HWMCC); supporting it makes the library's engines applicable
to real benchmark files.  Both variants are implemented:

* **ASCII** (``aag``) — every AND is a ``lhs rhs0 rhs1`` text line::

      aag M I L O A [B]
      <I input literals>
      <L latch lines:  lit next [init]>
      <O output literals>
      <B bad-state literals>          (AIGER 1.9)
      <A and lines:    lhs rhs0 rhs1>
      [i<k>/l<k>/o<k>/b<k> name]
      [c comment...]

* **Binary** (``aig``) — the distribution format of the HWMCC sets.
  Variables are densely renumbered (inputs ``1..I``, latches
  ``I+1..I+L``, ANDs after), so input lines vanish and latch lines
  drop the latch literal; the A AND definitions follow the ASCII
  prologue as two delta-coded varints each (LEB128-style, 7 data bits
  per byte, high bit = continuation)::

      lhs  = 2 * (I + L + k + 1)      (k-th AND, implicit)
      rhs0 = lhs  - delta0
      rhs1 = rhs0 - delta1

AIGER 1.9 ``B`` (bad-state) counts are accepted in both variants and
become the verification targets (:attr:`repro.netlist.aig.AIG.bad`);
the 1.9 invariant-constraint/justice/fairness sections (``C``/``J``/
``F``) are rejected explicitly when non-zero.  Literals follow AIGER
conventions (variable ``v`` has literals ``2v`` and ``2v+1``; literal
0/1 are the constants), matching the internal
:class:`~repro.netlist.aig.AIG` encoding directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .aig import AIG, FALSE, aig_node
from .types import NetlistError

#: Index of each optional AIGER 1.9 header field after M I L O A.
_EXTRA_FIELDS = ("B", "C", "J", "F")


def parse_aiger(data: Union[str, bytes], name: str = "aiger") -> AIG:
    """Parse AIGER (ASCII ``aag`` or binary ``aig``) into an :class:`AIG`.

    Accepts text or raw bytes; the header decides the variant, so
    HWMCC-style binary files load unmodified (pass bytes — binary
    files are not valid UTF-8 in general).
    """
    if isinstance(data, str):
        if data.startswith("aig ") or data.startswith("aig\n"):
            # Binary payload that travelled through a text API.
            return _parse_binary(data.encode("latin-1"), name)
        return _parse_ascii(data, name)
    blob = bytes(data)
    if blob.startswith(b"aig ") or blob.startswith(b"aig\n"):
        return _parse_binary(blob, name)
    try:
        return _parse_ascii(blob.decode("utf-8"), name)
    except UnicodeDecodeError as exc:
        raise NetlistError(
            "not an AIGER file (expected an 'aag' (ASCII) or 'aig' "
            "(binary) header)") from exc


def _parse_header(line: str) -> Tuple[int, ...]:
    """Parse ``aag/aig M I L O A [B [C [J [F]]]]`` into 9 counts.

    Missing 1.9 fields default to 0; non-zero C/J/F (constraints,
    justice, fairness) are rejected — they change the verification
    semantics and are not supported.
    """
    header = line.split()
    if not 6 <= len(header) <= 10:
        raise NetlistError(f"malformed AIGER header: {line!r}")
    try:
        counts = [int(x) for x in header[1:]]
    except ValueError as exc:
        raise NetlistError(f"malformed AIGER header: {line!r}") from exc
    if any(c < 0 for c in counts):
        raise NetlistError(f"malformed AIGER header: {line!r}")
    counts += [0] * (9 - len(counts))
    for field, count in zip(_EXTRA_FIELDS[1:], counts[6:]):
        if count:
            raise NetlistError(
                f"AIGER 1.9 '{field}' section is not supported "
                f"(header {line!r})")
    return tuple(counts)


def _fields(line: str, what: str, count: int,
            optional: int = 0) -> List[int]:
    """The leading ``count`` required and up to ``optional`` further
    fields of an AIGER body line, as non-negative integers (fields
    beyond those are ignored)."""
    parts = line.split()[:count + optional]
    if len(parts) < count:
        raise NetlistError(f"malformed AIGER {what} line: {line!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise NetlistError(
            f"malformed AIGER {what} line: {line!r}") from exc
    if any(v < 0 for v in values):
        raise NetlistError(f"malformed AIGER {what} line: {line!r}")
    return values


def _parse_ascii(text: str, name: str) -> AIG:
    """Parse ASCII AIGER text into an :class:`AIG`."""
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines or not lines[0].startswith("aag"):
        raise NetlistError(
            "not an AIGER file (expected an 'aag' (ASCII) or 'aig' "
            "(binary) header)")
    m, i, l, o, a, b, _, _, _ = _parse_header(lines[0])
    body = lines[1:]
    if len(body) < i + l + o + b + a:
        raise NetlistError("truncated AIGER body")

    input_lits = [_fields(body[k], "input", 1)[0] for k in range(i)]
    latch_lines = [_fields(body[i + k], "latch", 2, optional=1)
                   for k in range(l)]
    output_lits = [_fields(body[i + l + k], "output", 1)[0]
                   for k in range(o)]
    bad_lits = [_fields(body[i + l + o + k], "bad-state", 1)[0]
                for k in range(b)]
    and_lines = [_fields(body[i + l + o + b + k], "AND", 3)
                 for k in range(a)]
    symbols = body[i + l + o + b + a:]

    aig = AIG(name)
    lit_map: Dict[int, int] = {0: FALSE}

    def map_lit(aiger_lit: int) -> int:
        base = lit_map[aiger_lit & ~1]
        return base ^ (aiger_lit & 1)

    for lit in input_lits:
        if lit & 1 or lit == 0:
            raise NetlistError(f"invalid input literal {lit}")
        lit_map[lit] = aig.add_input()
    latch_next: List[Tuple[int, int]] = []
    for parts in latch_lines:
        lit, nxt = parts[0], parts[1]
        init = parts[2] if len(parts) > 2 else 0
        if init not in (0, 1):
            raise NetlistError(
                f"unsupported latch initial value {init} (only 0/1)")
        if lit & 1 or lit == 0:
            raise NetlistError(f"invalid latch literal {lit}")
        lit_map[lit] = aig.add_latch(init)
        latch_next.append((lit, nxt))

    # AND definitions may appear in any order in aag; resolve by
    # repeated passes (the dependency graph is acyclic by construction).
    pending = [tuple(p) for p in and_lines]
    for lhs, _, _ in pending:
        if lhs & 1 or lhs == 0:
            raise NetlistError(f"invalid AND lhs literal {lhs}")
    while pending:
        progressed = False
        deferred = []
        for lhs, rhs0, rhs1 in pending:
            if (rhs0 & ~1) in lit_map and (rhs1 & ~1) in lit_map:
                lit_map[lhs] = aig.add_and(map_lit(rhs0), map_lit(rhs1))
                progressed = True
            else:
                deferred.append((lhs, rhs0, rhs1))
        if not progressed:
            missing = sorted({r & ~1 for _, r0, r1 in deferred
                              for r in (r0, r1)} - set(lit_map))
            raise NetlistError(f"undefined AIGER literals: {missing}")
        pending = deferred
    for lit, nxt in latch_next:
        if (nxt & ~1) not in lit_map:
            raise NetlistError(f"latch next references unknown var {nxt}")
        aig.set_next(lit_map[lit], map_lit(nxt))
    for lit in output_lits:
        if (lit & ~1) not in lit_map:
            raise NetlistError(f"output references unknown var {lit}")
        aig.add_output(map_lit(lit))
    for lit in bad_lits:
        if (lit & ~1) not in lit_map:
            raise NetlistError(
                f"bad-state property references unknown var {lit}")
        aig.add_bad(map_lit(lit))

    ordered_inputs = [lit_map[lit] for lit in input_lits]
    ordered_latches = [lit_map[lit] for lit in (p[0] for p in latch_next)]
    _apply_symbols(aig, symbols, ordered_inputs, ordered_latches)
    return aig


def _parse_binary(data: bytes, name: str) -> AIG:
    """Parse binary AIGER bytes into an :class:`AIG`."""
    end = data.find(b"\n")
    if end < 0:
        raise NetlistError("truncated binary AIGER header")
    m, i, l, o, a, b, _, _, _ = \
        _parse_header(data[:end].decode("ascii", "replace"))
    if m != i + l + a:
        raise NetlistError(
            f"malformed binary AIGER header: M ({m}) must equal "
            f"I + L + A ({i + l + a})")
    pos = end + 1
    # Every latch/output/bad line and every AND takes at least two
    # bytes: reject impossible counts before allocating for them.
    if 2 * (l + o + b + a) > len(data) - pos:
        raise NetlistError("truncated AIGER body")

    def next_line() -> str:
        nonlocal pos
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise NetlistError("truncated AIGER body")
        line = data[pos:nl].decode("ascii", "replace")
        pos = nl + 1
        return line

    aig = AIG(name)
    # Binary AIGER numbers variables densely: inputs 1..I, latches
    # I+1..I+L, ANDs above; inputs are implicit (no lines at all) and
    # latch lines drop the latch literal.
    lit_of: List[int] = [FALSE] * (m + 1)
    for var in range(1, i + 1):
        lit_of[var] = aig.add_input()
    latch_next: List[int] = []
    for k in range(l):
        parts = _fields(next_line(), "latch", 1, optional=1)
        init = parts[1] if len(parts) > 1 else 0
        if init not in (0, 1):
            raise NetlistError(
                f"unsupported latch initial value {init} (only 0/1)")
        lit_of[i + k + 1] = aig.add_latch(init)
        latch_next.append(parts[0])
    output_lits = [_fields(next_line(), "output", 1)[0]
                   for _ in range(o)]
    bad_lits = [_fields(next_line(), "bad-state", 1)[0]
                for _ in range(b)]

    def read_delta() -> int:
        nonlocal pos
        value = 0
        shift = 0
        while True:
            if pos >= len(data):
                raise NetlistError(
                    "truncated binary AIGER AND section")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def map_lit(aiger_lit: int) -> int:
        var = aiger_lit >> 1
        if var > m:
            raise NetlistError(
                f"literal {aiger_lit} exceeds maximum variable {m}")
        return lit_of[var] ^ (aiger_lit & 1)

    for k in range(a):
        lhs = 2 * (i + l + k + 1)
        delta0 = read_delta()
        delta1 = read_delta()
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if delta0 == 0 or rhs1 < 0:
            raise NetlistError(
                f"invalid delta encoding for AND {lhs}: "
                f"rhs0={rhs0} rhs1={rhs1}")
        lit_of[lhs >> 1] = aig.add_and(map_lit(rhs0), map_lit(rhs1))
    # Latch next-state literals may reference AND variables, so they
    # resolve only after the AND section.
    for k, nxt in enumerate(latch_next):
        aig.set_next(lit_of[i + k + 1], map_lit(nxt))
    for lit in output_lits:
        aig.add_output(map_lit(lit))
    for lit in bad_lits:
        aig.add_bad(map_lit(lit))

    symbols = data[pos:].decode("ascii", "replace").splitlines()
    ordered_inputs = [lit_of[var] for var in range(1, i + 1)]
    ordered_latches = [lit_of[i + k + 1] for k in range(l)]
    _apply_symbols(aig, symbols, ordered_inputs, ordered_latches)
    return aig


def _apply_symbols(aig: AIG, symbols: List[str],
                   ordered_inputs: List[int],
                   ordered_latches: List[int]) -> None:
    """Apply ``i<k>/l<k>/o<k>/b<k> name`` symbol lines to ``aig``."""
    for line in symbols:
        if not line or line[0] == "c":
            break
        kind, _, rest = line.partition(" ")
        if not kind:
            raise NetlistError(f"malformed AIGER symbol line: {line!r}")
        # Well-formed symbols of other kinds (e.g. AIGER 1.9 j/f) and
        # out-of-range indices are skipped.
        if not rest or kind[0] not in "ilob" or not kind[1:].isdecimal():
            continue
        idx = int(kind[1:])
        if kind[0] == "i" and idx < len(ordered_inputs):
            aig.names[aig_node(ordered_inputs[idx])] = rest
        elif kind[0] == "l" and idx < len(ordered_latches):
            aig.names[aig_node(ordered_latches[idx])] = rest
        elif kind[0] == "o" and idx < len(aig.outputs):
            aig.names.setdefault(aig_node(aig.outputs[idx]), rest)
        elif kind[0] == "b" and idx < len(aig.bad):
            aig.names.setdefault(aig_node(aig.bad[idx]), rest)


def write_aiger(aig: AIG, comment: Optional[str] = None) -> str:
    """Serialize an :class:`AIG` to ASCII AIGER text.

    Nodes are renumbered into AIGER's canonical order (inputs, then
    latches, then ANDs) so the output is maximally portable.  Bad-state
    properties, when present, are written as an AIGER 1.9 ``B`` section
    (files without them keep the plain five-count header).
    """
    var_of: Dict[int, int] = {0: 0}
    next_var = 1
    for node in aig.inputs:
        var_of[node] = next_var
        next_var += 1
    for node in aig.latches:
        var_of[node] = next_var
        next_var += 1
    and_nodes = [n for n in range(1, len(aig)) if aig.kind(n) == "and"]
    for node in and_nodes:
        var_of[node] = next_var
        next_var += 1

    def out_lit(lit: int) -> int:
        return (var_of[aig_node(lit)] << 1) | (lit & 1)

    m = next_var - 1
    header = (f"aag {m} {len(aig.inputs)} {len(aig.latches)} "
              f"{len(aig.outputs)} {len(and_nodes)}")
    if aig.bad:
        header += f" {len(aig.bad)}"
    lines = [header]
    for node in aig.inputs:
        lines.append(str(var_of[node] << 1))
    for node in aig.latches:
        init = aig.init_of(node)
        suffix = f" {init}" if init else ""
        lines.append(f"{var_of[node] << 1} {out_lit(aig.next_of(node))}"
                     f"{suffix}")
    for lit in aig.outputs:
        lines.append(str(out_lit(lit)))
    for lit in aig.bad:
        lines.append(str(out_lit(lit)))
    for node in and_nodes:
        a, b = aig.fanins(node)
        la, lb = out_lit(a), out_lit(b)
        if la < lb:
            la, lb = lb, la
        lines.append(f"{var_of[node] << 1} {la} {lb}")
    for idx, node in enumerate(aig.inputs):
        if node in aig.names:
            lines.append(f"i{idx} {aig.names[node]}")
    for idx, node in enumerate(aig.latches):
        if node in aig.names:
            lines.append(f"l{idx} {aig.names[node]}")
    for idx, lit in enumerate(aig.outputs):
        if aig_node(lit) in aig.names:
            lines.append(f"o{idx} {aig.names[aig_node(lit)]}")
    for idx, lit in enumerate(aig.bad):
        if aig_node(lit) in aig.names:
            lines.append(f"b{idx} {aig.names[aig_node(lit)]}")
    if comment:
        lines.append("c")
        lines.append(comment)
    return "\n".join(lines) + "\n"
