"""ISCAS89 BENCH format reader and writer.

The BENCH format is the textual netlist format the ISCAS89 benchmark
suite (the designs of Table 1) is distributed in::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G5 = DFF(G10)
    G10 = NAND(G0, G5)

``DFF`` state elements are mapped to registers with constant-0 initial
values, the ISCAS89 convention.  The full (public) ``s27`` circuit is
embedded as :data:`S27_BENCH` and serves as a golden reference in the
test-suite; the remaining Table 1 designs are synthesized by profile
(:mod:`repro.gen.iscas89`) as documented in ``DESIGN.md``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .netlist import Netlist
from .types import GateType, NetlistError

_LINE_RE = re.compile(r"^(\w+)\s*=\s*(\w+)\s*\(([^)]*)\)\s*$")
_IO_RE = re.compile(r"^(INPUT|OUTPUT)\s*\((\w+)\)\s*$")

_GATE_BY_OP = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
}

_OP_BY_GATE = {
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.NOT: "NOT",
    GateType.BUF: "BUFF",
}


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse BENCH ``text`` into a netlist.

    Every primary output is also registered as a verification target,
    matching the experimental setup of Section 4.
    """
    inputs: List[str] = []
    outputs: List[str] = []
    defs: List[Tuple[str, str, List[str]]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io = _IO_RE.match(line)
        if io:
            (inputs if io.group(1) == "INPUT" else outputs).append(io.group(2))
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise NetlistError(f"unparseable BENCH line: {raw!r}")
        lhs, op, args = m.group(1), m.group(2).upper(), m.group(3)
        fanins = [a.strip() for a in args.split(",") if a.strip()]
        defs.append((lhs, op, fanins))

    net = Netlist(name)
    vid_by_signal: Dict[str, int] = {}
    for sig in inputs:
        vid_by_signal[sig] = net.add_gate(GateType.INPUT, (), name=sig)

    # First pass: create registers (they may be read before their
    # next-state functions are definable).
    const0 = None
    for lhs, op, fanins in defs:
        if op == "DFF":
            if const0 is None:
                const0 = net.const0()
            vid_by_signal[lhs] = net.add_gate(
                GateType.REGISTER, (const0, const0), name=lhs
            )

    # Second pass: combinational gates, in dependency order.
    pending = [(lhs, op, fanins) for lhs, op, fanins in defs if op != "DFF"]
    while pending:
        progressed = False
        deferred = []
        for lhs, op, fanins in pending:
            if all(f in vid_by_signal for f in fanins):
                gtype = _GATE_BY_OP.get(op)
                if gtype is None:
                    raise NetlistError(f"unknown BENCH gate type {op!r}")
                vid_by_signal[lhs] = net.add_gate(
                    gtype, tuple(vid_by_signal[f] for f in fanins), name=lhs
                )
                progressed = True
            else:
                deferred.append((lhs, op, fanins))
        if not progressed:
            missing = {f for _, _, fs in deferred for f in fs} - set(vid_by_signal)
            raise NetlistError(f"undefined BENCH signals: {sorted(missing)}")
        pending = deferred

    # Third pass: wire register next-state edges.
    for lhs, op, fanins in defs:
        if op == "DFF":
            if len(fanins) != 1:
                raise NetlistError(f"DFF {lhs} must have exactly one fanin")
            if fanins[0] not in vid_by_signal:
                raise NetlistError(
                    f"DFF {lhs} reads undefined signal {fanins[0]!r}")
            reg = vid_by_signal[lhs]
            init = net.gate(reg).fanins[1]
            net.set_fanins(reg, (vid_by_signal[fanins[0]], init))

    for sig in outputs:
        if sig not in vid_by_signal:
            raise NetlistError(f"undefined output signal {sig!r}")
        net.add_output(vid_by_signal[sig])
        net.add_target(vid_by_signal[sig])
    return net


def write_bench(net: Netlist) -> str:
    """Serialize ``net`` to BENCH text.

    Requires a netlist expressible in BENCH: no latches, no muxes and
    constant-0 register initial values.  Unnamed vertices get ``n<id>``
    names.
    """

    def label(vid: int) -> str:
        gate = net.gate(vid)
        return gate.name if gate.name else f"n{vid}"

    # The constant-0 vertex needs encoding only if it feeds real logic;
    # register init edges are implicit in DFF semantics.
    const_users = False
    for vid, gate in net.gates():
        fanins = gate.fanins
        if gate.type is GateType.REGISTER:
            fanins = fanins[:1]
        for f in fanins:
            if net.gate(f).type is GateType.CONST0:
                const_users = True
    for out in net.outputs:
        if net.gate(out).type is GateType.CONST0:
            const_users = True

    lines = [f"# {net.name}"]
    body: List[str] = []
    for vid, gate in net.gates():
        if gate.type is GateType.INPUT:
            lines.append(f"INPUT({label(vid)})")
        elif gate.type is GateType.REGISTER:
            nxt, init = gate.fanins
            if net.gate(init).type is not GateType.CONST0:
                raise NetlistError(
                    "BENCH supports only constant-0 register initial values"
                )
            body.append(f"{label(vid)} = DFF({label(nxt)})")
        elif gate.type is GateType.CONST0:
            pass
        elif gate.type in _OP_BY_GATE:
            args = ", ".join(label(f) for f in gate.fanins)
            body.append(f"{label(vid)} = {_OP_BY_GATE[gate.type]}({args})")
        else:
            raise NetlistError(
                f"gate type {gate.type.value} is not expressible in BENCH"
            )
    if const_users:
        # BENCH has no constants; model const-0 as x AND NOT x over a
        # dedicated dummy input.
        for vid, gate in net.gates():
            if gate.type is GateType.CONST0:
                lines.append("INPUT(__zero_in)")
                body.insert(0, f"{label(vid)}_n = NOT(__zero_in)")
                body.insert(1, f"{label(vid)} = AND(__zero_in, {label(vid)}_n)")
    for out in net.outputs:
        lines.append(f"OUTPUT({label(out)})")
    lines.extend(body)
    return "\n".join(lines) + "\n"


#: The complete public ISCAS89 ``s27`` benchmark.
S27_BENCH = """\
# s27 (ISCAS89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
"""


def s27() -> Netlist:
    """The ISCAS89 ``s27`` netlist (3 registers, 4 inputs, 1 output)."""
    return parse_bench(S27_BENCH, name="s27")
