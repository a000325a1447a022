"""Mutation fuzzing of the netlist parsers: malformed input must raise
:class:`~repro.netlist.NetlistError`, never an ``IndexError``,
``ValueError``, ``KeyError`` or any other crash.

Each seed is a well-formed file; hypothesis applies a few random byte
edits (delete, insert, overwrite, duplicate a span), so most examples
are *almost* valid, which is where the parsers' structural assumptions
live.  AIGER input also goes through :func:`aig_to_netlist`, exactly as
the command-line loader does.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netlist import (
    NetlistError,
    S27_BENCH,
    aig_to_netlist,
    netlist_to_aig,
    parse_aiger,
    parse_bench,
    parse_blif,
    s27,
    write_aiger,
    write_blif,
)

#: Binary AIGER 1.9 with one input, one latch (init 1), one AND, one
#: output, one bad-state property, symbols and a comment.
AIG_BIN = (b"aig 3 1 1 1 1 1\n6 1\n6\n7\n\x02\x02"
           b"i0 x\nl0 r\no0 out\nb0 bad\nc\ncomment\n")


def _aiger(data):
    aig_to_netlist(parse_aiger(data))


SEEDS = {
    "bench": (S27_BENCH.encode(),
              lambda data: parse_bench(data.decode("latin-1"))),
    "blif": (write_blif(s27()).encode(),
             lambda data: parse_blif(data.decode("latin-1"))),
    "aag": (write_aiger(netlist_to_aig(s27())[0]).encode(),
            lambda data: _aiger(data.decode("latin-1"))),
    "aig": (AIG_BIN, _aiger),
}

#: Insertions biased toward the formats' structural tokens.
TOKENS = [b" ", b"\n", b"0", b"1", b"2", b"7", b"-", b"x", b"(", b")",
          b",", b"=", b"#", b"c", b"i", b"l", b"o", b"b", b"DFF",
          b".names", b".latch", b"99999", b"\x80", b"\xff"]


@st.composite
def mutations(draw, seed):
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("delete", "insert", "replace",
                                   "duplicate")))
        pos = draw(st.integers(0, len(data)))
        if op == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        elif op == "insert":
            data[pos:pos] = draw(st.one_of(
                st.sampled_from(TOKENS), st.binary(min_size=1,
                                                   max_size=3)))
        elif op == "replace" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        else:
            data[pos:pos] = data[pos:pos + draw(st.integers(1, 8))]
    return bytes(data)


@pytest.mark.parametrize("fmt", sorted(SEEDS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_input_raises_only_netlist_error(fmt, data):
    seed, load = SEEDS[fmt]
    load(seed)  # the unmutated seed parses
    mutated = data.draw(mutations(seed))
    try:
        load(mutated)
    except NetlistError:
        pass
