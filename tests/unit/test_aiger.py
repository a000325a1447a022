"""Unit tests for AIGER I/O (ASCII ``aag`` and binary ``aig``)."""

import pytest

from repro.netlist import (
    AIG,
    NetlistError,
    aig_node,
    aig_not,
    aig_to_netlist,
    netlist_to_aig,
    parse_aiger,
    s27,
    write_aiger,
)

#: The canonical AIGER toggle example (latch toggling every cycle).
TOGGLE = """\
aag 1 0 1 2 0
2 3
2
3
l0 toggle
"""

#: A tiny combinational example: o = a AND b.
AND2 = """\
aag 3 2 0 1 1
2
4
6
6 2 4
i0 a
i1 b
o0 and_ab
"""


class TestParse:
    def test_and2(self):
        aig = parse_aiger(AND2)
        assert len(aig.inputs) == 2
        assert aig.num_ands() == 1
        a, b = aig.inputs
        values, _ = aig.evaluate({a: 1, b: 1})
        assert aig.lit_value(values, aig.outputs[0]) == 1
        values, _ = aig.evaluate({a: 1, b: 0})
        assert aig.lit_value(values, aig.outputs[0]) == 0
        assert aig.names[a] == "a"

    def test_toggle(self):
        aig = parse_aiger(TOGGLE)
        assert len(aig.latches) == 1
        lat = aig.latches[0]
        assert aig.next_of(lat) == aig_not(lat << 1)
        assert aig.names[lat] == "toggle"
        assert len(aig.outputs) == 2

    def test_out_of_order_ands(self):
        text = ("aag 4 1 0 1 2\n"
                "2\n"
                "8\n"
                "8 6 6\n"   # depends on 6, defined after
                "6 2 3\n")  # x AND NOT x = 0
        aig = parse_aiger(text)
        values, _ = aig.evaluate({aig.inputs[0]: 1})
        assert aig.lit_value(values, aig.outputs[0]) == 0

    def test_latch_init_values(self):
        text = "aag 1 0 1 1 0\n2 2 1\n2\n"
        aig = parse_aiger(text)
        assert aig.init_of(aig.latches[0]) == 1

    def test_rejects_truncated(self):
        with pytest.raises(NetlistError):
            parse_aiger("aag 2 2 0 0 0\n2\n")

    def test_header_error_names_both_variants(self):
        # Regression: a non-AIGER payload used to be reported as
        # "missing 'aag' header", wrongly implying binary files were
        # AIGER-invalid rather than merely a different variant.
        with pytest.raises(NetlistError, match=r"'aag'.*'aig'"):
            parse_aiger("MODULE main\n")

    def test_rejects_undefined_literal(self):
        with pytest.raises(NetlistError):
            parse_aiger("aag 2 1 0 1 0\n2\n8\n")

    def test_rejects_odd_input_literal(self):
        with pytest.raises(NetlistError):
            parse_aiger("aag 1 1 0 0 0\n3\n")

    def test_rejects_nonbinary_latch_init(self):
        with pytest.raises(NetlistError):
            parse_aiger("aag 2 0 1 0 0\n2 2 4\n")

    @pytest.mark.parametrize("text", [
        "aag 2 1 0 1 1\n2\n4\n4 2\n",      # AND line missing rhs1
        "aag 2 1 0 1 1\n2\n4\n4 2 x\n",    # non-numeric AND field
        "aag 1 1 0 0 0\nx\n",                # non-numeric input
        "aag 1 0 1 0 0\n2\n",                # latch line missing next
        "aag 1 1 0 1 0\n2\n-2\n",           # negative output literal
    ])
    def test_malformed_body_line_raises_netlist_error(self, text):
        # Mutation-fuzz finds: these used to escape as IndexError /
        # ValueError from the body-line parsing.
        with pytest.raises(NetlistError, match="malformed AIGER"):
            parse_aiger(text)

    def test_symbol_line_without_kind_raises_netlist_error(self):
        # A symbol line starting with a space used to raise
        # IndexError on its empty kind token.
        with pytest.raises(NetlistError, match="symbol line"):
            parse_aiger(AND2 + " a\n")


#: Binary rendition of AND2 (inputs implicit; one AND, delta-coded).
AND2_BIN = b"aig 3 2 0 1 1\n6\n\x02\x02i0 a\ni1 b\no0 and_ab\n"

#: Binary rendition of TOGGLE (latch line drops the latch literal).
TOGGLE_BIN = b"aig 1 0 1 2 0\n3\n2\n3\nl0 toggle\n"


class TestParseBinary:
    def test_and2_binary_matches_ascii(self):
        aig = parse_aiger(AND2_BIN)
        assert len(aig.inputs) == 2
        assert aig.num_ands() == 1
        a, b = aig.inputs
        for va, vb in ((1, 1), (1, 0), (0, 1), (0, 0)):
            values, _ = aig.evaluate({a: va, b: vb})
            assert aig.lit_value(values, aig.outputs[0]) == va & vb
        assert aig.names[a] == "a"

    def test_toggle_binary(self):
        aig = parse_aiger(TOGGLE_BIN)
        assert len(aig.latches) == 1
        lat = aig.latches[0]
        assert aig.next_of(lat) == aig_not(lat << 1)
        assert aig.names[lat] == "toggle"
        assert len(aig.outputs) == 2

    def test_multibyte_varint_delta(self):
        # 70 inputs; the single AND (lhs 142) references input
        # variable 2, so delta0 = 138 needs a two-byte varint
        # (0x8A 0x01 = 10 + 128).
        data = b"aig 71 70 0 1 1\n142\n\x8a\x01\x02"
        aig = parse_aiger(data)
        assert aig.num_ands() == 1
        i0, i1 = aig.inputs[0], aig.inputs[1]
        values, _ = aig.evaluate({i0: 1, i1: 1})
        assert aig.lit_value(values, aig.outputs[0]) == 1
        values, _ = aig.evaluate({i0: 1, i1: 0})
        assert aig.lit_value(values, aig.outputs[0]) == 0

    def test_latch_next_may_reference_and_var(self):
        # next(latch) = input AND latch: the AND section resolves
        # after the latch prologue.
        data = b"aig 3 1 1 0 1 1\n6\n6\n\x02\x02"
        aig = parse_aiger(data)
        lat = aig.latches[0]
        assert aig.kind(aig_node(aig.next_of(lat))) == "and"
        assert len(aig.bad) == 1

    def test_binary_via_text_api(self):
        # A binary payload read through a text-mode file still parses.
        aig = parse_aiger(AND2_BIN.decode("latin-1"))
        assert aig.num_ands() == 1

    def test_rejects_truncated_and_section(self):
        # Declares one AND but carries no delta bytes (this exact
        # input used to fail with the misleading "missing 'aag'
        # header" message).
        with pytest.raises(NetlistError, match="truncated"):
            parse_aiger("aig 1 0 0 0 1\n")

    def test_rejects_inconsistent_counts(self):
        with pytest.raises(NetlistError, match="M"):
            parse_aiger(b"aig 5 2 0 1 1\n6\n\x02\x02")

    def test_rejects_zero_delta(self):
        # delta0 = 0 would make the AND depend on itself.
        with pytest.raises(NetlistError, match="delta"):
            parse_aiger(b"aig 3 2 0 1 1\n6\n\x00\x02")

    def test_rejects_truncated_varint_mid_and(self):
        # The AND section ends after the FIRST byte of a two-byte
        # varint (0x8a has the continuation bit set) — a cut in the
        # middle of a delta, not merely a missing delta.  Must be the
        # named truncation diagnostic, never an IndexError.
        with pytest.raises(NetlistError, match="truncated.*AND"):
            parse_aiger(b"aig 71 70 0 1 1\n142\n\x8a")

    def test_rejects_header_count_mismatch_names_fields(self):
        # The M != I + L + A diagnostic spells out both sides.
        with pytest.raises(NetlistError,
                           match=r"M \(5\) must equal I \+ L \+ A"):
            parse_aiger(b"aig 5 2 0 1 1\n6\n\x02\x02")

    @pytest.mark.parametrize("data", [
        b"aig 1 0 1 0 0\n2 x\n",      # non-numeric latch init
        b"aig 1 0 1 0 0\nx\n",        # non-numeric latch next
        b"aig 1 0 1 1 0\n2\n\x02\n",  # non-numeric output
    ])
    def test_malformed_line_raises_netlist_error(self, data):
        # Mutation-fuzz finds: these used to escape as ValueError.
        with pytest.raises(NetlistError, match="malformed AIGER"):
            parse_aiger(data)

    def test_binary_symbol_line_without_kind_raises_netlist_error(self):
        with pytest.raises(NetlistError, match="symbol line"):
            parse_aiger(AND2_BIN + b" a\n")

    def test_rejects_bad_state_literal_out_of_range(self):
        # A B (bad-state) line referencing a variable beyond M must
        # be a named range diagnostic, not a downstream IndexError.
        with pytest.raises(NetlistError,
                           match="literal 99 exceeds maximum variable"):
            parse_aiger(b"aig 1 0 1 0 0 1\n3\n99\n")


class TestBadStateProperties:
    def test_ascii_bad_lines_become_targets(self):
        text = "aag 1 0 1 1 0 1\n2 3\n3\n2\nb0 unsafe\n"
        aig = parse_aiger(text)
        assert aig.bad == [aig.latches[0] << 1]
        assert len(aig.outputs) == 1
        net, _ = aig_to_netlist(aig)
        # Bad properties define the targets; outputs stay outputs.
        assert len(net.targets) == 1
        assert len(net.outputs) == 1
        assert net.targets != net.outputs

    def test_binary_bad_lines_become_targets(self):
        data = b"aig 1 0 1 0 0 1\n3\n2\nb0 unsafe\n"
        aig = parse_aiger(data)
        assert len(aig.bad) == 1
        net, _ = aig_to_netlist(aig)
        assert len(net.targets) == 1
        assert net.outputs == []

    def test_without_bad_outputs_double_as_targets(self):
        aig = parse_aiger(TOGGLE)
        net, _ = aig_to_netlist(aig)
        assert net.targets == net.outputs

    def test_bad_survives_write_round_trip(self):
        aig = AIG()
        a = aig.add_input("alpha")
        lat = aig.add_latch(0, "state")
        aig.set_next(lat, a)
        aig.add_bad(lat, "unsafe")
        text = write_aiger(aig)
        assert " 1\n" in text.splitlines()[0] + "\n"
        again = parse_aiger(text)
        assert len(again.bad) == 1
        assert again.names[aig_node(again.bad[0])] == "state"

    def test_unsupported_19_sections_rejected(self):
        with pytest.raises(NetlistError, match="'C'"):
            parse_aiger("aag 0 0 0 0 0 0 1\n")
        with pytest.raises(NetlistError, match="'J'"):
            parse_aiger("aag 0 0 0 0 0 0 0 1\n")
        with pytest.raises(NetlistError, match="'F'"):
            parse_aiger("aag 0 0 0 0 0 0 0 0 1\n")


class TestWriteRoundTrip:
    def test_round_trip_and2(self):
        aig = parse_aiger(AND2)
        text = write_aiger(aig, comment="round trip")
        again = parse_aiger(text)
        assert again.num_ands() == aig.num_ands()
        a, b = again.inputs
        values, _ = again.evaluate({a: 1, b: 1})
        assert again.lit_value(values, again.outputs[0]) == 1

    def test_round_trip_s27(self):
        net = s27()
        aig, _ = netlist_to_aig(net)
        text = write_aiger(aig)
        again = parse_aiger(text, name="s27-rt")
        assert len(again.latches) == 3
        assert len(again.inputs) == 4
        # Behavioural spot-check across a few cycles.
        state_a = state_b = None
        for cycle in range(6):
            ins_a = {n: (cycle + i) % 2
                     for i, n in enumerate(aig.inputs)}
            ins_b = {n: (cycle + i) % 2
                     for i, n in enumerate(again.inputs)}
            va, state_a = aig.evaluate(ins_a, state_a)
            vb, state_b = again.evaluate(ins_b, state_b)
            assert aig.lit_value(va, aig.outputs[0]) == \
                again.lit_value(vb, again.outputs[0])

    def test_names_survive_round_trip(self):
        aig = AIG()
        a = aig.add_input("alpha")
        lat = aig.add_latch(0, "state")
        aig.set_next(lat, a)
        aig.add_output(lat, "obs")
        again = parse_aiger(write_aiger(aig))
        assert "alpha" in again.names.values()
        assert "state" in again.names.values()

    def test_and_operand_ordering_canonical(self):
        # AIGER convention: rhs0 >= rhs1 in each AND line.
        net = s27()
        aig, _ = netlist_to_aig(net)
        for line in write_aiger(aig).splitlines():
            parts = line.split()
            if len(parts) == 3 and all(p.isdigit() for p in parts):
                lhs, r0, r1 = (int(p) for p in parts)
                if lhs % 2 == 0 and lhs > max(r0, r1):
                    assert r0 >= r1


class TestNetlistBridge:
    def test_netlist_via_aiger_text(self):
        net = s27()
        aig, _ = netlist_to_aig(net)
        text = write_aiger(aig)
        back, _ = aig_to_netlist(parse_aiger(text))
        assert back.num_registers() == 3
        assert len(back.targets) == 1
