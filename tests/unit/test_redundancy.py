"""Unit tests for the COM (redundancy removal) engine."""

import dataclasses

import pytest

from repro import obs
from repro.core import PROVEN, StepKind, prove
from repro.experiments import EXPERIMENT_SWEEP
from repro.gen import iscas89
from repro.netlist import GateType, NetlistBuilder, s27
from repro.sim import BitParallelSimulator
from repro.transform import SweepConfig, redundancy_removal
from repro.unroll import FALSIFIED, bmc

#: COM output on stock profiles under ``EXPERIMENT_SWEEP``: the
#: netlist ``signature()`` and the ``com.merges`` count.  The greatest
#: inductive refinement of the candidate classes is unique, so these
#: move only when the sweep's fixpoint does.
PINNED_SWEEPS = {
    "S27": ("4b126c386581f251ec526e953ebcc76c"
            "bc91039fd9a2e38b2e82ebf357fc79cb", 1),
    "S298": ("d5888ed88a11a964a2df1e09504301d3"
             "ca0e77574e8b0c41d6708cc74bfaa1c6", 6),
    "S641": ("bbc7fdd31df31e00a0e8a019c5cd6fdb"
             "95b5c82c5bcd4458b7cdd4969a802fc2", 5),
    "S953": ("887b295b897d870d099ef3fb5bab995b"
             "6869eae344a7ca96d1fa2178dd73fc0b", 12),
    "S1423": ("65029df803577a1b6b5ceb89121bc850"
              "c3992282860cf47492f9bcd7917d0bfa", 31),
}


def sweep(net, config):
    with obs.scoped(obs.Registry("com")) as reg:
        result = redundancy_removal(net, config=config)
    return result, reg.counter_value("com.merges")


def merged_groups(result):
    """Original vertices grouped by the output vertex they map to."""
    groups = {}
    for vid, out in result.mapping.items():
        if out is not None:
            groups.setdefault(out, set()).add(vid)
    return [g for g in groups.values() if len(g) > 1]


def same_behaviour(net_a, net_b, target_a, target_b, cycles=8):
    def stim(net):
        def f(vid, cycle):
            return (hash((net.gate(vid).name, cycle)) >> 4) & 1
        return f
    tr_a = BitParallelSimulator(net_a).run(cycles, stim(net_a),
                                           observe=[target_a])
    tr_b = BitParallelSimulator(net_b).run(cycles, stim(net_b),
                                           observe=[target_b])
    return tr_a[target_a] == tr_b[target_b]


class TestRedundancyRemoval:
    def test_step_is_trace_equivalent(self):
        net = s27()
        result = redundancy_removal(net)
        assert result.step.kind is StepKind.TRACE_EQUIVALENT
        assert result.step.name == "COM"

    def test_duplicate_logic_merged(self):
        b = NetlistBuilder("dup")
        x, y = b.input("x"), b.input("y")
        g1 = b.net.add_gate(GateType.AND, (x, y))
        g2 = b.net.add_gate(GateType.AND, (y, x))
        r1 = b.register(g1, name="r1")
        r2 = b.register(g2, name="r2")
        t = b.buf(b.xor(r1, r2), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        # r1 == r2 sequentially, so the XOR collapses to constant 0.
        mapped = result.step.target_map[t]
        assert result.netlist.gate(mapped).type is GateType.CONST0
        assert result.netlist.num_registers() == 0

    def test_constant_register_removed(self):
        b = NetlistBuilder("const")
        r = b.register(name="r")
        b.connect(r, r)  # stuck at 0
        x = b.input("x")
        t = b.buf(b.or_(r, x), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 0
        mapped = result.step.target_map[t]
        # OR(0, x) = x: target becomes the input directly.
        assert result.netlist.gate(mapped).type is GateType.INPUT

    def test_constant_one_register_removed(self):
        b = NetlistBuilder("const1")
        r = b.register(None, init=b.const1, name="r")
        b.connect(r, r)
        x = b.input("x")
        t = b.buf(b.and_(r, x), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 0

    def test_equivalent_registers_merged(self):
        # Two registers computing the same stream from the same input.
        b = NetlistBuilder("eqregs")
        x = b.input("x")
        r1 = b.register(x, name="r1")
        r2 = b.register(x, name="r2")
        t = b.buf(b.and_(r1, r2), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 1

    def test_inequivalent_not_merged(self):
        b = NetlistBuilder("noteq")
        x, y = b.input("x"), b.input("y")
        r1 = b.register(x, name="r1")
        r2 = b.register(y, name="r2")
        t = b.buf(b.xor(r1, r2), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 2

    def test_init_mismatch_blocks_merge(self):
        # Same next-state function but different initial values: the
        # base case must reject merging r1 with r2.  (The sweeper is
        # still allowed — and expected — to prove the XNOR target
        # itself constant 0, since r1 != r2 is inductive.)
        b = NetlistBuilder("initdiff")
        r1 = b.register(name="r1")  # init 0
        r2 = b.register(None, init=b.const1, name="r2")
        b.connect(r1, b.not_(r1))
        b.connect(r2, b.not_(r2))
        t = b.buf(b.xnor(r1, r2), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        mapped = result.step.target_map[t]
        assert result.netlist.gate(mapped).type is GateType.CONST0
        # And the merge was of the target with const-0, never r1 == r2:
        # a (wrong) r1/r2 merge would have made the target constant 1.
        assert same_behaviour(b.net, result.netlist, t, mapped)

    def test_semantics_preserved_on_s27(self):
        net = s27()
        result = redundancy_removal(net)
        mapped = result.step.target_map[net.targets[0]]
        assert same_behaviour(net, result.netlist, net.targets[0], mapped)

    def test_sequentially_equivalent_xor_chain(self):
        # g = x XOR x is constant 0; register of g is constant.
        b = NetlistBuilder("xc")
        x = b.input("x")
        g = b.net.add_gate(GateType.XOR, (x, x))
        r = b.register(g, name="r")
        t = b.buf(b.or_(r, x), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 0

    def test_deep_pipeline_not_merged_to_constant(self):
        # Regression: registers deep in a pipeline look constant under
        # a short random-simulation window; the inductive refinement
        # must run to fixpoint (peeling one stage per round) instead of
        # merging them with const-0 after a capped number of rounds.
        b = NetlistBuilder("deep")
        sig = b.input("i")
        for k in range(7):
            sig = b.register(sig, name=f"p{k}")
        t = b.buf(sig, name="t")
        b.net.add_target(t)
        config = SweepConfig(sim_cycles=3, sim_width=16)
        result = redundancy_removal(b.net, config=config)
        assert result.netlist.num_registers() == 7
        mapped = result.step.target_map[t]
        assert same_behaviour(b.net, result.netlist, t, mapped, cycles=12)

    def test_capped_rounds_discard_unconverged_classes(self):
        b = NetlistBuilder("deepcap")
        sig = b.input("i")
        for k in range(7):
            sig = b.register(sig, name=f"p{k}")
        t = b.buf(sig, name="t")
        b.net.add_target(t)
        config = SweepConfig(sim_cycles=3, sim_width=16, max_rounds=1)
        result = redundancy_removal(b.net, config=config)
        # With one round the refinement cannot converge; everything
        # must be dropped rather than merged unsoundly.
        assert result.netlist.num_registers() == 7
        mapped = result.step.target_map[t]
        assert same_behaviour(b.net, result.netlist, t, mapped, cycles=12)

    def test_config_budgets_respected(self):
        net = s27()
        config = SweepConfig(sim_cycles=2, sim_width=8, conflict_budget=1,
                             max_rounds=1)
        result = redundancy_removal(net, config=config)
        # With a tiny budget merges may be missed, but the result must
        # still be behaviourally sound.
        mapped = result.step.target_map[net.targets[0]]
        assert same_behaviour(net, result.netlist, net.targets[0], mapped)

    def test_nondeterministic_init_blocks_false_proof(self):
        # r1 starts at AND(i0..i11) and holds, r2 starts at 0 and
        # holds, r3 copies r1 a cycle late: the target r3 is hit at
        # time 1.  Random simulation almost never draws r1 = 1, so
        # r1, r2, r3 and const-0 start as one candidate class.  The
        # induction step alone proves that class; only the initial
        # states split r1 off, and r3 must then fall with it.
        b = NetlistBuilder("nondet-init")
        inputs = [b.input(f"i{k}") for k in range(12)]
        init = inputs[0]
        for x in inputs[1:]:
            init = b.and_(init, x)
        r1 = b.register(None, init=init, name="r1")
        b.connect(r1, r1)
        r2 = b.register(None, name="r2")
        b.connect(r2, r2)
        r3 = b.register(r1, name="r3")
        t = b.buf(r3, name="t")
        b.net.add_target(t)
        assert bmc(b.net, max_depth=2).status == FALSIFIED
        result = redundancy_removal(b.net)
        mapped = result.step.target_map[t]
        assert result.netlist.gate(mapped).type is not GateType.CONST0
        assert prove(b.net).status != PROVEN


class TestSweepParity:
    @pytest.mark.parametrize("design", sorted(PINNED_SWEEPS))
    def test_pinned_output(self, design):
        result, merges = sweep(iscas89.generate(design), EXPERIMENT_SWEEP)
        assert (result.netlist.signature(), merges) == \
            PINNED_SWEEPS[design]

    @pytest.mark.parametrize("design", ["S298", "S953", "S1423"])
    def test_zero_conflict_budget_merges_a_subset(self, design):
        net = iscas89.generate(design)
        full, _ = sweep(net, dataclasses.replace(
            EXPERIMENT_SWEEP, conflict_budget=None))
        starved, _ = sweep(net, dataclasses.replace(
            EXPERIMENT_SWEEP, conflict_budget=0))
        full_rep = {v: out for out, group in
                    enumerate(merged_groups(full)) for v in group}
        for group in merged_groups(starved):
            assert len({full_rep.get(v, v) for v in group}) == 1
        for target in net.targets:
            assert same_behaviour(net, starved.netlist, target,
                                  starved.step.target_map[target])
