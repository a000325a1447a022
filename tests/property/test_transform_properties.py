"""Property tests: transformations keep bounds sound end-to-end.

For every random netlist and every sound strategy pipeline, the
back-translated bound must dominate the exact first-hit time, and
trace-equivalence-preserving engines must not change target behaviour.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import PROVEN, TBVEngine
from repro.diameter import first_hit_time
from repro.netlist import NetlistBuilder
from repro.sim import BitParallelSimulator
from repro.transform import SweepConfig, redundancy_removal, retime

from .strategies import named_stimulus, small_netlists

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])

FAST = SweepConfig(sim_cycles=6, sim_width=32, conflict_budget=200)
#: One simulation pattern: coarse candidate classes, so the SAT
#: refinement (base and step) does nearly all the splitting.
WEAK = SweepConfig(sim_cycles=1, sim_width=1, conflict_budget=200)


def _swapped_registers():
    """r0 (init 0) and r1 (init i1) swap values every cycle; the
    target r0 is first hit at time 1.  A sweep that proves the
    induction step before checking initial states keeps r0 == const-0
    after dropping only r1, and maps the target to constant 0."""
    b = NetlistBuilder("swap")
    b.input("i0")
    i1 = b.input("i1")
    r0 = b.register(name="r0")
    r1 = b.register(r0, init=i1, name="r1")
    b.connect(r0, r1)
    b.net.add_target(b.buf(r0, name="t"))
    return b.net


@SETTINGS
@given(small_netlists())
def test_com_preserves_target_traces(net):
    result = redundancy_removal(net, config=FAST)
    target = net.targets[0]
    mapped = result.step.target_map[target]
    tr_a = BitParallelSimulator(net).run(
        10, named_stimulus(net), observe=[target])
    tr_b = BitParallelSimulator(result.netlist).run(
        10, named_stimulus(result.netlist), observe=[mapped])
    assert tr_a[target] == tr_b[mapped]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(small_netlists(max_registers=4, max_inputs=3))
@example(_swapped_registers())
def test_com_weak_simulation_keeps_first_hit(net):
    target = net.targets[0]
    result = redundancy_removal(net, config=WEAK)
    mapped = result.step.target_map[target]
    assert first_hit_time(result.netlist, mapped) == \
        first_hit_time(net, target)


@SETTINGS
@given(small_netlists(allow_nondet_init=False))
def test_retime_trace_equivalent_modulo_lag(net):
    result = retime(net)
    out = result.netlist
    target = net.targets[0]
    lag = result.step.lags[target]
    mapped = result.step.target_map[target]
    input_lags = result.info["input_lags"]

    import zlib

    def ret_stim(vid, cycle):
        name = out.gate(vid).name or ""
        if name.startswith("__stump"):
            time_str, _, label = name[len("__stump"):].partition("_")
            return (zlib.crc32(f"{label}:{time_str}:0".encode()) >> 3) & 1
        t = cycle + input_lags.get(name, 0)
        return (zlib.crc32(f"{name}:{t}:0".encode()) >> 3) & 1

    cycles = 8
    tr_a = BitParallelSimulator(net).run(
        cycles + lag, named_stimulus(net), observe=[target])
    tr_b = BitParallelSimulator(out).run(
        cycles, ret_stim, observe=[mapped])
    assert tr_b[mapped] == tr_a[target][lag:lag + cycles]


@SETTINGS
@given(small_netlists(max_registers=3, max_inputs=2),
       st.sampled_from(["COM", "COM,RET,COM", "RET"]))
def test_tbv_bound_sound_for_all_strategies(net, strategy):
    target = net.targets[0]
    hit = first_hit_time(net, target)
    report = TBVEngine(strategy, sweep_config=FAST).run(net).reports[0]
    if report.status == PROVEN:
        assert hit is None
    elif hit is not None:
        assert report.bound is not None and hit < report.bound


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(small_netlists(max_registers=3, max_inputs=2))
def test_com_output_formally_equivalent(net):
    # Machine-checked Theorem 1 premise: the COM result is sequentially
    # equivalent to the original, decided by a miter (not simulation).
    from repro.transform import EQUIVALENT, UNDECIDED, check_equivalence

    result = redundancy_removal(net, config=FAST)
    mapped = result.step.target_map[net.targets[0]]
    verdict = check_equivalence(
        net, result.netlist, pairs=[(net.targets[0], mapped)],
        sweep_config=FAST, max_depth=16, induction_k=4)
    assert verdict.verdict in (EQUIVALENT, UNDECIDED)
    assert verdict.verdict != "different"


@SETTINGS
@given(small_netlists(max_registers=3, max_inputs=2))
def test_proven_targets_really_unreachable(net):
    target = net.targets[0]
    report = TBVEngine("COM", sweep_config=FAST).run(net).reports[0]
    if report.status == PROVEN:
        assert first_hit_time(net, target) is None
