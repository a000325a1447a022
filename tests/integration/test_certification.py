"""End-to-end certification integration tests.

The ISSUE's acceptance bar: certified verdicts are byte-identical to
uncertified ones on healthy runs; an injected ``corrupt_learnt`` /
``corrupt_model`` fault is *caught* by the proof checker or witness
replay while the uncertified path silently accepts the answer; and
:func:`repro.core.prove` degrades gracefully to the sound structural
bound whenever certification fails.
"""

import importlib

import pytest

from repro import obs
from repro.cert import CertificationFailure, use_certification
from repro.core import prove
from repro.gen import iscas89
from repro.netlist import NetlistBuilder
from repro.parallel import WorkerOutcome
from repro.resilience import FAULT_CORRUPT_MODEL, FaultPlan, inject
from repro.unroll import (
    BOUNDED,
    FALSIFIED,
    PROVEN,
    bmc,
    k_induction,
)


def counter_target(width, hit_value):
    b = NetlistBuilder(f"counter{width}")
    regs = b.registers(width, prefix="c")
    b.connect_word(regs, b.increment(regs))
    t = b.buf(b.word_eq(regs, b.word_const(hit_value, width)),
              name="t")
    b.net.add_target(t)
    return b.net, t


def unreachable_target():
    b = NetlistBuilder("stuck")
    r = b.register(name="r")
    b.connect(r, r)
    b.net.add_target(r)
    return b.net, r


def s1269():
    """The pinned adversarial instance: large enough that BMC actually
    learns clauses (pure counters solve by propagation alone, so the
    ``corrupt_learnt`` fault would never fire on them)."""
    return iscas89.generate("s1269")


class TestVerdictIdentity:
    """Certification must never change an answer, only audit it."""

    @pytest.mark.parametrize("design", ["s27", "s298"])
    def test_iscas_bmc_verdicts_identical(self, design):
        net = iscas89.generate(design)
        plain = bmc(net, max_depth=12, certify=False)
        certified = bmc(net, max_depth=12, certify=True)
        assert certified.status == plain.status
        assert certified.depth_checked == plain.depth_checked
        if plain.counterexample is None:
            assert certified.counterexample is None
        else:
            assert certified.counterexample.depth == \
                plain.counterexample.depth
            assert certified.counterexample.inputs == \
                plain.counterexample.inputs
            assert certified.counterexample.initial_state == \
                plain.counterexample.initial_state

    def test_counterexample_certified(self):
        net, t = counter_target(3, 5)
        with obs.scoped(obs.Registry("cert-int")) as reg:
            result = bmc(net, t, max_depth=10, certify=True)
            snap = reg.snapshot()
        assert result.status == FALSIFIED
        assert result.counterexample.depth == 5
        # Witness replay ran and the refuted frames 0..4 were
        # proof-checked: two checks, zero failures.
        assert snap["counters"]["cert.checked"] == 2
        assert "cert.failed" not in snap["counters"]

    def test_proven_bmc_certified(self):
        net, t = unreachable_target()
        with obs.scoped(obs.Registry("cert-int")) as reg:
            result = bmc(net, t, max_depth=8, complete_bound=4,
                         certify=True)
            snap = reg.snapshot()
        assert result.status == PROVEN
        assert snap["counters"]["cert.checked"] == 1

    def test_k_induction_proof_certified(self):
        net, t = unreachable_target()
        with obs.scoped(obs.Registry("cert-int")) as reg:
            result = k_induction(net, t, max_k=4, certify=True)
            snap = reg.snapshot()
        assert result.status == PROVEN
        # Base-case BMC frames plus the inductive step each conclude.
        assert snap["counters"]["cert.checked"] >= 1
        assert "cert.failed" not in snap["counters"]


class TestAdversarialCorruption:
    """The point of the layer: corrupted reasoning must not survive."""

    def test_corrupt_learnt_caught_by_proof_check(self):
        net = s1269()
        with inject(FaultPlan(corrupt_learnt=range(10 ** 6))):
            with pytest.raises(CertificationFailure) as info:
                bmc(net, max_depth=12, certify=True)
        assert info.value.stage == "proof"

    def test_corrupt_learnt_accepted_silently_without_certification(self):
        # The same fault under the uncertified path: the run completes
        # and reports a definitive-looking verdict with no hint that
        # conflict analysis was corrupted.  This is the hazard the
        # certification layer exists to close.
        net = s1269()
        with inject(FaultPlan(corrupt_learnt=range(10 ** 6))):
            result = bmc(net, max_depth=12, certify=False)
        assert result.status in (FALSIFIED, BOUNDED, PROVEN)

    def test_corrupt_model_caught_by_witness_replay(self):
        net, t = counter_target(3, 5)
        # Call index 5 is the SAT frame (frames 0..4 refute).
        with inject(FaultPlan(at={5: FAULT_CORRUPT_MODEL})):
            with pytest.raises(CertificationFailure) as info:
                bmc(net, t, max_depth=10, certify=True)
        assert info.value.stage == "witness"
        assert "under simulation" in str(info.value)

    def test_corrupt_model_accepted_silently_without_certification(self):
        net, t = counter_target(3, 5)
        with inject(FaultPlan(at={5: FAULT_CORRUPT_MODEL})):
            result = bmc(net, t, max_depth=10, certify=False)
        assert result.status == FALSIFIED


class TestProveArbitration:
    """prove() degrades every certification failure to the sound
    structural bound.  There is no retry: the solver is deterministic,
    so a re-run would only repeat a real bug."""

    def test_transient_corruption_degrades(self):
        # Corruption limited to the first few learnt clauses still
        # sinks the verdict it reached: the proof check fails once and
        # the answer is never reported.
        net = s1269()
        with obs.scoped(obs.Registry("cert-int")) as reg:
            with use_certification(True):
                with inject(FaultPlan(corrupt_learnt=range(3))):
                    result = prove(net)
            snap = reg.snapshot()
        assert result.degraded
        assert result.exhaustion_reason == "certification"
        assert result.method == "structural-fallback"
        assert result.bound is not None
        assert snap["counters"]["cert.failed"] == 1

    def test_persistent_corruption_degrades_to_structural_bound(self):
        net = s1269()
        with obs.scoped(obs.Registry("cert-int")) as reg:
            with use_certification(True):
                with inject(FaultPlan(corrupt_learnt=range(10 ** 6))):
                    result = prove(net)
            snap = reg.snapshot()
        assert result.degraded
        assert result.exhaustion_reason == "certification"
        assert result.method == "structural-fallback"
        assert result.bound is not None
        assert snap["counters"]["cert.failed"] == 1

    def test_worker_certification_failure_degrades(self, monkeypatch):
        # jobs > 1: a racing probe's CertificationFailure takes the
        # same degradation path as an in-process one.
        prove_module = importlib.import_module("repro.core.prove")
        failure = CertificationFailure("bmc", stage="proof")

        def race(*args):
            return (WorkerOutcome(0, "quick-bmc", error=failure),
                    WorkerOutcome(1, "k-induction", value=None))

        monkeypatch.setattr(prove_module, "_race_probes", race)
        net, t = counter_target(3, 7)
        result = prove(net, t, max_complete_depth=0, jobs=2)
        assert result.degraded
        assert result.exhaustion_reason == "certification"
        assert result.method == "structural-fallback"
        assert result.bound is not None


def pigeonhole_net(pigeons, holes):
    """PHP(pigeons, holes) as a combinational miter: the target is
    satisfiable iff the (unsatisfiable) pigeonhole formula is, so BMC
    refutes every frame — after enough conflicts to restart and fire
    inprocessing rounds."""
    b = NetlistBuilder(f"php{pigeons}x{holes}")
    x = {(p, h): b.input(f"x{p}_{h}") for p in range(pigeons)
         for h in range(holes)}
    clauses = [b.or_(*(x[p, h] for h in range(holes)))
               for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append(b.or_(b.not_(x[p1, h]),
                                     b.not_(x[p2, h])))
    t = b.buf(b.and_(*clauses), name="t")
    b.net.add_target(t)
    return b.net, t


class TestInprocessingCertified:
    """Tier-1 smoke for the inprocessing pass: a BMC run hard enough
    to restart fires simplify rounds mid-search, and the certified
    verdict is identical with the simplifier on and off."""

    def test_bmc_verdict_identical_and_certified_with_simplify(self):
        from repro.sat import use_simplify

        net, t = pigeonhole_net(6, 5)
        with use_simplify(False):
            off = bmc(net, t, max_depth=1, certify=True)
        with obs.scoped(obs.Registry("cert-int")) as reg:
            with use_simplify(True):
                on = bmc(net, t, max_depth=1, certify=True)
            snap = reg.snapshot()
        assert (on.status, on.depth_checked) == \
            (off.status, off.depth_checked) == (BOUNDED, 1)
        assert on.counterexample is None and off.counterexample is None
        # The run actually exercised the simplifier, certifiedly.
        assert snap["counters"]["simplify.rounds"] >= 1
        assert snap["counters"]["cert.checked"] >= 1
        assert "cert.failed" not in snap["counters"]
