"""Time-frame expansion of netlists into an incremental SAT solver.

:class:`Unrolling` lazily encodes frames 0, 1, 2, ... of a netlist.
Frame ``t`` exposes a literal for every vertex at time ``t``; state
literals at the frame boundaries are chained through register next
edges and latch hold-muxes.  The initial state can be constrained to
``Z`` (for BMC) or left free (for recurrence-diameter and induction
queries).

By default every frame is *stamped* from a compiled
:class:`~repro.sat.template.FrameTemplate` (encode once, instantiate
per frame by offset arithmetic) instead of re-walking the netlist; the
stamped solver state is element-wise identical to the direct
``encode_frame`` path, so verdicts, bounds and counterexample models
are unaffected.  Pass ``use_template=False`` (or disable templates
globally) to force the direct path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import obs
from ..netlist import GateType, Netlist
from ..options import current
from ..sat import CnfSink, Solver, encode_frame, encode_init_state, \
    encode_mux, pos
from ..sat.template import get_template, netlist_has_const0


class Unrolling:
    """Incrementally unrolled transition structure in a SAT solver."""

    def __init__(
        self,
        net: Netlist,
        solver: Optional[Solver] = None,
        constrain_init: bool = True,
        use_template: Optional[bool] = None,
    ) -> None:
        self.net = net
        self.solver = solver or Solver()
        self.sink = CnfSink(self.solver)
        self.constrain_init = constrain_init
        if use_template is None:
            use_template = current().templates
        self._template = get_template(net, "frame") if use_template \
            else None
        self._has_const0 = self._template.has_const0 \
            if self._template is not None else netlist_has_const0(net)
        #: per-frame vertex -> literal maps
        self.frames: List[Dict[int, int]] = []
        #: state literals at each frame boundary (index 0 = initial)
        self.state_lits: List[Dict[int, int]] = []
        self._bootstrap()

    def _bootstrap(self) -> None:
        state0 = {vid: pos(self.solver.new_var())
                  for vid in self.net.state_elements}
        self.state_lits.append(state0)
        if self._has_const0:
            # Pin the shared true/false variable to a deterministic
            # position up front: the direct path would otherwise
            # allocate it lazily inside whichever encode first reaches
            # CONST0, and template/direct variable numbering would
            # diverge (breaking the bit-for-bit parity contract).
            _ = self.sink.true_lit
        if self.constrain_init:
            encode_init_state(self.net, self.sink, state0)

    def frame(self, t: int) -> Dict[int, int]:
        """Literal map of frame ``t``, encoding frames up to ``t``."""
        while len(self.frames) <= t:
            self._encode_next_frame()
        return self.frames[t]

    def _encode_next_frame(self) -> None:
        t = len(self.frames)
        reg = obs.get_registry()
        with reg.span("encode"):
            if self._template is not None:
                lits, nxt = self._template.stamp(self.sink,
                                                 self.state_lits[t])
            else:
                leaves = dict(self.state_lits[t])
                lits = encode_frame(self.net, self.sink, leaves)
                nxt = {}
                for vid in self.net.state_elements:
                    gate = self.net.gate(vid)
                    if gate.type is GateType.REGISTER:
                        nxt[vid] = lits[gate.fanins[0]]
                    else:
                        data, clock = gate.fanins
                        out = pos(self.solver.new_var())
                        encode_mux(self.sink, out, lits[clock],
                                   lits[data], lits[vid])
                        nxt[vid] = out
        obs.progress("encode", frame=t,
                     vars=self.solver.num_vars,
                     templated=self._template is not None)
        self.frames.append(lits)
        self.state_lits.append(nxt)

    def literal(self, vid: int, t: int) -> int:
        """The literal of vertex ``vid`` at time ``t``."""
        return self.frame(t)[vid]

    def input_values(self, model: List[bool], t: int) -> Dict[int, int]:
        """Decode primary-input values at frame ``t`` from a model."""
        lits = self.frame(t)
        out = {}
        for vid in self.net.inputs:
            lit = lits[vid]
            val = model[lit >> 1]
            out[vid] = int(val if not (lit & 1) else not val)
        return out

    def state_values(self, model: List[bool], t: int) -> Dict[int, int]:
        """Decode state-element values at frame boundary ``t``."""
        out = {}
        for vid, lit in self.state_lits[t].items():
            val = model[lit >> 1]
            out[vid] = int(val if not (lit & 1) else not val)
        return out
