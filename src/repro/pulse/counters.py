"""Pulse counters: T-flip-flop and the 2-bit up counter behind HC-READ.

The paper's HC-READ circuit (Figure 10c/d) deserialises the 0-3 pulse
train a HC-DRO read produces into two parallel bits, using two cascaded
one-bit counters (Onomi-style SFQ up/down counter stages).
"""

from __future__ import annotations

from repro.cells import params
from repro.pulse.engine import Component


class TFF(Component):
    """Toggle flip-flop: every second input pulse emits a carry pulse.

    ``q_state`` mirrors the internal bit: it toggles on every ``t`` pulse;
    the carry output fires on the 1 -> 0 transition (i.e. every second
    pulse), which cascades the count to the next binary stage.  A ``read``
    pulse emits the current bit on ``q`` non-destructively.
    """

    INPUTS = ("t", "read", "reset")
    OUTPUTS = ("carry", "q")

    def __init__(self, name: str, delay_ps: float = params.DELAY_PS["tff"]) -> None:
        super().__init__(name)
        self.delay_ps = delay_ps
        self.q_state = False

    def on_pulse(self, port: str, time_ps: float) -> None:
        if port == "t":
            if self.q_state:
                self.q_state = False
                self.emit("carry", time_ps + self.delay_ps)
            else:
                self.q_state = True
        elif port == "read":
            if self.q_state:
                self.emit("q", time_ps + self.delay_ps)
        else:  # reset
            self.q_state = False

    def reset_state(self) -> None:
        self.q_state = False


class PulseCounter(Component):
    """An n-bit binary pulse counter with parallel readout.

    Behavioural equivalent of ``n`` cascaded TFF stages (Figure 10d's
    state machine for n=2): ``in`` pulses increment the count modulo
    ``2**bits``; a ``read`` pulse emits one pulse on each ``b<i>`` output
    whose count bit is set, then a ``reset`` pulse clears the count.
    """

    INPUTS = ("in", "read", "reset")

    def __init__(self, name: str, bits: int = 2,
                 delay_ps: float = params.DELAY_PS["hc_read_settle"]) -> None:
        if bits < 1:
            raise ValueError(f"{name}: bits must be >= 1")
        self.bits = bits
        self.OUTPUTS = tuple(f"b{i}" for i in range(bits))
        super().__init__(name)
        self.delay_ps = delay_ps
        self.count = 0
        self.wrapped = 0

    def on_pulse(self, port: str, time_ps: float) -> None:
        if port == "in":
            self.count += 1
            if self.count >= 2 ** self.bits:
                self.count = 0
                self.wrapped += 1
        elif port == "read":
            for bit in range(self.bits):
                if self.count & (1 << bit):
                    self.emit(f"b{bit}", time_ps + self.delay_ps)
        else:  # reset
            self.count = 0

    def reset_state(self) -> None:
        self.count = 0
        self.wrapped = 0
