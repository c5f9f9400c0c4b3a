"""Loopback skew tolerance: how forgiving is the DAND coincidence?

The loopback write only works if the recycled data pulses meet the WEN
train inside the DAND gates' 10 ps hold window (Section III-C/IV-A; the
JTL padding on the loopback path exists to hit this window).  This study
deliberately misaligns the WEN train in the pulse-level HiPerRF netlist
and maps the skew range over which a read still restores the register
intact - the timing margin a physical implementation has to hold.

The netlist is built once through the compiled-netlist cache and every
skew trial replays as one stimulus lane
(:meth:`~repro.rf.netlist.PulseHiPerRF.run_trials`), so a whole sweep
costs one elaboration plus one lane-set replay.
"""

from __future__ import annotations

from typing import Dict, List

from repro.rf.geometry import RFGeometry
from repro.rf.netlist import PulseHiPerRF

TEST_VALUE = 0xE4  # columns 0,1,2,3 fluxons: every occupancy exercised

_GEOMETRY = RFGeometry(4, 8)
_PERIOD_PS = 600.0
_REGISTER = 1


def _schedule_trial(rf: PulseHiPerRF, skew_ps: float,
                    value: int = TEST_VALUE) -> None:
    """Write, then read with a skewed WEN train (live or under capture)."""
    t = rf.write_word(_REGISTER, value, 0.0)
    rf.schedule_read(_REGISTER, t, loopback=True, loopback_skew_ps=skew_ps)
    rf.engine.run(until_ps=t + 2 * rf.op_period_ps)


def restore_ok(skew_ps: float, value: int = TEST_VALUE) -> bool:
    """One trial: write, read with skewed loopback, check the restore."""
    with PulseHiPerRF.checkout_cached(_GEOMETRY, _PERIOD_PS) as rf:
        _schedule_trial(rf, skew_ps, value)
        return rf.stored_word(_REGISTER) == value


def run(skews_ps: List[float] | None = None) -> List[Dict[str, float]]:
    skews = skews_ps if skews_ps is not None else \
        [-16.0, -12.0, -8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0, 12.0, 16.0]

    def observe(rf: PulseHiPerRF, skew: float, _: None) -> Dict[str, float]:
        restored = rf.stored_word(_REGISTER) == TEST_VALUE
        return {"skew_ps": skew, "restored": float(restored)}

    return PulseHiPerRF.run_trials(_GEOMETRY, _PERIOD_PS, skews,
                                   _schedule_trial, observe)


def working_window_ps(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Contiguous working window around zero skew."""
    ordered = sorted(rows, key=lambda r: r["skew_ps"])
    low = high = 0.0
    for row in sorted((r for r in ordered if r["skew_ps"] <= 0),
                      key=lambda r: -r["skew_ps"]):
        if row["restored"]:
            low = row["skew_ps"]
        else:
            break
    for row in (r for r in ordered if r["skew_ps"] >= 0):
        if row["restored"]:
            high = row["skew_ps"]
        else:
            break
    return {"low_ps": low, "high_ps": high, "width_ps": high - low}


def render(rows: List[Dict[str, float]] | None = None) -> str:
    rows = rows or run()
    window = working_window_ps(rows)
    title = "Loopback skew tolerance (pulse-level HiPerRF netlist)"
    lines = [title, "=" * len(title),
             f"{'WEN skew (ps)':>14s}  restore"]
    for row in rows:
        lines.append(f"{row['skew_ps']:>14.1f}  "
                     f"{'ok' if row['restored'] else 'CORRUPT'}")
    lines.append("")
    lines.append(f"working window: {window['low_ps']:+.1f} .. "
                 f"{window['high_ps']:+.1f} ps "
                 f"({window['width_ps']:.1f} ps wide) around the nominal "
                 "JTL-aligned arrival")
    lines.append("The DAND hold time (10 ps) sets the scale; this is the "
                 "margin the Section IV-A JTL sizing must land inside.")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
