"""The one registry from register-file design names to design objects.

Every caller that starts from a name - the CPU timing model, Tables
I-IV, the energy and banking studies, the full-chip budget and the lint
budget checks - resolves it here.  The design object it returns knows
its own banking and static port schedule, so a new storage design is
one class and one entry below.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple, Type

from repro.errors import ConfigError
from repro.rf.base import RegisterFileDesign
from repro.rf.geometry import RFGeometry
from repro.rf.hiperrf import HiPerRF
from repro.rf.multibank import (
    DualBankHiPerRF,
    IdealDualBankHiPerRF,
    MultiBankHiPerRF,
    WorstDualBankHiPerRF,
)
from repro.rf.ndro_rf import NdroRegisterFile

#: The three designs the paper evaluates, in its table order.
PAPER_DESIGNS: Tuple[str, ...] = ("ndro_rf", "hiperrf", "dual_bank_hiperrf")

_NAMED: Dict[str, Type[RegisterFileDesign]] = {
    "ndro_rf": NdroRegisterFile,
    "hiperrf": HiPerRF,
    "dual_bank_hiperrf": DualBankHiPerRF,
    "dual_bank_hiperrf_ideal": IdealDualBankHiPerRF,
    "dual_bank_hiperrf_worst": WorstDualBankHiPerRF,
}


def design_for(name: str, geometry: RFGeometry) -> RegisterFileDesign:
    """Build the named design at ``geometry``.

    Besides the named designs, ``hiperrf_x<N>`` is HiPerRF in ``N``
    modulo-interleaved banks; one bank is plain HiPerRF.  An unknown
    name raises :class:`ConfigError`.
    """
    cls = _NAMED.get(name)
    if cls is not None:
        return cls(geometry)
    match = re.fullmatch(r"hiperrf_x(\d+)", name)
    if match:
        banks = int(match.group(1))
        if banks == 1:
            return HiPerRF(geometry)
        return MultiBankHiPerRF(geometry, banks)
    raise ConfigError(
        f"unknown RF design {name!r}; expected one of "
        f"{tuple(_NAMED)} or 'hiperrf_x<N>'")
