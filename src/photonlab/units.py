"""Unit handling: natural units internally, SI factors at the CLI boundary.

All computation runs with c = hbar = eps0 = 1. Under "si" the config's
times are seconds and lengths/wavenumbers are already metres-based, so the
only input rescale is t -> c*t; output columns pick up the factors below.
Mode amplitudes stay in the internal normalization in every unit system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA exact values
C_LIGHT = 299792458.0          # m/s
HBAR = 1.054571817e-34         # J*s
EPS0 = 8.8541878128e-12        # F/m


@dataclass(frozen=True)
class UnitSystem:
    time_in: float        # config seconds -> internal time
    time_out: float       # internal time -> output time column
    current: float        # j columns
    helicity: float       # s columns
    residual: float       # continuity residual columns
    a_field: float        # A and B columns
    e_field: float        # E and phi columns


NATURAL = UnitSystem(time_in=1.0, time_out=1.0, current=1.0, helicity=1.0,
                     residual=1.0, a_field=1.0, e_field=1.0)

_FIELD_SCALE = math.sqrt(HBAR / EPS0)

SI = UnitSystem(
    time_in=C_LIGHT,
    time_out=1.0 / C_LIGHT,
    current=C_LIGHT,
    helicity=HBAR,
    residual=C_LIGHT,
    a_field=_FIELD_SCALE / C_LIGHT,
    e_field=_FIELD_SCALE,
)


def unit_system(name: str) -> UnitSystem:
    if name == "natural":
        return NATURAL
    if name == "si":
        return SI
    raise ValueError(f"unknown unit system {name!r}")
