"""Workbench for single-photon field dynamics on k-space mode grids.

Builds invariant one-photon mode amplitudes, synthesizes the positive-frequency
potential and fields they generate, and verifies the conservation laws the
construction promises: norm, continuity, helicity, gauge and boost invariance,
dielectric media, and emitter/detector lifecycles on a 1D line.
"""

__version__ = "0.1.0"
