"""Truncated ladder-operator algebra for the one-photon counting identities.

A finite N-state truncation satisfies the canonical commutation relation on
every state below the truncation edge; the edge entry fails by construction,
so operations that rely on the identity refuse indices there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LadderPair:
    """Annihilation/creation matrices on the states |0> .. |dim-1>."""

    dim: int
    a: np.ndarray
    a_dag: np.ndarray

    def number(self) -> np.ndarray:
        """Number operator with exact integer diagonal entries.

        diag(0 .. dim-1) is what a_dag @ a converges to; building it directly
        keeps <n|N|n> = n exact instead of sqrt(n)**2 in floating point.
        """
        return np.diag(np.arange(self.dim, dtype=float)).astype(np.complex128)


def ladder_pair(n: int) -> LadderPair:
    """Standard truncated ladder matrices; [a, a_dag] = 1 below the edge."""
    if n < 2:
        raise ValueError("need at least two states")
    a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(np.complex128)
    return LadderPair(dim=n, a=a, a_dag=a.conj().T)


def basis_state(lp: LadderPair, n: int) -> np.ndarray:
    if not 0 <= n < lp.dim:
        raise ValueError(f"state index {n} outside truncation 0..{lp.dim - 1}")
    v = np.zeros(lp.dim, dtype=np.complex128)
    v[n] = 1.0
    return v


def n_photon_state(lp: LadderPair, n: int) -> np.ndarray:
    """|n> built as (a_dag)^n |0> / sqrt(n!); unit norm when the ladder pair is exact."""
    if not 0 <= n < lp.dim:
        raise ValueError(f"cannot build |{n}> in a {lp.dim}-state truncation")
    v = basis_state(lp, 0)
    for _ in range(n):
        v = lp.a_dag @ v
    return v / math.sqrt(math.factorial(n))


def commutator_expectation(lp: LadderPair, n: int) -> float:
    """<n| a a_dag - a_dag a |n>, defined below the truncation edge only."""
    if not 0 <= n < lp.dim - 1:
        raise ValueError("truncation edge")
    v = basis_state(lp, n)
    comm = lp.a @ lp.a_dag - lp.a_dag @ lp.a
    return float(np.real(np.conj(v) @ (comm @ v)))
