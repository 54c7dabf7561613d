import math

import numpy as np
import pytest

from photonlab.relativity import polarization_bases


def test_pole_convention_plus_z():
    basis = polarization_bases(np.array((0.0, 0.0, 1.0)))
    root_half = 1.0 / math.sqrt(2.0)
    assert np.allclose(basis.e_plus, np.array([root_half, 1j * root_half, 0.0]), atol=1e-15)
    assert np.allclose(basis.e_par, np.array([0.0, 0.0, 1.0]), atol=0.0)


def test_pole_convention_minus_z():
    # theta = pi at phi = 0: e_theta = (-1, 0, 0), e_phi = (0, 1, 0)
    basis = polarization_bases(np.array((0.0, 0.0, -2.0)))
    root_half = 1.0 / math.sqrt(2.0)
    assert np.allclose(basis.e_plus, np.array([-root_half, 1j * root_half, 0.0]), atol=1e-15)
    assert np.allclose(basis.e_par, np.array([0.0, 0.0, -1.0]), atol=0.0)


def test_basis_orthonormality_random_directions():
    rng = np.random.default_rng(19)
    k = rng.normal(size=(1000, 3))
    k = k[np.linalg.norm(k, axis=1) > 1e-3]
    basis = polarization_bases(k)
    dot_pp = np.sum(np.conj(basis.e_plus) * basis.e_plus, axis=-1)
    dot_mm = np.sum(np.conj(basis.e_minus) * basis.e_minus, axis=-1)
    dot_pm = np.sum(np.conj(basis.e_plus) * basis.e_minus, axis=-1)
    assert np.max(np.abs(dot_pp - 1.0)) <= 1e-14
    assert np.max(np.abs(dot_mm - 1.0)) <= 1e-14
    assert np.max(np.abs(dot_pm)) <= 1e-14
    # e_lambda* x e_lambda = i lambda e_par
    cross_p = np.cross(np.conj(basis.e_plus), basis.e_plus)
    cross_m = np.cross(np.conj(basis.e_minus), basis.e_minus)
    assert np.max(np.abs(cross_p - 1j * basis.e_par)) <= 1e-14
    assert np.max(np.abs(cross_m + 1j * basis.e_par)) <= 1e-14
    # e_par = k/|k| and transversality
    unit_k = k / np.linalg.norm(k, axis=1)[:, None]
    assert np.max(np.abs(basis.e_par - unit_k)) <= 1e-14
    assert np.max(np.abs(np.sum(np.conj(basis.e_plus) * basis.e_par, axis=-1))) <= 1e-14
    assert np.max(np.abs(np.sum(np.conj(basis.e_minus) * basis.e_par, axis=-1))) <= 1e-14


def test_basis_rejects_zero_wavevector():
    with pytest.raises(ValueError):
        polarization_bases(np.array((0.0, 0.0, 0.0)))
