import numpy as np
import pytest

from photonlab.fock import basis_state, commutator_expectation, ladder_pair, n_photon_state


def test_two_state_matrices():
    lp = ladder_pair(2)
    assert np.array_equal(lp.a, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(lp.a_dag, lp.a.conj().T)


def test_commutator_matrix_identity_below_edge():
    lp = ladder_pair(10)
    comm = lp.a @ lp.a_dag - lp.a_dag @ lp.a
    expected = np.eye(10, dtype=np.complex128)
    expected[9, 9] = -9.0
    assert np.abs(comm - expected).max() <= 1e-14


def test_number_operator_diagonal():
    lp = ladder_pair(12)
    num = lp.a_dag @ lp.a
    assert np.abs(num - np.diag(np.arange(12.0))).max() <= 1e-14
    # the dedicated builder keeps the diagonal exact
    direct = lp.number()
    assert np.array_equal(np.diag(direct).real, np.arange(12.0))
    assert np.all(direct[~np.eye(12, dtype=bool)] == 0.0)


def test_n_photon_state_construction():
    lp = ladder_pair(10)
    assert np.array_equal(n_photon_state(lp, 0), basis_state(lp, 0))
    v3 = n_photon_state(lp, 3)
    assert abs(np.linalg.norm(v3) - 1.0) <= 1e-12
    occupancy = np.vdot(v3, lp.a_dag @ (lp.a @ v3)).real
    assert abs(occupancy - 3.0) <= 1e-12
    assert np.abs(v3 - basis_state(lp, 3)).max() <= 1e-12


def test_aa_dag_expectation_counts_one_extra():
    lp = ladder_pair(16)
    for n in range(lp.dim - 1):
        v = basis_state(lp, n)
        val = np.vdot(v, lp.a @ (lp.a_dag @ v)).real
        assert abs(val - (n + 1)) <= 1e-13


def test_commutator_expectation_is_one_below_edge():
    for dim in range(3, 17):
        lp = ladder_pair(dim)
        vals = [commutator_expectation(lp, n) for n in range(dim - 1)]
        assert all(abs(v - 1.0) <= 1e-14 for v in vals)


def test_commutator_edge_refused():
    lp = ladder_pair(10)
    assert commutator_expectation(lp, 0) == 1.0
    assert abs(commutator_expectation(lp, 5) - 1.0) <= 1e-14
    with pytest.raises(ValueError, match="truncation edge"):
        commutator_expectation(lp, 9)
    with pytest.raises(ValueError, match="truncation edge"):
        commutator_expectation(lp, -1)


def test_like_operators_commute_exactly():
    lp = ladder_pair(8)
    assert np.all(lp.a @ lp.a - lp.a @ lp.a == 0.0)
    assert np.all(lp.a_dag @ lp.a_dag - lp.a_dag @ lp.a_dag == 0.0)
    # [a, a] through different parenthesizations is still exactly zero
    v = np.ones(8, dtype=np.complex128)
    assert np.all(lp.a @ (lp.a @ v) - (lp.a @ lp.a) @ v == 0.0)


def test_truncation_and_index_bounds():
    with pytest.raises(ValueError, match="two states"):
        ladder_pair(1)
    lp = ladder_pair(4)
    with pytest.raises(ValueError, match="outside truncation"):
        basis_state(lp, 4)
    with pytest.raises(ValueError, match="outside truncation"):
        basis_state(lp, -1)
    with pytest.raises(ValueError, match="truncation"):
        n_photon_state(lp, 4)


def test_ladder_action_on_basis_states():
    lp = ladder_pair(6)
    for n in range(1, 6):
        down = lp.a @ basis_state(lp, n)
        assert abs(np.vdot(basis_state(lp, n - 1), down) - np.sqrt(n)) <= 1e-15
    for n in range(5):
        up = lp.a_dag @ basis_state(lp, n)
        assert abs(np.vdot(basis_state(lp, n + 1), up) - np.sqrt(n + 1)) <= 1e-15
    # annihilating the vacuum gives the zero vector
    assert np.all(lp.a @ basis_state(lp, 0) == 0.0)
