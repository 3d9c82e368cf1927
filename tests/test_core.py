import numpy as np
import pytest
from scipy import sparse

from morrow.core import (Model, SolverOptions, TrialSubspace, Trajectory,
                         check_orthonormality, jacobian_fd_check, read_csv,
                         reconstruct, write_csv)

from conftest import linear_model, random_subspace


def test_reconstruct_affine():
    sub = random_subspace(6, 2, reference=np.arange(6.0))
    y = np.array([1.0, -2.0])
    assert np.allclose(reconstruct(sub, y),
                       np.arange(6.0) + sub.basis @ y)


def test_reconstruct_rejects_wrong_length():
    sub = random_subspace(6, 2)
    with pytest.raises(ValueError):
        reconstruct(sub, np.zeros(3))


def test_trial_subspace_validates_shapes():
    with pytest.raises(ValueError):
        TrialSubspace(basis=np.ones((3, 5)), reference=np.zeros(3))
    with pytest.raises(ValueError):
        TrialSubspace(basis=np.eye(3), reference=np.zeros(4))


def test_orthonormality_measure():
    sub = random_subspace(8, 3)
    assert check_orthonormality(sub) < 1e-12
    skew = TrialSubspace(basis=sub.basis * 1.1, reference=np.zeros(8))
    assert check_orthonormality(skew) > 0.1


def test_model_shape_validation():
    with pytest.raises(ValueError):
        Model(dim=3, velocity=lambda x, t: x, jacobian=lambda x, t: np.eye(3),
              initial_state=np.zeros(4))


def with_jacobian(m, jacobian):
    return Model(dim=m.dim, velocity=m.velocity, jacobian=jacobian,
                 initial_state=m.initial_state)


def test_jacobian_fd_check_linear_exact():
    a = np.array([[0.0, 1.0], [-2.0, -0.1]])
    m = linear_model(a)
    assert jacobian_fd_check(m, np.array([0.3, -0.7]), 0.0) < 1e-8
    sparse_m = with_jacobian(m, lambda x, t: sparse.csr_array(a))
    assert jacobian_fd_check(sparse_m, np.array([0.3, -0.7]), 0.0) < 1e-8


def test_jacobian_fd_check_flags_wrong_jacobian():
    a = np.array([[0.0, 1.0], [-2.0, -0.1]])
    m = linear_model(a)
    for wrong in (np.eye(2), sparse.eye_array(2, format="csr")):
        bad = with_jacobian(m, lambda x, t, wrong=wrong: wrong)
        assert jacobian_fd_check(bad, np.array([0.3, -0.7]), 0.0) > 0.1


def test_trajectory_times():
    traj = Trajectory(dt=0.5, states=(np.zeros(2),) * 4, kind="full")
    assert np.allclose(traj.times, [0.0, 0.5, 1.0, 1.5])
    assert len(traj) == 4


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(newton_abs_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)


def test_trajectory_states_are_one_float_array():
    traj = Trajectory(dt=0.1, states=(np.zeros(3), np.ones(3), [2, 2, 2]),
                      kind="full")
    assert isinstance(traj.states, np.ndarray)
    assert traj.states.shape == (3, 3) and traj.states.dtype == float
    assert traj.stages is None
    staged = Trajectory(dt=0.1, states=traj.states[:2], kind="full",
                        stages=[[[1, 2, 3]]])
    assert staged.stages.shape == (1, 1, 3) and staged.stages.dtype == float


def test_csv_round_trips_float64_bitwise(tmp_path):
    values = np.array([[0.1, -0.0, np.inf], [-np.inf, 5e-324, 1 / 3],
                       [2.2250738585072014e-308, -1.7976931348623157e308,
                        np.nan]])
    path = tmp_path / "v.csv"
    write_csv(path, ["a", "b", "c"], values)
    assert path.read_bytes().endswith(b",-1.7976931348623157e+308,\n")
    header, back = read_csv(path)
    assert header == ["a", "b", "c"]
    assert back.tobytes() == values.tobytes()
    # numpy scalars are written exactly like the equal Python values
    rows = [(3, 1 / 3, -0.0, 5e-324, np.nan, "x")]
    plain, scalars = tmp_path / "plain.csv", tmp_path / "numpy.csv"
    write_csv(plain, ["i", "a", "b", "c", "d", "s"], rows)
    write_csv(scalars, ["i", "a", "b", "c", "d", "s"],
              [(np.int64(3), *map(np.float64, rows[0][1:5]), "x")])
    assert scalars.read_bytes() == plain.read_bytes() \
        == b"i,a,b,c,d,s\n3,0.3333333333333333,-0.0,5e-324,,x\n"
