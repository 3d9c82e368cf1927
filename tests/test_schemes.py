import numpy as np
import pytest

from morrow.schemes import classify, make_butcher, make_lmm


def test_backward_euler_coefficients():
    sch = make_lmm("backward_euler")
    alpha, beta = sch.coeffs(5)
    assert np.allclose(alpha, [1.0, -1.0])
    assert np.allclose(beta, [1.0, 0.0])
    assert sch.k == 1


def test_forward_euler_coefficients():
    alpha, beta = make_lmm("forward_euler").coeffs(1)
    assert np.allclose(alpha, [1.0, -1.0])
    assert np.allclose(beta, [0.0, 1.0])


def test_bdf2_startup_then_full():
    sch = make_lmm("bdf2")
    assert sch.k == 2
    a1, b1 = sch.coeffs(1)
    assert np.allclose(a1, [1.0, -1.0])  # backward-Euler startup
    a2, b2 = sch.coeffs(2)
    assert np.allclose(a2, [1.0, -4.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(b2, [2.0 / 3.0, 0.0, 0.0])


def test_lmm_consistency_conditions():
    # sum alpha_j = 0 and sum_j (-j) alpha_j = sum beta_j (first order)
    for name in ("backward_euler", "forward_euler", "bdf2"):
        alpha, beta = make_lmm(name).coeffs(10)
        assert abs(np.sum(alpha)) < 1e-12
        j = np.arange(len(alpha))
        assert abs(np.sum(-j * alpha) - np.sum(beta)) < 1e-12


def test_unknown_scheme_names():
    with pytest.raises(ValueError):
        make_lmm("adams_bashforth_7")
    with pytest.raises(ValueError):
        make_butcher("rk9000")


def test_rk4_tableau_order_conditions():
    t = make_butcher("rk4")
    assert t.s == 4
    assert abs(np.sum(t.b) - 1.0) < 1e-14
    assert abs(t.b @ t.c - 0.5) < 1e-14
    assert abs(t.b @ t.c**2 - 1.0 / 3.0) < 1e-14
    # c_i = sum_j a_ij (row-sum convention)
    assert np.allclose(t.a.sum(axis=1), t.c)


def test_sdirk2_structure():
    t = make_butcher("sdirk2")
    g = 1.0 - 1.0 / np.sqrt(2.0)
    assert np.allclose(np.diag(t.a), [g, g])
    assert abs(np.sum(t.b) - 1.0) < 1e-14
    assert classify(t) == "dirk"


def test_classify_explicit():
    assert classify(make_butcher("rk4")) == "explicit"
    assert classify(make_butcher("explicit_euler")) == "explicit"


def test_classify_fully_implicit():
    from morrow.schemes import ButcherTableau
    gauss = ButcherTableau(s=2,
                           a=np.array([[0.25, 0.25 - np.sqrt(3) / 6],
                                       [0.25 + np.sqrt(3) / 6, 0.25]]),
                           b=np.array([0.5, 0.5]),
                           c=np.array([0.5 - np.sqrt(3) / 6,
                                       0.5 + np.sqrt(3) / 6]),
                           name="gauss2")
    assert classify(gauss) == "fully_implicit"


def test_classify_dirk_unequal_diagonal():
    from morrow.schemes import ButcherTableau
    t = ButcherTableau(s=2, a=np.array([[0.3, 0.0], [0.5, 0.7]]),
                       b=np.array([0.5, 0.5]), c=np.array([0.3, 1.2]),
                       name="dirk_test")
    assert classify(t) == "dirk"
