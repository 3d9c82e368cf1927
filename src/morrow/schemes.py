"""Time-integrator coefficient tables.

Linear multistep schemes are defined by per-time-index coefficient functions
(alpha_0..alpha_k, beta_0..beta_k) so that startup steps can use lower-order
rules, and Runge-Kutta schemes by Butcher tableaus (a, b, c).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class LmmScheme:
    """Linear multistep scheme sum_j alpha_j x^{n-j} = dt sum_j beta_j f^{n-j}.

    coeffs(n) returns (alpha, beta) arrays of length min(k, n) + 1; for
    n < k a valid lower-step startup rule is returned.
    """

    k: int
    coeffs: Callable[[int], tuple]
    name: str


@dataclass(frozen=True)
class ButcherTableau:
    s: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    name: str


_BE = (np.array([1.0, -1.0]), np.array([1.0, 0.0]))
_FE = (np.array([1.0, -1.0]), np.array([0.0, 1.0]))
# three-point backward differentiation formula
_BDF2 = (np.array([1.0, -4.0 / 3.0, 1.0 / 3.0]),
         np.array([2.0 / 3.0, 0.0, 0.0]))


def make_lmm(name: str) -> LmmScheme:
    if name == "backward_euler":
        return LmmScheme(k=1, coeffs=lambda n: _BE, name=name)
    if name == "forward_euler":
        return LmmScheme(k=1, coeffs=lambda n: _FE, name=name)
    if name == "bdf2":
        # startup: one backward-Euler step at n=1, BDF2 thereafter
        return LmmScheme(k=2, coeffs=lambda n: _BE if n < 2 else _BDF2,
                         name=name)
    raise ValueError(f"unknown linear multistep scheme {name!r}")


_TABLEAUS = {
    "explicit_euler": (np.array([[0.0]]), np.array([1.0]), np.array([0.0])),
    "rk4": (
        np.array([[0.0, 0.0, 0.0, 0.0],
                  [0.5, 0.0, 0.0, 0.0],
                  [0.0, 0.5, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0]]),
        np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]),
        np.array([0.0, 0.5, 0.5, 1.0]),
    ),
    "implicit_midpoint": (np.array([[0.5]]), np.array([1.0]), np.array([0.5])),
    "backward_euler": (np.array([[1.0]]), np.array([1.0]), np.array([1.0])),
}
# second-order SDIRK, gamma = 1 - 1/sqrt(2)
_G = 1.0 - 1.0 / np.sqrt(2.0)
_TABLEAUS["sdirk2"] = (
    np.array([[_G, 0.0], [1.0 - _G, _G]]),
    np.array([1.0 - _G, _G]),
    np.array([_G, 1.0]),
)


def make_butcher(name: str) -> ButcherTableau:
    if name not in _TABLEAUS:
        raise ValueError(f"unknown Butcher tableau {name!r}")
    a, b, c = _TABLEAUS[name]
    return ButcherTableau(s=len(b), a=a.copy(), b=b.copy(), c=c.copy(),
                          name=name)


def classify(t: ButcherTableau) -> str:
    """Structural class of a tableau from its a-matrix: 'fully_implicit'
    (an entry above the diagonal), 'explicit' (strictly lower triangular)
    or 'dirk'."""
    a = t.a
    if np.any(np.triu(a, 1) != 0.0):
        return "fully_implicit"
    if np.all(np.diag(a) == 0.0):
        return "explicit"
    return "dirk"
