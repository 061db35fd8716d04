"""Exact references for the output checks, from phase-type algebra.

Every claim family the benchmark generates is phase-type PH(alpha, T), and
so is one ladder step of the perturbed model (an Exp(c/D) stage followed by
the equilibrium law).  The quantities the CLI prints then have closed forms
in matrix exponentials (Asmussen & Albrecher, *Ruin Probabilities*, 2nd ed.,
ch. IX), which share no code and no discretization with the renewal solver:

    psi(u)      = phi pi_e exp((T + phi t pi_e) u) 1
    G-bar(u, y) = phi pi_e exp((T + phi t pi_e) u) exp(T y) 1
    K-bar(u)    = the same compound-geometric formula on the ladder step
    psi_t(u)    = K-bar's geometric sum preceded by one Exp(c/D) stage

with pi_e = -alpha T^-1 / mu the equilibrium start vector and t = -T 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm


@dataclass(frozen=True)
class PH:
    """Phase-type law: start vector ``alpha`` (row) and sub-generator ``T``."""

    alpha: np.ndarray
    T: np.ndarray

    @property
    def exit(self) -> np.ndarray:
        return -self.T.sum(axis=1)

    @property
    def mean(self) -> float:
        return float(self.alpha @ np.linalg.solve(-self.T, np.ones(len(self.alpha))))

    def equilibrium_start(self) -> np.ndarray:
        return np.linalg.solve(-self.T.T, self.alpha) / self.mean


def claim_law(family: str, params: dict) -> PH:
    """PH form of the families the benchmark writes into its configs."""
    if family == "exp":
        return PH(np.array([1.0]), np.array([[-params["rate"]]]))
    if family == "hyperexp":
        return PH(np.asarray(params["weights"], dtype=float),
                  np.diag(-np.asarray(params["rates"], dtype=float)))
    if family == "erlang":
        k, b = params["shape"], params["rate"]
        T = -b * np.eye(k) + b * np.eye(k, k=1)
        return PH(np.eye(k)[0], T)
    raise ValueError(f"unknown family {family!r}")


def _geometric(start: np.ndarray, T: np.ndarray, phi: float):
    """Start vector and generator of the compound geometric sum whose
    steps are PH(start, T) and whose continuation probability is phi."""
    t = -T.sum(axis=1)
    return phi * start, T + phi * np.outer(t, start)


def _ladder(law: PH, b0: float) -> PH:
    """One ladder step of the perturbed model: Exp(b0) then the equilibrium law."""
    pe = law.equilibrium_start()
    d = len(pe)
    T = np.zeros((d + 1, d + 1))
    T[0, 0] = -b0
    T[0, 1:] = b0 * pe
    T[1:, 1:] = law.T
    return PH(np.eye(d + 1)[0], T)


class Model:
    """Exact ruin quantities of one (lam, c, claims[, D]) model."""

    def __init__(self, lam: float, c: float, family: str, params: dict,
                 D: float | None = None):
        self.law = claim_law(family, params)
        self.lam, self.c, self.D = lam, c, D
        self.phi = lam * self.law.mean / c

    def _classical(self):
        return _geometric(self.law.equilibrium_start(), self.law.T, self.phi)

    def _ladder_sum(self):
        step = _ladder(self.law, self.c / self.D)
        return _geometric(step.alpha, step.T, self.phi)

    def psi(self, u: float) -> float:
        a, M = self._classical()
        return float(a @ expm(M * u) @ np.ones(len(a)))

    def deficit(self, u: float, y: float) -> float:
        a, M = self._classical()
        return float(a @ expm(M * u) @ expm(self.law.T * y) @ np.ones(len(a)))

    def k_tail(self, u: float) -> float:
        a, M = self._ladder_sum()
        return float(a @ expm(M * u) @ np.ones(len(a)))

    def psi_total(self, u: float) -> float:
        b0 = self.c / self.D
        a, M = self._ladder_sum()
        d = len(a)
        S = np.zeros((d + 1, d + 1))
        S[0, 0] = -b0
        S[0, 1:] = b0 * a          # a already carries the factor phi
        S[1:, 1:] = M
        return float(expm(S * u)[0].sum())

    def k_iterate(self, k0: float, n: int, u: float) -> float:
        """n-th iterate T^n(k0) of the K-bar fixed-point map at u.

        With S_j the j-th ladder partial sum, T^n(k0)(u) is
        sum_{j<n} phi^(j+1) P(S_j <= u < S_{j+1}) + phi^n k0 P(S_n <= u);
        an n-block chain of ladder steps gives every P(S_j <= u < S_{j+1})
        from one matrix exponential.
        """
        step = _ladder(self.law, self.c / self.D)
        d = len(step.alpha)
        M = np.zeros((n * d, n * d))
        for j in range(n):
            M[j * d:(j + 1) * d, j * d:(j + 1) * d] = step.T
            if j + 1 < n:
                M[j * d:(j + 1) * d, (j + 1) * d:(j + 2) * d] = np.outer(step.exit, step.alpha)
        row = expm(M * u)[:d].T @ step.alpha
        in_block = row.reshape(n, d).sum(axis=1)
        phis = self.phi ** np.arange(1, n + 1)
        return float(phis @ in_block + self.phi**n * k0 * (1.0 - in_block.sum()))

    # -- whole-curve evaluations for the bound checks ---------------------

    def curve_end(self, which: str) -> float:
        """Where psi, G-bar or K-bar ("psi", "deficit", "k_tail") has decayed
        below about 1e-13."""
        _, M = self._ladder_sum() if which == "k_tail" else self._classical()
        rate = -float(np.max(np.linalg.eigvals(M).real))
        return max(1.0, math.log(1e13) / rate)

    def curve(self, which: str, y: float, u_end: float, points: int = 8001):
        """(u grid, values) of psi, G-bar(., y) or K-bar on [0, u_end]."""
        a, M = self._ladder_sum() if which == "k_tail" else self._classical()
        us = np.linspace(0.0, u_end, points)
        right = np.ones(len(a))
        if which == "deficit":
            right = expm(self.law.T * y) @ right
        # value i*m + j is (a E^(i m)) (E^j right): two loops of sqrt(points)
        step = expm(M * (us[1] - us[0]))
        m = int(math.ceil(math.sqrt(points)))
        cols = np.empty((len(a), m))
        rows = np.empty((m, len(a)))
        big = np.linalg.matrix_power(step, m)
        v, r = right, a
        for i in range(m):
            cols[:, i], rows[i] = v, r
            v, r = step @ v, r @ big
        return us, (rows @ cols).ravel()[:points]

