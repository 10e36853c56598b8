"""Depolarizing-plus-readout noise and a one-parameter calibration fit.

The trajectory model inserts a uniform random Pauli after each gate on each
touched qubit (probability p1 for one-qubit gates, p2 for two-qubit gates)
and flips each recorded measurement bit with probability p_read.  Collapse
always follows the true outcome; only the record is corrupted.

The calibration fit evaluates the receiver's exact P(0) under this model
through the noisy channel of simulate.exact_distribution, and turns it into
a fixed-seed shot estimate, so each evaluation costs one channel run rather
than thousands of trajectories.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, _check_seed
from .simulate import _exact_p0


class CalibrationError(ValueError):
    """Raised when a calibration target lies outside the reachable range."""


@dataclass(frozen=True)
class NoiseModel:
    p1: float
    p2: float
    p_read: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p_read"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} lies outside [0, 1]")

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def depolarizing(cls, p: float, p_read: float = 0.0) -> "NoiseModel":
        """Single-parameter model: the same p on one- and two-qubit gates."""
        return cls(p, p, p_read)

    def is_zero(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.p_read == 0.0

    def to_json(self) -> dict:
        return {"p1": self.p1, "p2": self.p2, "p_read": self.p_read}


@dataclass(frozen=True)
class FitResult:
    """Outcome of the depolarizing-strength calibration."""

    fitted_p: float
    target: float
    achieved: float
    p_read: float
    iterations: int
    converged: bool

    def model(self) -> NoiseModel:
        return NoiseModel.depolarizing(self.fitted_p, self.p_read)

    def to_json(self) -> dict:
        out = self.model().to_json()
        out.update({"fitted_p": self.fitted_p, "target": self.target, "achieved": self.achieved})
        return out


# The fit bisects the depolarizing strength over [_P_LO, _P_HI] and stops
# once the estimated P(0) is within _TOL of the target, or after _MAX_ITER
# steps; _P_MIN is the smallest midpoint it can reach.  Each estimate
# counts _SHOTS uniforms.
_P_LO = 0.0
_P_HI = 0.2
_TOL = 0.005
_MAX_ITER = 20
_P_MIN = _P_LO + (_P_HI - _P_LO) / 2**_MAX_ITER
_SHOTS = 20000


def _estimator(circuit: Circuit, bit: int, p_read: float, seed: int) -> Callable[[float], float]:
    """The fit's shot estimate of P(bit reads 0) at depolarizing strength p:
    the share of _SHOTS uniforms, drawn once from Philox keyed by the seed,
    that lie below the exact value."""
    u = np.random.Generator(np.random.Philox(key=seed)).random(_SHOTS)
    return lambda p: int(np.count_nonzero(u < _exact_p0(circuit, bit, NoiseModel.depolarizing(p, p_read)))) / _SHOTS


def fit_depolarizing_detail(
    target_p0: float,
    circuit: Circuit,
    p_read: float = 0.02,
    seed: int = 0,
) -> FitResult:
    """Bisect the depolarizing strength until the receiver's P(0) matches a
    target; the receiver bit is the clbit of the circuit's last measurement.

    Each evaluation is a _SHOTS-shot estimate of P(0): the share of one
    fixed set of uniforms, drawn once from Philox keyed by the seed, that
    lies below the exact P(record 0) of the noisy channel at that p.  So
    each estimate is Binomial(_SHOTS, P(0)), as a sampled run's would be,
    `achieved` is the estimate at the fitted p, the estimate is
    non-increasing wherever the exact P(0) falls with p, and the whole fit
    reproduces exactly.  The target must be finite and the seed a 64-bit
    unsigned integer (ValueError).  Raises CalibrationError, a ValueError,
    when the target is above the estimate at the smallest strength the
    bisection reaches, or below the estimate at the largest, p = 0.2.
    """
    if not math.isfinite(target_p0):
        raise ValueError(f"target P(0) must be finite, got {target_p0}")
    _check_seed(seed)
    measured = [op.clbit for op in circuit.ops if op.kind == "measure"]
    if not measured:
        raise ValueError("circuit has no measurement to calibrate against")
    bit = measured[-1]

    evaluate = _estimator(circuit, bit, p_read, seed)
    ceiling = evaluate(_P_MIN)
    if target_p0 > ceiling + _TOL:
        raise CalibrationError(f"target {target_p0} exceeds {ceiling:.4f}, the value at p = {_P_MIN:.3g}")
    floor = evaluate(_P_HI)
    if target_p0 < floor - _TOL:
        raise CalibrationError(f"target {target_p0} is below {floor:.4f}, the value at p = {_P_HI}")

    a, b = _P_LO, _P_HI
    mid, achieved = _P_HI, floor
    iterations = 0
    converged = abs(floor - target_p0) <= _TOL
    while iterations < _MAX_ITER and not converged:
        mid = (a + b) / 2.0
        achieved = evaluate(mid)
        iterations += 1
        if abs(achieved - target_p0) <= _TOL:
            converged = True
        elif achieved > target_p0:
            a = mid
        else:
            b = mid
    return FitResult(
        fitted_p=mid,
        target=target_p0,
        achieved=achieved,
        p_read=p_read,
        iterations=iterations,
        converged=converged,
    )
