"""Depolarizing-plus-readout noise and a one-parameter calibration fit.

The trajectory model inserts a uniform random Pauli after each gate on each
touched qubit (probability p1 for one-qubit gates, p2 for two-qubit gates)
and flips each recorded measurement bit with probability p_read.  Collapse
always follows the true outcome; only the record is corrupted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, RunConfig
from .simulate import _exact_p0, simulate_shots


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
# steps.
_P_LO = 0.0
_P_HI = 0.2
_TOL = 0.005
_MAX_ITER = 20


def fit_depolarizing_detail(
    target_p0: float,
    circuit: Circuit,
    p_read: float = 0.02,
    shots: int = 20000,
    seed: int = 0,
) -> FitResult:
    """Bisect the depolarizing strength until the receiver's P(0) matches a
    target; the receiver bit is the clbit of the circuit's last measurement.

    Every evaluation reuses the same seed, so the estimated P(0) is a
    deterministic and (up to sampling ties) monotone function of p and the
    whole fit reproduces exactly.  Raises CalibrationError, a ValueError,
    when the target is above the noiseless value or below what the
    strongest allowed noise produces.
    """
    if shots < 20000:
        raise ValueError("calibration needs at least 20000 shots per evaluation")
    measured = [op.clbit for op in circuit.ops if op.kind == "measure"]
    if not measured:
        raise ValueError("circuit has no measurement to calibrate against")
    bit = measured[-1]

    p0_ceiling = _exact_p0(circuit, bit)
    if target_p0 > p0_ceiling + _TOL:
        raise CalibrationError(f"target {target_p0} exceeds the noiseless value {p0_ceiling:.6f}")

    def evaluate(p: float) -> float:
        model = NoiseModel.depolarizing(p, p_read)
        counts = simulate_shots(circuit, RunConfig(shots=shots, seed=seed), noise=model)
        return counts.marginal(bit).p0()

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
