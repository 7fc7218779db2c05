"""Plant models driven at discrete query intervals.

Two plants are registered: the continuous-force mountain car (the nonlinear
benchmark the control loop is evaluated on) and a 2-state linear system used
by the estimator oracle tests. Both expose the same surface: ``step`` advances
the true state with process noise, ``f``/``control_column`` describe the
noiseless state-update map the estimator linearizes, ``propagate_cov``
carries a covariance through that map's Jacobian J, ``is_goal`` tests
termination, ``initial_mean``/``initial_cov`` give the twin's initial
belief, and ``feature_names`` names each state feature (the trace columns
carry these names). A state is handed in and out as a list of floats
(``step``, ``f``, ``initial_state``), and so is a covariance
(``propagate_cov`` reads K lists of K floats and returns J P J^T row-major);
``control_column`` and ``process_cov_flat`` hold B and C_u as floats, built
once. A linear plant's ``propagate_cov`` is the BLAS product of its
``transition`` array. The mountain car takes J P J^T on floats instead,
with the bits of the BLAS product, because half of its Jacobian is ones
(``MountainCar.propagate_cov``).

The mountain-car update follows the reference environment semantics: the
velocity is updated (force, gravity, noise) and clamped first, then the
position is advanced with the *new* velocity and clamped. Written as a full
next-state map this is

    vel' = vel + force_gain*a - gravity*cos(3*pos)
    pos' = pos + vel'

so the control enters both components and the Jacobian picks up the gravity
slope in both rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

# The mountain car starts at rest; the twin's initial belief gives that
# velocity this small variance.
INITIAL_VELOCITY_VARIANCE = 1e-4


class MountainCar:
    """Nonlinear plant: 2-dimensional state (position, velocity), scalar force."""

    dim = 2
    control_dim = 1
    feature_names = ("pos", "vel")
    # reference-environment constants
    gravity = 0.0025
    force_gain = 0.0015
    goal_position = 0.45
    position_bounds = (-1.2, 0.6)
    velocity_bounds = (-0.07, 0.07)
    initial_position_range = (-0.6, -0.4)

    def __init__(self, process_cov, episode_cap: int):
        process_cov = np.asarray(process_cov, dtype=float)
        _check_psd(process_cov, "process_cov")
        self.process_cov = process_cov
        self.process_cov_flat = process_cov.ravel().tolist()
        self._noise_scale = _noise_factor(process_cov)
        self.episode_cap = episode_cap
        # Control column B of the composed next-state map: the force moves
        # the velocity, and the new velocity immediately moves the position.
        self.control_column = [self.force_gain, self.force_gain]
        # moments of the start distribution: uniform position, zero velocity
        lo, hi = self.initial_position_range
        self.initial_mean = np.array([0.5 * (lo + hi), 0.0])
        self.initial_cov = np.diag([(hi - lo) ** 2 / 12.0,
                                    INITIAL_VELOCITY_VARIANCE])

    def f(self, state) -> list:
        """Noiseless zero-control next-state map, without clamping, on the
        state's two floats."""
        pos, vel = state
        new_vel = vel - self.gravity * _cos(3.0 * pos)
        return [pos + new_vel, new_vel]

    def propagate_cov(self, state, rows) -> list:
        """J P J^T row-major as four floats, with J = d f / d state and P
        the covariance's two rows of two floats.

        J is [[a, 1], [s, 1]], with s = 3 gravity sin(3 pos) the gravity
        slope and a = 1 + s. Each entry of M = J P and of M J^T is x y + z,
        whose second product is exact. So a fused multiply-add rounds it as
        the floats do, and on OpenBLAS ``J.dot(P).dot(J.T)`` has the bits of
        (0.0 + x y) + z, the kernel's sum from zero, signed zeros,
        subnormals and overflow included (pinned in tests/test_estimator.py).
        The sum from zero is written in M J^T alone: it gives +0.0 for a
        zero from either stage, so the sign of a zero in M never reaches
        the result. An overflow gives inf or NaN without a warning. A
        non-finite state raises InvalidInputError.
        """
        pos, vel = state
        if not (math.isfinite(pos) and math.isfinite(vel)):
            raise InvalidInputError("non-finite state")
        s = 3.0 * self.gravity * _sin(3.0 * pos)
        a = 1.0 + s
        (p00, p01), (p10, p11) = rows
        m00, m01 = a * p00 + p10, a * p01 + p11
        m10, m11 = s * p00 + p10, s * p01 + p11
        return [(0.0 + m00 * a) + m01, (0.0 + m00 * s) + m01,
                (0.0 + m10 * a) + m11, (0.0 + m10 * s) + m11]

    def step(self, state, control: float, rng) -> list:
        """Advance the true plant one query interval; returns the new
        state's two floats.

        Process noise is drawn from ``process_cov`` and added inside the
        update (velocity component before the velocity clamp, position
        component before the position clamp), so the clamp invariants hold
        unconditionally. The noise is drawn and mixed on arrays, the rest
        is taken on floats.
        """
        if len(state) != 2:
            raise InvalidInputError(f"invalid state {state!r}")
        pos, vel = state
        if not (math.isfinite(pos) and math.isfinite(vel)):
            raise InvalidInputError(f"invalid state {state!r}")
        control = float(control)
        if not math.isfinite(control):
            raise InvalidInputError(f"invalid control {control!r}")
        control = min(max(control, -1.0), 1.0)
        if self._noise_scale is None:
            du = dv = 0.0
        else:
            du, dv = self._noise_scale.dot(rng.standard_normal(2)).tolist()
        # state, control and noise are finite here, so min(max(x, lo), hi)
        # gives the bits np.clip gives for a scalar, signed zeros included
        lo, hi = self.velocity_bounds
        vel = vel + self.force_gain * control - self.gravity * _cos(3.0 * pos) + dv
        vel = float(min(max(vel, lo), hi))
        lo, hi = self.position_bounds
        pos = pos + vel + du
        pos = float(min(max(pos, lo), hi))
        return [pos, vel]

    def is_goal(self, state) -> bool:
        return bool(state[0] >= self.goal_position)

    def initial_state(self, rng) -> list:
        lo, hi = self.initial_position_range
        return [float(rng.uniform(lo, hi)), 0.0]


class LinearPlant:
    """Linear test system s' = A s + B a + u. Never reaches a goal."""

    def __init__(self, transition, control_matrix, process_cov, feature_names,
                 episode_cap: int):
        self.transition = np.asarray(transition, dtype=float)
        self.control_matrix = np.asarray(control_matrix, dtype=float)
        self.control_column = [b for (b,) in self.control_matrix.tolist()]
        process_cov = np.asarray(process_cov, dtype=float)
        _check_psd(process_cov, "process_cov")
        self.process_cov = process_cov
        self.process_cov_flat = process_cov.ravel().tolist()
        self._noise_scale = _noise_factor(process_cov)
        self.dim = self.transition.shape[0]
        self.control_dim = self.control_matrix.shape[1]
        self.feature_names = tuple(feature_names)
        if len(self.feature_names) != self.dim:
            raise InvalidInputError(f"need {self.dim} feature names: "
                                    f"{self.feature_names!r}")
        self.episode_cap = episode_cap
        self.initial_mean = np.zeros(self.dim)
        self.initial_cov = np.eye(self.dim)

    def f(self, state) -> list:
        """A s as floats; a product past the largest float is inf, not a
        warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.transition @ np.asarray(state, dtype=float)).tolist()

    def propagate_cov(self, state, rows) -> list:
        """A P A^T row-major as floats, by two ``ndarray.dot`` calls (the
        BLAS routine that ``@`` calls, with less dispatch): A can be any
        matrix, and for most the same sums on floats round differently
        from OpenBLAS's fused multiply-adds. An overflow gives inf or NaN
        without a warning."""
        a = self.transition
        with np.errstate(over="ignore", invalid="ignore"):
            return a.dot(np.array(rows)).dot(a.T).ravel().tolist()

    def step(self, state, control, rng) -> list:
        state = np.asarray(state, dtype=float)
        if not np.isfinite(state).all():
            raise InvalidInputError(f"invalid state {state!r}")
        u = (self._noise_scale @ rng.standard_normal(self.dim)
             if self._noise_scale is not None else np.zeros(self.dim))
        return (self.transition @ state + self.control_matrix @ np.atleast_1d(control)
                + u).tolist()

    def is_goal(self, state) -> bool:
        return False

    def initial_state(self, rng) -> list:
        return rng.multivariate_normal(self.initial_mean, self.initial_cov).tolist()


def build_mountain_car(process_noise_std, episode_cap: int) -> MountainCar:
    return MountainCar(_diagonal_cov(process_noise_std), episode_cap)


def build_linear_2d(process_noise_std, episode_cap: int) -> LinearPlant:
    return LinearPlant(transition=[[1.0, 1.0], [0.0, 1.0]],
                       control_matrix=[[0.0], [1.0]],
                       process_cov=_diagonal_cov(process_noise_std),
                       feature_names=("pos", "vel"), episode_cap=episode_cap)


PLANT_REGISTRY = {
    "mountain_car": build_mountain_car,
    "linear_2d": build_linear_2d,
}


def _cos(x: float) -> float:
    """np.cos(x) for a float: math.cos has its bits, and NaN stands for
    math.cos's ValueError at +-inf."""
    try:
        return math.cos(x)
    except ValueError:
        return math.nan


def _sin(x: float) -> float:
    """np.sin(x) for a float, as ``_cos`` is np.cos."""
    try:
        return math.sin(x)
    except ValueError:
        return math.nan


def _diagonal_cov(process_noise_std) -> np.ndarray:
    """diag(sp^2, sv^2) of the (position, velocity) noise standard
    deviations, two numbers in [0, 1e154] (the config's rule), so each
    square is a float."""
    sp, sv = process_noise_std
    return np.diag([sp ** 2, sv ** 2])


def _check_psd(matrix, name):
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidInputError(f"{name} must be square")
    if not np.allclose(matrix, matrix.T, atol=1e-12):
        raise InvalidInputError(f"{name} must be symmetric")
    eigvals = np.linalg.eigvalsh(matrix)
    if eigvals.min() < -1e-12:
        raise InvalidInputError(f"{name} must be positive semidefinite")


def _noise_factor(cov):
    """Square-root factor used to draw process noise, or None when cov is zero."""
    if (cov == 0).all():
        return None
    # eigh-based root tolerates semidefinite covariances (Cholesky does not)
    vals, vecs = np.linalg.eigh(cov)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
