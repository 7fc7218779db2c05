"""Extended Kalman filter over the twin's belief.

``predict`` propagates the belief blindly through the plant model (the mean
through the full nonlinear map, the covariance through its Jacobian, J P J^T
from the plant's ``propagate_cov``, plus the process noise). Every scheduler
fuses through ``scalar_posterior_cov``, the Joseph-form posterior covariance
after one reading of one feature: a rank-1 step with a scalar innovation and
no LAPACK call. Since agent noises are independent, a chain of such steps
gives the batch posterior of a whole selection up to roundoff (sequential
processing of uncorrelated measurements): the value-of-information scheduler
takes one step per pick, and the greedy baselines one per measured feature,
with the precisions of that feature's readings summed. ``fused_mean`` gives
the posterior mean once the readings arrive: the schedulers' shared fusion
tail calls it for every selection, since each scheduler is handed the loop's
``observe_fn``, so no decision carries a covariance-only posterior. The
Joseph form keeps the covariance symmetric under roundoff and agrees with
the plain (I - K H) P form in exact arithmetic. Roundoff can still take a
rank-deficient covariance out of the positive semidefinite (PSD) cone, so
``predict`` and ``scalar_posterior_cov`` hand theirs through ``keep_psd``,
which clamps it back only when it has left.

The batch functions are the test oracle, and no query interval calls them:
``stack`` builds the joint observation model of several agents (one one-hot
row per agent and a diagonal noise covariance, for the state dimension the
caller passes), ``posterior_cov`` gives the Joseph-form posterior covariance
and Kalman gain of any observation model, with a conditioning guard, and
``update`` fuses a stacked observation vector in one call. Tests hold the
rank-1 path to them, and the benchmark's traced run names them.

Each covariance is symmetrized once, by the function that computes it:
``predict`` and ``posterior_cov`` return symmetric matrices, as
``scalar_posterior_cov`` does by construction, and a ``Belief`` stores the
covariance it is given as it is. Code that builds a belief from its own
matrix passes a symmetric one (``symmetrize`` makes it so).

A query interval holds a belief as Python floats (``Belief.values`` and
``Belief.rows``), and its layers hand those floats on. An array is built
only for a BLAS product: in ``predict`` only J P J^T is taken on arrays,
and only for a linear plant, read back as floats with one ``tolist()``;
and the gain's product in ``fused_mean``. The products stay in numpy
because OpenBLAS's kernels fuse multiplies and adds, so the same sums
written on floats would round differently. The mountain car's J P J^T is
taken on floats with the kernel's bits, since half its Jacobian is ones
(``dynamics.MountainCar.propagate_cov``), so its prediction makes no numpy
call. An elementwise sum or scaling on floats gives numpy's bits.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

CONDITION_LIMIT = 1e12
# Innovation eigenvalues below the smallest normal float are subnormal or
# zero: solving with them can overflow the gain to inf, and the covariance
# and gain then come back NaN without an error.
TINY = float(np.finfo(float).tiny)


class Belief:
    """Gaussian belief N(mean, cov) about the plant state at query interval qi.

    Held as floats: ``values``, the mean as a list of K floats, and
    ``rows``, the covariance as K lists of K floats. The covariance must be
    symmetric; it is stored as given, not symmetrized again. ``mean`` and
    ``cov`` give them as new arrays, for the batch oracle and for code that
    works on arrays; a query interval reads the floats.
    """

    __slots__ = ("values", "rows", "qi")

    def __init__(self, mean, cov, qi: int = 0):
        self.values = np.asarray(mean, dtype=float).tolist()
        self.rows = np.asarray(cov, dtype=float).tolist()
        self.qi = qi

    @classmethod
    def of_floats(cls, values: list, rows: list, qi: int) -> "Belief":
        """The belief of a mean and a covariance already held as lists of
        floats, taken as they are, not copied."""
        belief = cls.__new__(cls)
        belief.values, belief.rows, belief.qi = values, rows, qi
        return belief

    @property
    def mean(self) -> np.ndarray:
        return np.array(self.values)

    @property
    def cov(self) -> np.ndarray:
        return np.array(self.rows)

    @property
    def variances(self) -> list:
        """The diagonal of the covariance, as floats."""
        return [row[k] for k, row in enumerate(self.rows)]

    @property
    def deviations(self) -> list:
        """sqrt(max(var, 0)) per feature as floats, NaN kept, as
        np.sqrt(np.maximum(var, 0.0)) gives it: a tie with 0.0 gives +0.0."""
        return [math.sqrt(max(0.0, v)) if v == v else v for v in self.variances]

    def copy(self) -> "Belief":
        return Belief.of_floats(list(self.values), [list(row) for row in self.rows],
                                self.qi)


@dataclass(frozen=True)
class StackedObservationModel:
    """Joint observation model of an ordered agent selection."""

    matrix: np.ndarray        # rows stacked in selection order
    noise_cov: np.ndarray     # diagonal for an agent selection, same order
    agent_ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        object.__setattr__(self, "noise_cov", np.atleast_2d(np.asarray(self.noise_cov, dtype=float)))


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2. An exactly symmetric matrix keeps its bits, unless an
    entry exceeds half the largest float and the sum overflows."""
    return 0.5 * (matrix + matrix.T)


@functools.lru_cache(maxsize=None)
def identity(dim: int) -> np.ndarray:
    """The read-only dim x dim identity, built once per size."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def predict(belief: Belief, control: float, model) -> Belief:
    """Blind prediction: mean through f + B a, covariance through J P J^T + C_u.

    The mean update is deterministic; process noise enters only through the
    covariance inflation. ``control`` is the plant's one control, a float,
    and ``model`` a plant (``dynamics``): ``f`` takes the mean's floats and
    returns floats, ``propagate_cov`` takes them with the covariance's rows
    and returns J P J^T row-major as floats (it raises first on a state it
    refuses), and ``control_column`` (B, K floats) and ``process_cov_flat``
    (C_u, K x K floats row-major) are built with the plant. Everything here
    is taken on floats, where an overflow gives inf without a warning: B a
    as 0.0 + B_k a, the bits of B @ a, and of ``ndarray.dot`` for K >= 2,
    whose sum from zero turns a -0.0 product into +0.0; then the sum with
    C_u and ``symmetrize``'s 0.5 (a + b), with numpy's elementwise bits. A
    mountain car's J P J^T is on floats too, so its prediction makes no
    numpy call; a linear plant's is a BLAS product. The symmetric rows are
    checked finite together with the mean, then kept in the PSD cone
    (``keep_psd``).
    """
    qi = belief.qi + 1
    values = belief.values
    product = model.propagate_cov(values, belief.rows)
    mean = [m + (0.0 + b * control) for m, b in zip(model.f(values), model.control_column)]
    # J P J^T + C_u, row-major, and symmetrize's 0.5 (a + b) with its transpose
    cov = list(map(operator.add, product, model.process_cov_flat))
    k = len(mean)
    rows = [[0.5 * (cov[i * k + j] + cov[j * k + i]) for j in range(k)] for i in range(k)]
    # the symmetric rows, not the sum: a finite entry above half the
    # largest float doubles to inf in 0.5 (a + b)
    if not (_finite(mean) and all(map(_finite, rows))):
        raise NumericalFailureError("non-finite belief prediction", qi=qi)
    return Belief.of_floats(mean, keep_psd(rows), qi)


def keep_psd(rows: list) -> list:
    """``rows`` (K lists of K floats, symmetric) as they are while no
    variance is negative and no pair of features has |P_ij| above
    sqrt(P_ii) sqrt(P_jj); otherwise their projection ``clamp_psd``.

    Roundoff can take a rank-deficient covariance out of the cone: J P J^T
    without process noise turns a correlation of 1 into a squared one of
    1 + a few ulps, and a rank-1 step on such a prior leaves a variance
    like -8e-17, on which the next reading's innovation is not positive.
    NaN compares false and is left as it is, for the checks downstream to
    report.
    """
    for i, row in enumerate(rows):
        d = row[i]
        if d < 0.0:
            return clamp_psd(rows)
        for j in range(i):
            if abs(row[j]) > math.sqrt(d) * math.sqrt(rows[j][j]):
                return clamp_psd(rows)
    return rows


def clamp_psd(rows: list) -> list:
    """New rows with each variance clamped at 0 and each |P_ij| at
    sqrt(P_ii) sqrt(P_jj), its sign kept; NaN stays NaN.

    For K <= 2 this gives a PSD matrix up to the rounding of that bound:
    a symmetric 2 x 2 matrix with a nonnegative diagonal and P_01^2 <=
    P_00 P_11 has a nonnegative trace and determinant. For K > 2 the
    pairwise bounds are necessary but not sufficient (correlations of 0.9,
    0.9 and -0.9 are pairwise valid, jointly indefinite), so a plant of
    more features would need a projection of the eigenvalues instead:
    clip the negative eigenvalues of ``eigh`` at 0 and rebuild.
    """
    scale = [math.sqrt(max(row[i], 0.0)) for i, row in enumerate(rows)]
    return [[max(p, 0.0) if i == j else math.copysign(min(abs(p), si * sj), p)
             for j, (p, sj) in enumerate(zip(row, scale))]
            for i, (row, si) in enumerate(zip(rows, scale))]


def _finite(values) -> bool:
    """Every float in ``values`` is finite."""
    return all(map(math.isfinite, values))


def stack(selected, state_dim: int) -> StackedObservationModel:
    """Stack the selected agents' one-hot observation rows (rows of the
    ``state_dim`` identity) and noise variances (as a diagonal covariance),
    in order. Part of the batch oracle: no query interval calls it."""
    selected = list(selected)
    if not selected:
        raise InvalidInputError("cannot stack an empty selection")
    ids = [a.id for a in selected]
    if len(set(ids)) != len(ids):
        raise InvalidInputError(f"duplicate agent ids in selection: {ids}")
    variance = np.array([a.variance for a in selected], dtype=float)
    rows = identity(state_dim).take([a.feature for a in selected], axis=0)
    return StackedObservationModel(rows, np.diag(variance), tuple(ids))


def posterior_cov(prior_cov, stacked: StackedObservationModel):
    """Joseph-form posterior covariance and the Kalman gain (no observation
    values), of any observation model: the batch oracle that the rank-1
    path is tested against; no query interval calls it.

    The covariance is symmetrized before it is returned. Raises
    NumericalFailureError when the innovation covariance
    S = R + H P H^T is not finite or is ill-conditioned. A one-row model
    takes the same ``solve`` and ``eigvalsh`` as any other: on a state of
    two or more features, OpenBLAS's solve scales its right-hand sides by
    the reciprocal pivot, so the gain has the bits of P H^T * (1/s), and
    eigvalsh of a 1 x 1 S returns its entry, so the guard decides as
    |s| < TINY would.
    """
    h = stacked.matrix
    s = stacked.noise_cov + h @ prior_cov @ h.T
    if not np.isfinite(s).all() or _ill_conditioned(s):
        raise NumericalFailureError("ill-conditioned innovation covariance")
    gain = np.linalg.solve(s.T, (prior_cov @ h.T).T).T
    ikh = identity(prior_cov.shape[0]) - gain @ h
    cov = ikh @ prior_cov @ ikh.T + gain @ stacked.noise_cov @ gain.T
    return symmetrize(cov), gain


def scalar_posterior_cov(cov: list, feature: int, variance: float) -> list:
    """Joseph-form posterior covariance after one reading of ``feature``
    with noise ``variance``: the rank-1 update of ``cov``, K lists of K
    floats (``Belief.rows``), by a one-hot row, returned in that form.

    With c = P[:, k], s = c[k] + r and g = c / s, the Joseph form
    (I - g h) P (I - g h)^T + r g g^T is P - (g c^T + c g^T) + s g g^T.
    Each term is symmetric bit for bit (a product and a sum of two floats
    do not depend on their order), so the result needs no ``symmetrize``;
    it is returned through ``keep_psd``.
    Row and column k are instead written from c (r / s), which they equal
    in exact arithmetic: the difference above cancels there when P_kk >> r,
    and the read feature's variance would lose digits. Each entry takes one
    float operation per step, on floats, which gives the bits of the same
    steps on arrays. ``cov`` must be finite and symmetric, as ``predict``
    and this function return it. Raises NumericalFailureError unless
    TINY <= s < inf, the one-row case of the conditioning guard.
    """
    variance = float(variance)
    c = [row[feature] for row in cov]
    s = c[feature] + variance
    if not TINY <= s < math.inf:
        raise NumericalFailureError("ill-conditioned innovation covariance")
    inverse = 1.0 / s
    g = [x * inverse for x in c]
    # P+ e_k = c r / s exactly; the subtraction cancels in column k when
    # P_kk >> r, so row and column k are written from it
    ratio = variance / s
    column = [x * ratio for x in c]
    out = []
    for i, (row, gi, ci) in enumerate(zip(cov, g, c)):
        if i == feature:
            out.append(column)
            continue
        new = [p - (gi * cj + gj * ci) + s * (gi * gj) for p, gj, cj in zip(row, g, c)]
        new[feature] = column[i]
        out.append(new)
    return keep_psd(out)


def _ill_conditioned(s) -> bool:
    """Finite symmetric ``s`` has an absolute eigenvalue below TINY, or a
    2-norm condition number above CONDITION_LIMIT.

    For a symmetric matrix the singular values are the absolute
    eigenvalues, so eigvalsh gives the same number as an SVD, cheaper.
    """
    lam = np.abs(np.linalg.eigvalsh(s))
    return lam.min() < TINY or lam.max() > CONDITION_LIMIT * lam.min()


def update(prior: Belief, stacked: StackedObservationModel, values) -> Belief:
    """Fuse the stacked observation vector into the prior belief.

    Checks its inputs and writes the mean out itself rather than through
    ``fused_mean``: it is the independent reference, with ``posterior_cov``,
    that the schedulers' fusion tail is tested against. No query interval
    calls it.
    """
    h = stacked.matrix
    if h.shape[1] != prior.mean.shape[0]:
        raise InvalidInputError("observation matrix does not match state dimension")
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.shape[0] != h.shape[0]:
        raise InvalidInputError(
            f"observation vector length {values.shape[0]} != stacked rows {h.shape[0]}")
    cov, gain = posterior_cov(prior.cov, stacked)
    mean = prior.mean + gain @ (values - h @ prior.mean)
    if not np.isfinite(mean).all():
        raise NumericalFailureError("non-finite posterior mean", qi=prior.qi)
    return Belief(mean, cov, prior.qi)


def joint_gain(cov: list, features, precision) -> np.ndarray:
    """The joint Kalman gain K = P+ H^T R^-1 of readings of ``features``
    with noise precisions ``precision`` (1/r, one per reading), from the
    posterior covariance ``cov`` (``Belief.rows``): column j is
    P+[:, features[j]] * precision[j], a product per entry on floats. The
    K x n array is column-major, the layout that P+[:, features] has, so
    its product in ``fused_mean`` sums in the same order; it is built from
    one flat list of the products, column by column."""
    return np.array([row[k] * p for k, p in zip(features, precision)
                     for row in cov]).reshape(len(features), len(cov)).T


def fused_mean(prior: Belief, features, gain: np.ndarray, values) -> list:
    """Posterior mean m + K (o - m[features]) as floats, with K the joint
    gain (``joint_gain``).

    ``features`` lists the feature each reading measures, and ``values``
    holds the readings as floats, one per feature listed;
    ``scheduler._readings`` checks that before this is called. m[features]
    is H m of the selection's one-hot rows. The innovation and the sum are
    taken on floats, the product K (o - H m) by ``ndarray.dot``.
    """
    mean = prior.values
    innovation = np.array([o - mean[k] for o, k in zip(values, features)])
    mean = [m + d for m, d in zip(mean, gain.dot(innovation).tolist())]
    if not _finite(mean):
        raise NumericalFailureError("non-finite posterior mean", qi=prior.qi)
    return mean
