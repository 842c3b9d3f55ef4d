"""Benchmark problem definitions and a manufactured-problem builder.

Each problem provides closed-form data closures (vectorized over numpy
arrays): the target state ``y_d``, the source ``f`` with its analytic
Laplacian, the constraint data, and optionally the exact solution (value,
gradient, Hessian).  Four named problems (ex1..ex4) plus seeded
manufactured problems; ex1..ex3 and the manufactured problems are built
from one sine-series builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

PI = np.pi

Field2 = Callable[[np.ndarray, np.ndarray], np.ndarray]


class ProblemError(Exception):
    pass


@dataclass
class ExactSolution:
    """Closed-form reference state with its derivatives."""

    value: Field2
    gradient: Field2                 # returns (..., 2)
    hessian: Field2                  # returns (..., 2, 2)


@dataclass
class ProblemSpec:
    """Data of one distributed control problem in reduced form.

    ``case`` selects the constraint structure: "integral" couples the
    scalar state bound ``delta2`` with the scalar control bound ``delta1``;
    "box" couples the scalar state bound ``delta3`` with per-element
    control boxes ``u_a <= -Delta y <= u_b``.
    """

    domain: tuple                    # (x0, y0, x1, y1)
    beta: float
    y_d: Field2
    f: Optional[Field2]
    f_laplacian: Optional[Field2]
    case: str
    delta1: Optional[float] = None
    delta2: Optional[float] = None
    delta3: Optional[float] = None
    u_a: Optional[Field2] = None
    u_b: Optional[Field2] = None
    exact: Optional[ExactSolution] = None
    multipliers: dict = field(default_factory=dict)   # manufactured only

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ProblemError("beta must be positive and finite")
        if self.case == "integral":
            if self.delta1 is None or self.delta2 is None:
                raise ProblemError("integral case needs delta1 and delta2")
            if self.delta3 is not None or self.u_a is not None or self.u_b is not None:
                raise ProblemError("integral case must not carry box data")
        elif self.case == "box":
            if self.delta3 is None or self.u_a is None or self.u_b is None:
                raise ProblemError("box case needs delta3, u_a, u_b")
            if self.delta1 is not None or self.delta2 is not None:
                raise ProblemError("box case must not carry integral bounds")
        else:
            raise ProblemError(f"unknown case {self.case!r}")
        if (self.f is None) != (self.f_laplacian is None):
            raise ProblemError("f and f_laplacian must be given together")
        for name in ("delta1", "delta2", "delta3"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ProblemError(f"{name} must be finite, got {value!r}")

    @property
    def square(self):
        x0, y0, x1, y1 = self.domain
        return (x0, y0), (x1, y1)


def example(k):
    """The four benchmark problems, selectable as 1..4 (or "ex1".."ex4")."""
    if isinstance(k, str):
        k = int(k.removeprefix("ex"))
    builders = {1: _example1, 2: _example2, 3: _example3, 4: _example4}
    if k not in builders:
        raise ProblemError(f"unknown example id {k!r}")
    return builders[k]()


def _example1():
    # adjoint p = sin(2 pi x) sin(2 pi y) + (3/8) sin(2 pi x) sin(4 pi y);
    # state y = p, control u = -p, beta = 1 on the unit square.  Integral
    # state and control constraints; the reference formulas satisfy the
    # stationarity identity with mu = 0.4 at a state bound of 0, so with
    # the bound -0.4 the reference is a near-solution rather than the
    # exact optimum.
    p, grad_p, hess_p, lap_p, bilap_p = _sine_series([(2, 2), (2, 4)],
                                                     [1.0, 3.0 / 8.0])
    return ProblemSpec(
        domain=(0.0, 0.0, 1.0, 1.0),
        beta=1.0,
        y_d=lambda x, y: p(x, y) + lap_p(x, y) - 0.4,
        f=lambda x, y: p(x, y) - lap_p(x, y),
        f_laplacian=lambda x, y: lap_p(x, y) - bilap_p(x, y),
        case="integral",
        delta1=0.0,
        delta2=-0.4,
        exact=ExactSolution(p, grad_p, hess_p),
    )


def _example2():
    # s = sin(pi x) sin(pi y), state y = 2 pi^2 s, control u = 4/pi^2 - s,
    # y_d = 0, beta = 1: the control constraint is active with multiplier
    # 4/pi^2.  The state bound is set slack (-100; the reference state has
    # mean 8), so the printed closed form is the exact optimum.
    yv, grad_y, hess_y, _, _ = _sine_series([(1, 1)], [2 * PI**2])
    s, _, _, _, bilap_s = _sine_series([(1, 1)], [1.0])
    return ProblemSpec(
        domain=(0.0, 0.0, 1.0, 1.0),
        beta=1.0,
        y_d=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        f=lambda x, y: bilap_s(x, y) + s(x, y) - 4 / PI**2,
        f_laplacian=lambda x, y: -2 * PI**2 * (bilap_s(x, y) + s(x, y)),
        case="integral",
        delta1=0.0,
        delta2=-100.0,
        exact=ExactSolution(yv, grad_y, hess_y),
    )


def _example3():
    # y = -sin(pi x) sin(pi y) / (2 pi^2), u = -sin(pi x) sin(pi y) on
    # (-1,1)^2; integral state and control constraints, both active,
    # mu = 0.6, lambda = 0.
    yv, grad_y, hess_y, _, bilap_y = _sine_series([(1, 1)],
                                                  [-1 / (2 * PI**2)])
    return ProblemSpec(
        domain=(-1.0, -1.0, 1.0, 1.0),
        beta=1.0,
        y_d=lambda x, y: bilap_y(x, y) + yv(x, y) - 0.6,
        f=None,
        f_laplacian=None,
        case="integral",
        delta1=0.0,
        delta2=0.0,
        exact=ExactSolution(yv, grad_y, hess_y),
    )


def _example4():
    # integral state constraint with pointwise control bounds: the box
    # 0 <= u <= 30 with a small beta; no closed-form solution.
    return ProblemSpec(
        domain=(0.0, 0.0, 1.0, 1.0),
        beta=0.01,
        y_d=lambda x, y: 10.0 * (np.sin(PI * x) + np.sin(PI * y)),
        f=None,
        f_laplacian=None,
        case="box",
        delta3=0.0,
        u_a=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        u_b=lambda x, y: np.full_like(np.asarray(x, dtype=float), 30.0),
        exact=None,
    )


def _sine_series(modes, coeffs):
    """Closures (value, gradient, Hessian, Laplacian, bi-Laplacian) of
    sum_k a_k sin(i pi x) sin(j pi y) for modes (i, j) and coefficients a_k.
    Every derivative is the same sum with a per-mode scale, and cosines for
    the variables it differentiates in odd order."""
    terms = [(int(i), int(j), float(a)) for (i, j), a in zip(modes, coeffs)]

    def series(scale, fx=np.sin, fy=np.sin):
        return lambda x, y: sum(scale(i, j, a) * fx(i * PI * x)
                                * fy(j * PI * y) for i, j, a in terms)

    value = series(lambda i, j, a: a)
    gx = series(lambda i, j, a: a * i * PI, fx=np.cos)
    gy = series(lambda i, j, a: a * j * PI, fy=np.cos)
    hxx = series(lambda i, j, a: -a * (i * PI) ** 2)
    hxy = series(lambda i, j, a: a * i * j * PI**2, fx=np.cos, fy=np.cos)
    hyy = series(lambda i, j, a: -a * (j * PI) ** 2)
    laplacian = series(lambda i, j, a: -a * (i * i + j * j) * PI**2)
    bilaplacian = series(lambda i, j, a: a * ((i * i + j * j) * PI**2) ** 2)

    def gradient(x, y):
        return np.stack([gx(x, y), gy(x, y)], axis=-1)

    def hessian(x, y):
        xx, xy, yy = hxx(x, y), hxy(x, y), hyy(x, y)
        return np.stack([np.stack([xx, xy], -1), np.stack([xy, yy], -1)], -2)

    return value, gradient, hessian, laplacian, bilaplacian


def _sine_integral(i):
    """int_0^1 sin(i pi t) dt."""
    return (1.0 - np.cos(i * PI)) / (i * PI)


def manufactured(seed, active_state=False):
    """Seeded random smooth problem on the unit square, built backwards.

    The data are chosen so the reference state is the exact optimum: with
    ``active_state=False`` both constraints are slack (all multipliers
    zero); otherwise the state constraint is exactly active with a known
    positive multiplier, stored in ``multipliers["mu"]``.
    """
    rng = np.random.default_rng(seed)
    # low modes keep the backward-built data (containing the bilaplacian)
    # at a scale coarse meshes can resolve
    pool = [(1, 1), (1, 2), (2, 1), (2, 2)]
    idx = rng.choice(len(pool), size=2, replace=False)
    modes = [pool[i] for i in idx]
    coeffs = rng.uniform(0.2, 0.8, size=2) * rng.choice([-1.0, 1.0], size=2)
    value, gradient, hessian, _, bilaplacian = _sine_series(modes, coeffs)

    beta = 1.0
    # active variant: the unconstrained minimizer undershoots the mean
    # bound by mu times an O(1) factor, so a mu of order one keeps the
    # constraint active on coarse meshes already
    mu = float(rng.uniform(1.0, 3.0)) if active_state else 0.0
    mean_y = sum(a * _sine_integral(i) * _sine_integral(j)
                 for (i, j), a in zip(modes, coeffs))
    mean_neg_lap = sum(a * (i * i + j * j) * PI**2
                       * _sine_integral(i) * _sine_integral(j)
                       for (i, j), a in zip(modes, coeffs))

    def y_d(x, y):
        return beta * bilaplacian(x, y) + value(x, y) - mu

    return ProblemSpec(
        domain=(0.0, 0.0, 1.0, 1.0),
        beta=beta,
        y_d=y_d,
        f=None,
        f_laplacian=None,
        case="integral",
        delta1=float(mean_neg_lap) - 1.0e3,
        delta2=float(mean_y) if active_state else float(mean_y) - 10.0,
        exact=ExactSolution(value, gradient, hessian),
        multipliers={"mu": mu, "lambda": 0.0},
    )
