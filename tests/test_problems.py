from dataclasses import replace

import numpy as np
import pytest

from morley_ocp.assembly import assemble_constraints
from morley_ocp.element import DofMap
from morley_ocp.estimator import true_error
from morley_ocp.mesh import initial_mesh, uniform_refine
from morley_ocp.problems import ProblemError, ProblemSpec, example, manufactured
from morley_ocp.vi_solver import solve_vi

from conftest import assemble
from oracles import slater_margins


def _sample_points(problem, n, seed=0):
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = problem.domain
    return (x0 + (x1 - x0) * rng.uniform(0.05, 0.95, n),
            y0 + (y1 - y0) * rng.uniform(0.05, 0.95, n))


PI = np.pi


# the reference states as printed in the paper, written out independently
# of problems.py
def _s(i, j, x, y):
    return np.sin(i * PI * x) * np.sin(j * PI * y)


def _p1(x, y):
    return _s(2, 2, x, y) + 3 / 8 * _s(2, 4, x, y)


PRINTED_STATES = {
    1: _p1,
    2: lambda x, y: 2 * PI**2 * _s(1, 1, x, y),
    3: lambda x, y: -_s(1, 1, x, y) / (2 * PI**2),
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_state_is_the_printed_formula(k):
    # the series closures must reproduce the paper's closed forms; a wrong
    # mode or coefficient would otherwise stay self-consistent
    p = example(k)
    x, y = _sample_points(p, 200, seed=30 + k)
    printed = PRINTED_STATES[k](x, y)
    err = np.max(np.abs(p.exact.value(x, y) - printed))
    assert err <= 1e-13 * np.max(np.abs(printed))


def test_example1_data_verbatim():
    p = example(1)
    assert p.beta == 1.0
    assert p.delta2 == -0.4
    assert p.delta1 == 0.0
    assert p.domain == (0.0, 0.0, 1.0, 1.0)
    assert p.case == "integral"


def test_example_ids():
    # ex3 alone lives on (-1, 1)^2
    assert example("ex3").domain == example(3).domain == (-1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ProblemError):
        example(5)


def test_example3_control_consistency():
    # -Delta(y*) - f = u* pointwise
    p = example(3)
    x, y = _sample_points(p, 20)
    h = p.exact.hessian(x, y)
    neg_lap = -(h[..., 0, 0] + h[..., 1, 1])
    u = -_s(1, 1, x, y)                         # u* = -s
    assert np.allclose(neg_lap, u, atol=1e-10)
    assert p.case == "integral"


def test_example1_pde_consistency():
    # -Delta(y*) = f + u*
    p = example(1)
    x, y = _sample_points(p, 20, seed=1)
    h = p.exact.hessian(x, y)
    neg_lap = -(h[..., 0, 0] + h[..., 1, 1])
    rhs = p.f(x, y) - _p1(x, y)                 # u* = -p
    assert np.allclose(neg_lap, rhs, atol=1e-9)


def test_example2_pde_consistency_and_slack_state():
    p = example(2)
    x, y = _sample_points(p, 20, seed=2)
    h = p.exact.hessian(x, y)
    neg_lap = -(h[..., 0, 0] + h[..., 1, 1])
    rhs = p.f(x, y) + 4 / PI**2 - _s(1, 1, x, y)  # u* = 4/pi^2 - s
    assert np.allclose(neg_lap, rhs, atol=1e-8)
    # reference state has mean 8; the state bound stays slack
    assert p.delta2 < 8.0
    assert np.all(p.y_d(x, y) == 0.0)
    assert p.case == "integral"


def test_example4_has_no_exact_solution():
    p = example(4)
    assert p.exact is None
    assert p.case == "box"
    assert (p.beta, p.delta3) == (0.01, 0.0)
    x, y = _sample_points(p, 5)
    assert np.all(p.u_a(x, y) == 0.0) and np.all(p.u_b(x, y) == 30.0)


FD_CASES = [1, 2, 3]


@pytest.mark.parametrize("k", FD_CASES)
def test_gradient_matches_finite_differences(k):
    p = example(k)
    x, y = _sample_points(p, 50, seed=k)
    h = 1e-5
    g = p.exact.gradient(x, y)
    fx = (p.exact.value(x + h, y) - p.exact.value(x - h, y)) / (2 * h)
    fy = (p.exact.value(x, y + h) - p.exact.value(x, y - h)) / (2 * h)
    scale = np.abs(g).max() + 1.0
    assert np.allclose(g[..., 0], fx, atol=1e-6 * scale)
    assert np.allclose(g[..., 1], fy, atol=1e-6 * scale)


@pytest.mark.parametrize("k", FD_CASES)
def test_hessian_matches_finite_differences(k):
    p = example(k)
    x, y = _sample_points(p, 50, seed=10 + k)
    h = 1e-5
    H = p.exact.hessian(x, y)
    gxp = p.exact.gradient(x + h, y)
    gxm = p.exact.gradient(x - h, y)
    gyp = p.exact.gradient(x, y + h)
    gym = p.exact.gradient(x, y - h)
    scale = np.abs(H).max() + 1.0
    assert np.allclose(H[..., 0, 0], (gxp[..., 0] - gxm[..., 0]) / (2 * h),
                       atol=1e-6 * scale)
    assert np.allclose(H[..., 0, 1], (gyp[..., 0] - gym[..., 0]) / (2 * h),
                       atol=1e-6 * scale)
    assert np.allclose(H[..., 1, 1], (gyp[..., 1] - gym[..., 1]) / (2 * h),
                       atol=1e-6 * scale)


@pytest.mark.parametrize("k", [1, 2])
def test_source_laplacian_matches_finite_differences(k):
    p = example(k)
    x, y = _sample_points(p, 50, seed=20 + k)
    h = 1e-4
    lap_fd = (p.f(x + h, y) + p.f(x - h, y) + p.f(x, y + h) + p.f(x, y - h)
              - 4 * p.f(x, y)) / h**2
    lap = p.f_laplacian(x, y)
    scale = np.abs(lap).max() + 1.0
    assert np.allclose(lap, lap_fd, atol=1e-5 * scale)


def test_manufactured_determinism():
    p1 = manufactured(42, active_state=True)
    p2 = manufactured(42, active_state=True)
    x, y = _sample_points(p1, 20, seed=5)
    assert np.array_equal(p1.y_d(x, y), p2.y_d(x, y))
    assert p1.delta1 == p2.delta1 and p1.delta2 == p2.delta2
    assert p1.multipliers == p2.multipliers
    assert p1.case == manufactured(42).case == "integral"
    p3 = manufactured(43, active_state=True)
    assert not np.allclose(p1.y_d(x, y), p3.y_d(x, y))


def test_manufactured_derivatives_match_fd():
    p = manufactured(11)
    x, y = _sample_points(p, 50, seed=6)
    h = 1e-5
    g = p.exact.gradient(x, y)
    fx = (p.exact.value(x + h, y) - p.exact.value(x - h, y)) / (2 * h)
    assert np.allclose(g[..., 0], fx, atol=1e-6 * (np.abs(g).max() + 1))
    H = p.exact.hessian(x, y)
    lap_fd = (p.exact.value(x + h, y) + p.exact.value(x - h, y)
              + p.exact.value(x, y + h) + p.exact.value(x, y - h)
              - 4 * p.exact.value(x, y)) / h**2
    assert np.allclose(H[..., 0, 0] + H[..., 1, 1], lap_fd,
                       atol=1e-4 * (np.abs(H).max() + 1))


def test_manufactured_inactive_error_decreases():
    p = manufactured(9)
    mesh = initial_mesh(0.0, 1.0, 2)
    errs = []
    for _ in range(3):
        dm = DofMap(mesh)
        A, b = assemble(dm, p)
        cons = assemble_constraints(dm, p)
        sol = solve_vi(A, b, cons)
        assert sol.mu == 0.0 and np.all(sol.lam == 0.0)
        errs.append(true_error(dm, sol.coefficients, p.exact,
                               p.beta).energy_error)
        mesh = uniform_refine(mesh, 2)
    assert errs[2] < errs[1] < errs[0]


def test_manufactured_active_multiplier_converges():
    p = manufactured(13, active_state=True)
    mesh = initial_mesh(0.0, 1.0, 2)
    errs = []
    for _ in range(3):
        dm = DofMap(mesh)
        A, b = assemble(dm, p)
        cons = assemble_constraints(dm, p)
        sol = solve_vi(A, b, cons)
        assert sol.active[0] == -1
        errs.append(abs(sol.mu - p.multipliers["mu"]))
        mesh = uniform_refine(mesh, 1)
    # the mean row is exact on the discrete space, so the designed
    # multiplier is recovered to rounding accuracy throughout
    assert max(errs) < 1e-8


def test_slater_condition_examples():
    for k in (1, 2, 3):
        sm, cm = slater_margins(example(k))
        assert sm > 0
        assert cm >= -1e-10
    sm, cm = slater_margins(manufactured(3))
    assert sm > 0 and cm > 0


def test_problem_validation():
    def zero(x, y):
        return 0 * x

    with pytest.raises(ProblemError):
        ProblemSpec(domain=(0, 0, 1, 1), beta=-1.0,
                    y_d=lambda x, y: x, f=None, f_laplacian=None,
                    delta1=0.0, delta2=0.0)
    # the bounds given must be exactly one of the two constraint sets
    for bounds in ({"delta1": 0.0},                              # no delta2
                   {"delta3": 0.0},                              # no box
                   {"delta3": 0.0, "u_a": zero},                 # no u_b
                   {"delta1": 0.0, "delta2": 0.0, "delta3": 0.0}):   # mixed
        with pytest.raises(ProblemError,
                           match=r"delta1, delta2 .* delta3, u_a, u_b"):
            ProblemSpec(domain=(0, 0, 1, 1), beta=1.0,
                        y_d=lambda x, y: x, f=None, f_laplacian=None,
                        **bounds)


@pytest.mark.parametrize("f, f_laplacian", [
    (lambda x, y: 1 + 0 * x, None),
    (None, lambda x, y: 0 * x),
])
def test_source_without_its_laplacian_rejected(f, f_laplacian):
    # the load uses f and the estimator uses f_laplacian: a spec with one
    # of them would drop (or invent) the source term in eta1
    with pytest.raises(ProblemError, match="f_laplacian"):
        ProblemSpec(domain=(0, 0, 1, 1), beta=1.0,
                    y_d=lambda x, y: x, f=f, f_laplacian=f_laplacian,
                    delta1=0.0, delta2=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case, bounds, name", [
    ("integral", {"delta1": 0.0, "delta2": 0.0}, "delta1"),
    ("integral", {"delta1": 0.0, "delta2": 0.0}, "delta2"),
    ("box", {"delta3": 0.0, "u_a": lambda x, y: 0 * x,
             "u_b": lambda x, y: 1 + 0 * x}, "delta3"),
])
def test_nonfinite_constraint_bound_rejected(case, bounds, name, bad):
    spec = dict(domain=(0, 0, 1, 1), beta=1.0, y_d=lambda x, y: x, f=None,
                f_laplacian=None)
    # the bounds given decide the case
    assert ProblemSpec(**spec, **bounds).case == case
    with pytest.raises(ProblemError, match=name):
        ProblemSpec(**spec, **dict(bounds, **{name: bad}))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_nonpositive_or_nonfinite_beta_rejected(bad):
    # beta <= 0 is False for NaN; such a problem used to fail only at the
    # first factorization
    with pytest.raises(ProblemError, match="beta"):
        replace(example(4), beta=bad)
