import os

import numpy as np
import pytest

from morley_ocp.assembly import assemble_system
from morley_ocp.element import sample
from morley_ocp.mesh import Mesh, bisect, initial_mesh

ACCEPTANCE_LINES = []
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def child_env():
    """Environment for a CLI child process: single-threaded deterministic
    mode, and the package importable from a checkout that is not
    installed."""
    env = dict(os.environ, MORLEY_OCP_THREADS="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def assemble(dm, problem):
    """``assemble_system`` with ``y_d`` sampled at ``dm.points``, as
    ``solve_on_mesh`` calls it."""
    return assemble_system(dm, problem, sample(problem.y_d, dm.points))


def random_mesh(seed, max_elements=16, domain=(0.0, 1.0)):
    """Small mesh obtained by seeded random bisections of a criss-cross."""
    rng = np.random.default_rng(seed)
    mesh = initial_mesh(domain[0], domain[1], 1)
    while True:
        marked = rng.choice(mesh.n_elements,
                            size=rng.integers(1, 3), replace=False)
        nxt = bisect(mesh, marked)
        if nxt.n_elements > max_elements:
            return mesh
        mesh = nxt


def fit_slope(records, window, field_name="eta_h"):
    """Least-squares slope of log(field) vs log(dofs) over the last
    ``window`` records."""
    if window < 2:
        raise ValueError("window must be >= 2")
    if len(records) < window:
        raise ValueError(f"need at least {window} records, got {len(records)}")
    tail = records[-window:]
    x = np.log([r.dofs for r in tail])
    y = np.log([getattr(r, field_name) for r in tail])
    return float(np.polyfit(x, y, 1)[0])


@pytest.fixture
def unit_cross():
    return initial_mesh(0.0, 1.0, 1)


@pytest.fixture
def reference_triangle_mesh():
    # refinement edge: the hypotenuse, opposite local vertex 0
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.array([0]))


@pytest.fixture
def split_square_mesh():
    # unit square cut by one diagonal, which is both refinement edges
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                np.array([[0, 1, 2], [0, 2, 3]]), np.array([1, 2]))
