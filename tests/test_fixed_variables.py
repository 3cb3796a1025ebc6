"""``fixed_variable_solve``: its column pivots, its numpy-only imports, and
the lambda equations it solves.

The fixed x^rho rows are the first m_lambda_rho pivots of a column-pivoted
QR of the lambda-rho Schur block.  scipy's ``qr(pivoting=True)`` (LAPACK
``geqp3``) is the reference for those pivots here and nowhere else, so that
test skips where scipy is not installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import designed_instance
from canonkit.classify import classify_step
from canonkit.evolution import _pivot_columns, fixed_variable_solve
from canonkit.linalg import numeric_rank

ROOT = Path(__file__).resolve().parents[1]


def _designed(seed, sizes):
    """A designed middle step: its basis, h, and random x and post-side pi."""
    r = np.random.default_rng(seed)
    m1, m2 = designed_instance(r, sizes)
    h = m1.b + m2.a
    basis = classify_step(m1.c, m2.c, h, step=1)
    return basis, h, r.normal(size=basis.dim), r.normal(size=basis.dim)


def test_pivot_columns_match_scipy_qr():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    r = np.random.default_rng(17)
    for t in range(2000):
        p, q = r.integers(1, 8, size=2)
        k = int(r.integers(1, min(p, q) + 1))
        a = r.normal(size=(p, k)) @ r.normal(size=(k, q))
        if t % 2:
            a = a * 10.0 ** r.integers(-6, 7, size=q)
        m = numeric_rank(a, 1e-10)
        want = np.sort(scipy_linalg.qr(a, pivoting=True)[2][:m])
        assert np.array_equal(_pivot_columns(a, m), want), (t, a)

    checked = 0
    for seed in range(60):
        sizes = {"H": seed % 3, "lambda": 1 + seed % 3, "rho": 1 + (seed // 3) % 3, "gamma": 1}
        basis, h, x, post_pi = _designed(seed, sizes)
        out = fixed_variable_solve(basis, h, x, post_pi)
        m = len(out.fixed_rho_rows)
        piv = np.sort(scipy_linalg.qr(out.schur_lambda_rho, pivoting=True)[2][:m])
        assert out.fixed_rho_rows == tuple(int(basis.rows_of("rho")[c]) for c in piv)
        checked += m > 0
    assert checked == 60


def test_fixed_variable_solve_loads_no_scipy():
    # a fresh interpreter, since this test process may have loaded scipy itself
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from helpers import designed_instance\n"
        "from canonkit.classify import classify_step\n"
        "from canonkit.evolution import fixed_variable_solve\n"
        "r = np.random.default_rng(3)\n"
        "m1, m2 = designed_instance(r, {'H': 1, 'lambda': 2, 'rho': 2, 'gamma': 1})\n"
        "h = m1.b + m2.a\n"
        "basis = classify_step(m1.c, m2.c, h, step=1)\n"
        "out = fixed_variable_solve(basis, h, r.normal(size=basis.dim), r.normal(size=basis.dim))\n"
        "assert len(out.fixed_rho_rows) == 2, out.fixed_rho_rows\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_lambda=st.integers(1, 3), n_rho=st.integers(1, 3), n_h=st.integers(0, 2),
       n_gamma=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_fixed_rho_solve_the_lambda_equations(n_lambda, n_rho, n_h, n_gamma, seed):
    # consistent data: x_true solves the H equations and post_pi its lambda
    # equations; the solve is handed x_true with its rho entries scrambled
    sizes = {"H": n_h, "lambda": n_lambda, "rho": n_rho, "gamma": n_gamma}
    basis, h, x, _ = _designed(seed, sizes)
    assume(basis.counts == {**dict.fromkeys(("I", "l", "r", "z"), 0), **sizes})
    k = basis.T @ h @ basis.T.T
    rows_h, rows_l, rows_r = (basis.rows_of(t) for t in ("H", "lambda", "rho"))
    others = np.setdiff1d(np.arange(basis.dim), rows_h)

    def on_h_solution(xs):
        xs = xs.copy()
        xs[rows_h] = -np.linalg.solve(k[np.ix_(rows_h, rows_h)], k[np.ix_(rows_h, others)] @ xs[others])
        return xs

    x_true = on_h_solution(basis.to_split_config(x))
    post_pi = np.zeros(basis.dim)
    post_pi[rows_l] = -k[rows_l] @ x_true
    x_given = x_true.copy()
    x_given[rows_r] = np.random.default_rng(seed + 1).normal(size=n_rho)

    out = fixed_variable_solve(basis, h, basis.from_split_config(x_given), post_pi)
    assert len(out.fixed_rho_rows) == min(n_lambda, n_rho)
    x_given[rows_h] = out.x_H
    assert np.abs(k[rows_h] @ x_given).max(initial=0.0) <= 1e-8 * np.abs(k).max() * np.abs(x_given).max()
    x_given[list(out.fixed_rho_rows)] = out.x_rho_fixed
    x_fixed = on_h_solution(x_given)
    resid = post_pi[rows_l] + k[rows_l] @ x_fixed
    assert np.abs(resid).max() <= 1e-8 * np.abs(k).max() * np.abs(x_fixed).max()
