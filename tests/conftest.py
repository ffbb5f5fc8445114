import functools
import itertools
import math

import numpy as np
import pytest

import golden
from marsquad import linmodel, mpc, params


@pytest.fixture(scope="session")
def env():
    return params.MARS


@pytest.fixture(scope="session")
def veh():
    return params.VehicleParams()


@pytest.fixture(scope="session")
def cont_model(veh, env):
    return linmodel.linearize_hover(veh, env)


@pytest.fixture(scope="session")
def disc_model(cont_model):
    return linmodel.discretize(cont_model, 0.02)


@pytest.fixture(scope="session")
def mpc_cfg(veh):
    return mpc.MpcConfig.default(veh)


@pytest.fixture(scope="session")
def shipped_dir(tmp_path_factory):
    """The session directory the shipped runs write to, as ``marsquad run`` lays it out."""
    return tmp_path_factory.mktemp("shipped")


@pytest.fixture(scope="session")
def shipped_run(shipped_dir):
    """``run(name, kind)``: ``golden.run`` into ``shipped_dir``, once per session.

    The acceptance criteria read each shipped run's results, and the
    golden-output gate the files it wrote.
    """
    return functools.cache(functools.partial(golden.run, outdir=shipped_dir))


def _brute_force_box_qp(h, g, lo, hi):
    """Enumerate every lower/free/upper pattern and keep the feasible minimum, one by one.

    The reference for ``_batched_box_qp``; a pattern whose free block is
    singular is skipped.
    """
    n = len(g)
    best, best_val = None, math.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        x = np.empty(n)
        fixed = [i for i, p in enumerate(pattern) if p]
        free = [i for i, p in enumerate(pattern) if not p]
        for i in fixed:
            x[i] = lo[i] if pattern[i] == 1 else hi[i]
        if free:
            rhs = -g[free]
            if fixed:
                rhs = rhs - h[np.ix_(free, fixed)] @ x[fixed]
            try:
                x[free] = np.linalg.solve(h[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x[free] < lo[free] - 1e-12) or np.any(x[free] > hi[free] + 1e-12):
                continue
        val = 0.5 * x @ h @ x + g @ x
        if val < best_val:
            best_val, best = val, x.copy()
    return best


@functools.cache
def _patterns(n):
    """All 3^n lower (1), free (0) and upper (2) patterns, in ``itertools.product`` order."""
    return np.array(list(itertools.product((0, 1, 2), repeat=n)), dtype=int).reshape(-1, n)


def _batched_box_qp(h, g, lo, hi):
    """Every lower/free/upper pattern's minimizer from one stacked solve; the feasible minimum.

    A pattern's system holds H's rows for its free coordinates and
    identity rows fixing the others at their bound, so it is singular
    exactly when its free block is; then ``np.linalg.solve`` raises
    ``LinAlgError`` rather than skipping the pattern. Ties go to the
    first pattern, as in ``_brute_force_box_qp``.
    """
    n = len(g)
    patterns = _patterns(n)
    free = patterns == 0
    bound = np.where(patterns == 1, lo, hi)
    systems = np.where(free[:, :, None], h, np.eye(n))
    x = np.linalg.solve(systems, np.where(free, -g, bound)[:, :, None])[:, :, 0]
    x = np.where(free, x, bound)
    feasible = (~free | ((x >= lo - 1e-12) & (x <= hi + 1e-12))).all(axis=1)
    values = 0.5 * np.einsum("pi,ij,pj->p", x, h, x) + x @ g
    return x[np.flatnonzero(feasible)[np.argmin(values[feasible])]]


@pytest.fixture(scope="session")
def box_qp_oracle():
    """Brute-force minimizer of 0.5 x'Hx + g'x over a small box: ``f(h, g, lo, hi)``."""
    return _batched_box_qp


@pytest.fixture(scope="session")
def box_qp_loop_oracle():
    """``box_qp_oracle`` pattern by pattern, the reference it is tested against."""
    return _brute_force_box_qp
