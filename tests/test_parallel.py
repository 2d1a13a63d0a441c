"""Simulated data do not depend on how many threads share its row blocks.

``linalg._cpus`` is forced to 1, 2 and 16, so a runner with one CPU also
runs the threaded path, with a switch interval short enough that the
threads interleave often, and a runner with two CPUs the capped count of
many.  The simulator's blocks of ``SIM_BLOCK`` rows must give the same
bytes for every count, at the default ``linalg.ROW_BLOCK`` and at 7 rows;
the simulator must draw the stream its definition names, written here
with numpy alone; and an error in a worker thread must reach the caller.
"""

import sys

import numpy as np
import pytest

from cpscores import linalg
from cpscores.linalg import _sym_power
from cpscores.model import combined_factor_corr
from cpscores.simulate import SIM_BLOCK, SimulationSpec, simulate_dataset

WORKERS = [1, 2, 16]


@pytest.fixture
def force_workers(monkeypatch):
    """Call ``force_workers(w)`` to run with ``w`` CPUs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield lambda w: monkeypatch.setattr(linalg, "_cpus", lambda: w)
    finally:
        sys.setswitchinterval(interval)


def by_workers(force_workers, run):
    """``run()`` once per count of ``WORKERS``."""
    out = []
    for w in WORKERS:
        force_workers(w)
        out.append(run())
    return out


def assert_same_bytes(results):
    first, *rest = results
    for other in rest:
        assert [a.tobytes() for a in other] == [a.tobytes() for a in first]


@pytest.mark.parametrize("row_block", [7, linalg.ROW_BLOCK])
@pytest.mark.parametrize("emit", [False, True], ids=["no-factors", "factors"])
@pytest.mark.parametrize("n", [2 * SIM_BLOCK + 5, 3 * SIM_BLOCK])
def test_simulation_same_for_any_thread_count(force_workers, monkeypatch, model,
                                              n, emit, row_block):
    monkeypatch.setattr(linalg, "ROW_BLOCK", row_block)

    def run():
        x, y, f = simulate_dataset(SimulationSpec(model, n, 5, emit))
        return [x.values, y.values] + ([f.values] if emit else [])

    assert_same_bytes(by_workers(force_workers, run))


@pytest.mark.parametrize("emit", [False, True], ids=["no-factors", "factors"])
@pytest.mark.parametrize("seed, n", [(0, 2 * SIM_BLOCK + 5), (9, SIM_BLOCK + 1)])
def test_simulation_draws_one_stream_per_block(model, seed, n, emit):
    # stream 0 is default_rng(seed), stream k the (k - 1)-th spawned child;
    # block k draws its factor normals, then x's, then y's unique variates
    x, y, f = simulate_dataset(SimulationSpec(model, n, seed, emit))
    c_sqrt = _sym_power(combined_factor_corr(model).values, 0.5)
    children = np.random.SeedSequence(seed).spawn(-(-n // SIM_BLOCK) - 1)
    streams = [np.random.default_rng(seed)] + [np.random.default_rng(c) for c in children]
    want_f, want_x, want_y = [], [], []
    for k, rng in enumerate(streams):
        rows = min(n, (k + 1) * SIM_BLOCK) - k * SIM_BLOCK
        factors = rng.standard_normal((rows, model.n_xi + model.n_eta)) @ c_sqrt
        want_f.append(factors)
        for want, block, common in ((want_x, model.exo, factors[:, : model.n_xi]),
                                    (want_y, model.endo, factors[:, model.n_xi:])):
            draw = rng.standard_normal((rows, len(block.indicator_labels)))
            want.append(common @ block.loadings.T + draw * np.sqrt(block.uniqueness()))
    assert np.array_equal(x.values, np.vstack(want_x))
    assert np.array_equal(y.values, np.vstack(want_y))
    if emit:
        assert np.array_equal(f.values, np.vstack(want_f))


@pytest.mark.parametrize("cpus, pieces, want", [
    (1, 5, 1), (2, 5, 2), (16, 5, 2), (16, 1, 1), (2, 0, 1)])
def test_threads_follow_the_cpus_up_to_the_cap(force_workers, cpus, pieces, want):
    force_workers(cpus)
    assert linalg._workers(pieces) == want


class WorkerError(Exception):
    pass


def test_worker_error_reaches_the_caller(force_workers):
    force_workers(2)
    done = []

    def fn(item):
        if item == 1:  # thread 1's item, not the caller's
            raise WorkerError(item)
        done.append(item)

    with pytest.raises(WorkerError):
        linalg._in_threads(fn, range(4))
    # the caller's items all ran; thread 1 stopped at its first item
    assert sorted(done) == [0, 2]

