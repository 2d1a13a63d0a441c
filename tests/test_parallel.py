"""Results do not depend on how many threads share the row blocks.

``linalg._cpus`` is forced to 1, 2 and 16, so a runner with one CPU also
runs the threaded path, with a switch interval short enough that the
threads interleave often, and a runner with two CPUs the capped count of
many.  The simulator's blocks of ``SIM_BLOCK`` rows must give the same
bytes for every count, at the default ``linalg.ROW_BLOCK`` and at 7 rows;
the simulator must draw the stream its definition names, written here
with numpy alone; ``_in_threads`` must run its function once for each
item, on threads numbered below the count it may start, 0 the caller's;
an error in a worker thread must reach the caller; and a thread that is
held up must leave the items it has not taken to the others.
At case counts where each kernel leaves the calling thread,
``centred_product``, ``moments`` and a container's kept column means
must equal the serial loop written here byte for byte, at both block
sizes and for every count; a container sums its columns for their means
once, and keeps only those k floats.
"""

import sys
import threading
import time

import numpy as np
import pytest

from cpscores import (
    DataMatrix,
    ScoreMatrix,
    cp_scores_from_params,
    cp_transform,
    orthogonal_scores,
    regression_scores,
    standardized_betas,
)
from cpscores import linalg
from cpscores.determinacy import determinacy
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


@pytest.mark.parametrize("cpus", WORKERS)
@pytest.mark.parametrize("per_thread", [1, 4])
@pytest.mark.parametrize("count", [0, 1, 5, 9])
def test_each_item_runs_once_on_a_numbered_thread(force_workers, cpus, per_thread,
                                                  count):
    force_workers(cpus)
    ran = []
    idents = {}
    lock = threading.Lock()

    def fn(j, k):
        with lock:
            ran.append((j, k))
            idents.setdefault(j, set()).add(threading.get_ident())
        time.sleep(0.001)  # long enough for a started thread to take items

    linalg._in_threads(fn, count, per_thread)
    assert sorted(k for _, k in ran) == list(range(count))
    threads = linalg._workers(count // per_thread)
    assert all(0 <= j < threads for j, _ in ran)
    # one thread per index, and index 0 is the caller's
    assert all(len(ids) == 1 for ids in idents.values())
    assert len(set().union(*idents.values())) == len(idents)
    if 0 in idents:
        assert idents[0] == {threading.get_ident()}


class WorkerError(Exception):
    pass


def test_worker_error_reaches_the_caller(force_workers):
    force_workers(2)
    done = []
    raised = threading.Event()
    caller = threading.get_ident()

    def fn(j, k):
        if threading.get_ident() != caller:
            assert j == 1
            raised.set()
            raise WorkerError(k)
        # the caller holds its first item until the other thread has
        # raised, so that thread takes an item
        assert j == 0
        assert raised.wait(timeout=60)
        done.append(k)

    with pytest.raises(WorkerError):
        linalg._in_threads(fn, 4)
    # the failing thread took one item and no more; the caller took the rest
    assert len(done) == 3


def test_a_slow_thread_takes_fewer_items(force_workers):
    force_workers(2)
    ran = {"caller": [], "other": []}
    held = threading.Event()
    caller = threading.get_ident()
    # one deadline for every wait, so a seam that numbers its threads
    # wrongly fails the test within 60 s instead of 60 s per item
    deadline = time.monotonic() + 60

    def fn(j, k):
        if threading.get_ident() == caller:
            assert j == 0
            assert held.wait(timeout=max(0.0, deadline - time.monotonic()))
            ran["caller"].append(k)
            return
        # the other thread holds its first item until the caller has run
        # every other one, as a thread on a stalled CPU would
        held.set()
        while len(ran["caller"]) < 5 and time.monotonic() < deadline:
            time.sleep(0.001)
        ran["other"].append((j, k))

    linalg._in_threads(fn, 6)
    assert (len(ran["caller"]), len(ran["other"])) == (5, 1)
    assert ran["other"][0][0] == 1


# ---------------------------------------------------------------------------
# the row-block kernels of the score chain

def serial_blocks(n):
    """Near-equal row slices of at most ``ROW_BLOCK`` rows, as the kernels
    took them on the calling thread alone."""
    count = max(1, -(-n // linalg.ROW_BLOCK))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def serial_centred(arrays):
    """``(rows, z)`` for each serial block: the arrays' rows side by side
    in one reused row-major buffer, less their joined column means,
    ``LANES`` rows at a time."""
    mean = np.concatenate([linalg.column_means(a) for a in arrays])
    blocks = serial_blocks(len(arrays[0]))
    buf = np.empty((max(b.stop - b.start for b in blocks), len(mean)))
    tiled = np.tile(mean, linalg.LANES)
    for rows in blocks:
        z = buf[: rows.stop - rows.start]
        lo = 0
        for a in arrays:
            z[:, lo:lo + a.shape[1]] = a[rows]
            lo += a.shape[1]
        m = len(z) - len(z) % linalg.LANES
        lanes = z[:m].reshape(-1, tiled.size)
        lanes -= tiled
        z[m:] -= mean
        yield rows, z


def serial_product(arrays, w):
    out = np.empty((len(arrays[0]), w.shape[0]))
    for rows, z in serial_centred(arrays):
        np.matmul(z, w.T, out=out[rows])
    return out


def serial_cov(arrays):
    cov = np.zeros((sum(a.shape[1] for a in arrays),) * 2)
    for _, z in serial_centred(arrays):
        cov += z.T @ z
    return cov / (len(arrays[0]) - 1)


def threaded_rows(row_block):
    """Cases at which both kernels take at least 2 threads' worth of
    blocks: 8 moments blocks, so 8 product blocks or more, plus a tail."""
    return 2 * linalg._BLOCKS_PER_THREAD * row_block + 5


def kernel_inputs(n):
    """A row-major, a column-major and a strided array, with means far
    from zero, frozen (the strided one's base before it was taken)."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 4)) + rng.uniform(-50.0, 50.0, 4)
    b = np.asfortranarray(rng.standard_normal((n, 3)) * 3.0 + 7.0)
    wide = rng.standard_normal((n, 5)) - 20.0
    for arr in (a, b, wide):
        arr.setflags(write=False)
    return [a, b, wide[:, 1:3]]


def containers(arrays):
    """A fresh DataMatrix of each array, which adopts it in its layout."""
    matrices = [DataMatrix(a, tuple("abcdefg"[:a.shape[1]])) for a in arrays]
    assert all(m.values is a for m, a in zip(matrices, arrays))
    return matrices


@pytest.mark.parametrize("row_block", [7, linalg.ROW_BLOCK])
def test_kernels_equal_the_serial_loop_for_any_thread_count(
        force_workers, monkeypatch, row_block):
    monkeypatch.setattr(linalg, "ROW_BLOCK", row_block)
    n = threaded_rows(row_block)
    assert len(linalg.row_blocks(n)) >= 2 * linalg._BLOCKS_PER_THREAD
    arrays = kernel_inputs(n)
    w = np.random.default_rng(1).standard_normal((6, 9))
    want_product = serial_product(arrays, w)
    want_cov = serial_cov(arrays)
    want_means = [linalg.column_means(a) for a in arrays]

    def run():
        # fresh containers for each kernel, so each sums the columns for
        # their means
        for_moments, for_product = containers(arrays), containers(arrays)
        cov = linalg.moments(for_moments)
        product = linalg.centred_product(for_product, w)
        kept = [linalg._kept_means(m) for m in for_moments + for_product]
        return [product, cov, *kept]

    for got in by_workers(force_workers, run):
        product, cov, *kept = got
        assert product.tobytes() == want_product.tobytes()
        assert cov.tobytes() == want_cov.tobytes()
        assert [m.tobytes() for m in kept] == [m.tobytes() for m in want_means * 2]


def test_kernels_take_threads_only_with_enough_blocks(monkeypatch):
    # a moments pass of 10^4 rows (2 blocks) and a product of 5 blocks stay
    # on the calling thread; at 8 blocks and more both kernels split
    monkeypatch.setattr(linalg, "_cpus", lambda: 16)
    shared = []
    indices = set()
    real = linalg._in_threads

    def in_threads(fn, count, per_thread=1):
        shared.append(linalg._workers(count // per_thread))
        real(lambda j, k: indices.add(j) or fn(j, k), count, per_thread)

    monkeypatch.setattr(linalg, "_in_threads", in_threads)
    matrices = containers(kernel_inputs(10_000))
    linalg.moments(matrices)
    linalg.centred_product(matrices, np.eye(9))
    assert shared == [1, 1]
    assert indices == {0}
    del shared[:]
    matrices = containers(kernel_inputs(threaded_rows(linalg.ROW_BLOCK)))
    linalg.moments(matrices)
    linalg.centred_product(matrices, np.eye(9))
    assert shared == [2, 2]
    assert indices <= {0, 1}


def test_each_container_sums_its_columns_for_means_once(monkeypatch, model):
    x, y, _ = simulate_dataset(SimulationSpec(model, 500, 2, False))
    summed = []
    real = linalg.column_means
    monkeypatch.setattr(linalg, "column_means",
                        lambda a: summed.append(a.shape) or real(a))
    joint = regression_scores(model.joint, x, y)
    cp = cp_transform(joint, combined_factor_corr(model))
    cp_scores_from_params(model, x)
    orthogonal_scores(model, x)
    xi, eta = cp.select(model.xi_labels), cp.select(model.eta_labels)
    determinacy(model.exo, xi, x)
    determinacy(model.endo, eta, y)
    standardized_betas(xi, eta)
    regression_scores(model.joint, x, y)
    # x, y, the joint scores, and the xi and eta blocks of the transform
    assert sorted(summed) == sorted([x.values.shape, y.values.shape,
                                     joint.values.shape, xi.values.shape,
                                     eta.values.shape])
    for m in (x, y, joint, xi, eta):
        assert list(m._derived) == ["_kept_means"]
        mean = m._derived["_kept_means"]
        assert mean.shape == (m.values.shape[1],)
        assert not mean.flags.writeable
        assert mean.tobytes() == real(m.values).tobytes()


def test_a_fresh_container_sums_its_own_columns():
    # replace_values and select make new matrices, which keep nothing of
    # the matrix they came from
    scores = ScoreMatrix(np.arange(12.0).reshape(6, 2) ** 2, ("a", "b"))
    linalg._kept_means(scores)
    assert scores.replace_values(scores.values + 1.0)._derived == {}
    assert scores.select(("b",))._derived == {}
