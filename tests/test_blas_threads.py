"""Results do not depend on the BLAS thread count or on the CPUs.

The package sets no BLAS thread count, so OpenBLAS may split a product
over its threads once it is large enough; and it shares the simulator's
row blocks, and the blocks of the score chain's kernels, over the CPUs
the process may use.  The in-memory chain runs in a fresh interpreter
with 1 and with 2 BLAS threads, and in one pinned to a single CPU, on the
example at n = 20 000 (3 row blocks, 2 simulator blocks) and
n = 100 000 (13 row blocks and 49 product blocks, so both kernels run
threaded), and on one 6-4-6 random model at n = 20 000 and n = 1000, and
every output must hash the same.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpscores

CHAIN = r"""
import hashlib, json, os, sys
if len(sys.argv) > 1:  # before numpy starts its threads
    os.sched_setaffinity(0, {int(sys.argv[1])})
import numpy as np
from cpscores import (
    SimulationSpec, cp_scores_from_params, cp_transform, example_model,
    orthogonal_scores, random_model, regression_scores, simulate_dataset,
    standardized_betas,
)
from cpscores.determinacy import determinacy

rand = random_model(np.random.default_rng(3), 6, 4, 6)
out = {}
for name, model, n in (("example", example_model(), 20_000),
                       ("example", example_model(), 100_000),
                       ("random", rand, 20_000), ("random", rand, 1_000)):
    x, y, _ = simulate_dataset(SimulationSpec(model, n, 1, False))
    joint = regression_scores(model.joint, x, y)
    cp = cp_transform(joint, model.joint.corr)
    xi, eta = cp.select(model.xi_labels), cp.select(model.eta_labels)
    for key, a in (
        ("x", x.values), ("y", y.values), ("joint", joint.values),
        ("cp_transform", cp.values),
        ("cp-params", cp_scores_from_params(model, x).values),
        ("orthogonal", orthogonal_scores(model, x).values),
        ("determinacy-exo", determinacy(model.exo, xi, x).coefficients),
        ("determinacy-endo", determinacy(model.endo, eta, y).coefficients),
        ("betas", standardized_betas(xi, eta)),
    ):
        data = np.ascontiguousarray(a).tobytes()
        out[f"{name} n={n} {key}"] = hashlib.sha256(data).hexdigest()
json.dump(out, sys.stdout)
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def chain_hashes(threads, cpu=None):
    """The chain's hashes with ``threads`` BLAS threads, on one ``cpu``
    or on every CPU this process may use."""
    src = str(Path(cpscores.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.update({var: str(threads) for var in THREAD_VARS})
    args = [] if cpu is None else [str(cpu)]
    done = subprocess.run([sys.executable, "-c", CHAIN, *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_outputs_identical_at_one_and_two_blas_threads():
    one, two = chain_hashes(1), chain_hashes(2)
    assert len(one) == 36
    assert [key for key in one if one[key] != two.get(key)] == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity call on this platform")
def test_outputs_identical_on_one_cpu():
    pinned = chain_hashes(2, cpu=min(os.sched_getaffinity(0)))
    every = chain_hashes(2)
    assert len(pinned) == 36
    assert [key for key in every if every[key] != pinned.get(key)] == []
