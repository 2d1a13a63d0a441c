"""Results do not depend on the BLAS thread count.

The package sets no BLAS thread count, so OpenBLAS may split a product
over its threads once it is large enough.  The in-memory chain runs in a
fresh interpreter with 1 and with 2 BLAS threads, on the example at
n = 20 000 (3 row blocks) and on one 6-4-6 random model at n = 20 000
and n = 1000, and every output must hash the same.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cpscores

CHAIN = r"""
import hashlib, json, sys
import numpy as np
from cpscores import (
    SimulationSpec, cp_scores_from_params, cp_transform, determinacy_endo,
    determinacy_exo, example_model, orthogonal_scores, random_model,
    regression_scores, simulate_dataset, standardized_betas,
)

rand = random_model(np.random.default_rng(3), 6, 4, 6)
out = {}
for name, model, n in (("example", example_model(), 20_000),
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
        ("determinacy_exo", determinacy_exo(xi, x, model).coefficients),
        ("determinacy_endo", determinacy_endo(eta, y, model).coefficients),
        ("betas", standardized_betas(xi, eta)),
    ):
        data = np.ascontiguousarray(a).tobytes()
        out[f"{name} n={n} {key}"] = hashlib.sha256(data).hexdigest()
json.dump(out, sys.stdout)
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def chain_hashes(threads):
    src = str(Path(cpscores.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.update({var: str(threads) for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", CHAIN], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_outputs_identical_at_one_and_two_blas_threads():
    one, two = chain_hashes(1), chain_hashes(2)
    assert len(one) == 27
    assert [key for key in one if one[key] != two.get(key)] == []
