"""The four workloads of the cpscores benchmark.

Each workload drives different layers, so that every optimisation on the
roadmap has one workload that exercises its mechanism and one that bypasses
it:

* ``cli_simulate`` writes CSVs (write-dominated ``io``);
* ``cli_analyze`` reads CSVs through five subcommands (read-dominated ``io``);
* ``inmem_large`` runs the compute chain on 250 000 cases with no files;
* ``replications`` fits many small random models, where per-fit fixed costs
  (validation, weight construction, eigendecompositions) dominate.

A workload has ``setup()`` (repeated by the runner to time it), ``run(i)``
for an untraced iteration, ``run_traced(i, tracer)`` for a traced iteration
that makes the same public calls under spans, and ``check(i, out)``
returning the list of failed output checks.  Checks run outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import os
from importlib import resources

import numpy as np

from cpscores import cli, determinacy, io, regression, scores, simulate
from cpscores import model as model_mod

# Identities the outputs must satisfy (the package's own oracles).
CORR_TOL = 1e-10  # sample correlation of cp_transform output vs C
BETA_TOL = 1e-8  # betas from correlation-preserving scores vs gamma

SIZES = {
    "full": {
        "cli_n": 2_000,
        "inmem_n": 250_000,
        "rep_n": 1_000,
        "rep_draws": 320,
    },
    # tiny sizes for the benchmark's own smoke test
    "smoke": {
        "cli_n": 200,
        "inmem_n": 20_000,
        "rep_n": 200,
        "rep_draws": 8,
    },
}

# Shapes of the replications stream: every combination appears equally
# often in a full stream, so the shape mix does not depend on the seed.
REP_SHAPES = list(itertools.product(range(2, 7), range(1, 5), range(3, 7)))


def example_model_path() -> str:
    return str(resources.files("cpscores").joinpath("data/example.model"))


def direct(name, fn, *args, peak=False, counts=None, **kwargs):
    """Untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)


def _result_bytes(args, result):
    return {"result_bytes": result.values.nbytes}


def _read_counts(args, result):
    _labels, values = result
    return {
        "bytes_read": os.path.getsize(args[0]),
        "cells_parsed": values.size,
        "result_bytes": values.nbytes,
    }


def _write_counts(args, result):
    return {"bytes_written": os.path.getsize(args[0])}


# Calls routed through spans during a traced iteration: (module, attribute,
# record a tracemalloc peak, computed counts).  The ``cli`` entries are the
# names the subcommands call, so a traced ``cli.main`` makes exactly the
# calls an untraced one makes.  The span is named after the function's own
# module, e.g. ``scores.cp_transform``.
TRACED_CALLS = (
    (io, "parse_model_file", False, None),
    (io, "read_data_csv", False, None),
    (io, "read_scores_csv", False, None),
    (io, "read_labeled_csv", True, _read_counts),
    (io, "write_matrix_csv", False, _write_counts),
    (io, "write_scores_csv", False, None),
    (io, "model_hash", False, None),
    (scores, "joint_regression_weights", False, None),
    (cli, "simulate_dataset", False, None),
    (cli, "joint_regression_scores", True, _result_bytes),
    (cli, "cp_scores_from_params", False, None),
    (cli, "combined_factor_corr", False, None),
    (cli, "cp_transform", True, _result_bytes),
    (cli, "validate_model", False, None),
    (cli, "determinacy_exo", False, None),
    (cli, "determinacy_endo", False, None),
    (cli, "run_example", False, None),
)


def instrument(tracer) -> contextlib.ExitStack:
    """Route the calls in ``TRACED_CALLS`` through spans until the stack
    closes; a name the package no longer has is listed in
    ``tracer.missing``."""
    stack = contextlib.ExitStack()
    for module, attr, peak, counts in TRACED_CALLS:
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.add(f"{module.__name__}.{attr}")
            continue
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        stack.enter_context(tracer.patched(module, attr, name, peak, counts))
    return stack


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(stdio.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# output checks

def check_corr(values, target, what) -> list[str]:
    r = np.corrcoef(values, rowvar=False)
    dev = float(np.max(np.abs(r - target)))
    if not dev <= CORR_TOL:
        return [f"{what}: max |sample corr - C| = {dev:.3e} > {CORR_TOL}"]
    return []


def check_betas(betas, model, what) -> list[str]:
    dev = float(np.max(np.abs(np.asarray(betas) - model.gamma.T)))
    if not dev <= BETA_TOL:
        return [f"{what}: max |beta - gamma| = {dev:.3e} > {BETA_TOL}"]
    return []


def betas_from_values(values, n_xi):
    """Standardized betas of the endogenous on the exogenous columns,
    computed with numpy alone as an independent oracle."""
    r = np.corrcoef(values, rowvar=False)
    return np.linalg.solve(r[:n_xi, :n_xi], r[:n_xi, n_xi:])


def check_csv(path, labels, values, what) -> list[str]:
    """The file parsed by numpy must equal ``values`` bit for bit."""
    with open(path, encoding="utf-8") as fh:
        header = tuple(fh.readline().rstrip("\r\n").split(","))
    got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    fails = []
    if header != tuple(labels):
        fails.append(f"{what}: header {header} != {tuple(labels)}")
    if got.shape != values.shape:
        fails.append(f"{what}: shape {got.shape} != {values.shape}")
    elif not np.array_equal(got, values):
        fails.append(
            f"{what}: {int(np.sum(got != values))} cells differ after the round trip")
    return fails


def check_codes(codes, what) -> list[str]:
    return [] if all(c == 0 for c in codes) else [f"{what}: exit codes {codes}"]


# ---------------------------------------------------------------------------
# the in-memory chain shared by inmem_large and replications

def score_chain(call, model, x, y):
    """Scores, correlation-preserving transform, parameter-route scores,
    determinacy and betas, as the public functions are meant to be used."""
    joint = call("scores.joint_regression_scores", scores.joint_regression_scores,
                 model, x, y, peak=True, counts=_result_bytes)
    c = call("model.combined_factor_corr", model_mod.combined_factor_corr, model)
    cp = call("scores.cp_transform", scores.cp_transform, joint, c,
              peak=True, counts=_result_bytes)
    call("scores.cp_scores_from_params", scores.cp_scores_from_params, model, x)
    call("scores.orthogonal_scores", scores.orthogonal_scores, model, x)
    cp_xi = cp.select(model.xi_labels)
    cp_eta = cp.select(model.eta_labels)
    call("determinacy.determinacy_exo", determinacy.determinacy_exo, cp_xi, x, model)
    call("determinacy.determinacy_endo", determinacy.determinacy_endo,
         cp_eta, y, model)
    betas = call("regression.standardized_betas", regression.standardized_betas,
                 cp_xi, cp_eta)
    return {"cp": cp.values, "c": c.values, "betas": betas}


class Workload:
    name = ""
    why = ""
    tail_pct = 90  # percentile reported as wall_tail_s; >= 10 samples beyond

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.sizes = SIZES[size]
        self.workdir = workdir
        self.model_path = example_model_path()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def iteration_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def cases_per_iteration(self) -> int:
        raise NotImplementedError

    def repeat_key(self, i: int):
        """Iterations with the same key repeat the same work (the data
        values differ by seed, the sizes do not)."""
        return 0


class CliWorkload(Workload):
    """A sequence of ``cli.main`` calls; traced, each runs under a
    ``cli.<subcommand>`` span with the calls in ``TRACED_CALLS`` inside."""

    def cases_per_iteration(self):
        return self.sizes["cli_n"]

    def run(self, i):
        return [_quiet_main(argv) for argv in self.argvs(i)]

    def run_traced(self, i, tr):
        codes = []
        for argv in self.argvs(i):
            with tr.span(f"cli.{argv[0]}"):
                codes.append(_quiet_main(argv))
        return codes


class CliSimulate(CliWorkload):
    name = "cli_simulate"
    why = (
        "write-dominated io: the simulate subcommand writes x and y CSVs (25 "
        "columns, 17 digits); a write-path change shows here and not on "
        "inmem_large"
    )
    tail_pct = 90

    def setup(self):
        self.model = io.parse_model_file(self.model_path)

    def argvs(self, i):
        return [[
            "simulate", self.model_path, "--n", str(self.sizes["cli_n"]),
            "--seed", str(self.iteration_seed(i)),
            "--out-x", self.path("x.csv"), "--out-y", self.path("y.csv"),
        ]]

    def check(self, i, out):
        spec = simulate.SimulationSpec(
            self.model, self.sizes["cli_n"], self.iteration_seed(i),
            emit_true_factors=False)
        x, y, _ = simulate.simulate_dataset(spec)
        return (check_codes(out, "simulate")
                + check_csv(self.path("x.csv"), x.labels, x.values, "x.csv")
                + check_csv(self.path("y.csv"), y.labels, y.values, "y.csv"))


class CliAnalyze(CliWorkload):
    name = "cli_analyze"
    why = (
        "read-dominated io: scores, transform, determinacy, validate and verify "
        "read 15-, 10- and 5-column CSVs; shows a write gain that costs reads"
    )
    tail_pct = 80

    def setup(self):
        self.model = io.parse_model_file(self.model_path)
        spec = simulate.SimulationSpec(
            self.model, self.sizes["cli_n"], self.seed, emit_true_factors=False)
        self.x, self.y, _ = simulate.simulate_dataset(spec)
        io.write_matrix_csv(self.path("x.csv"), self.x.labels, self.x.values)
        io.write_matrix_csv(self.path("y.csv"), self.y.labels, self.y.values)

    def argvs(self, i):
        m, p = self.model_path, self.path
        return [
            ["scores", m, "--x", p("x.csv"), "--y", p("y.csv"),
             "--method", "regression", "--out", p("reg.csv")],
            ["scores", m, "--x", p("x.csv"), "--method", "cp-params",
             "--out", p("cpp.csv")],
            ["transform", m, "--scores", p("reg.csv"), "--mode", "joint",
             "--out", p("cp.csv")],
            ["determinacy", m, "--scores", p("cp.csv"), "--x", p("x.csv"),
             "--y", p("y.csv")],
            ["validate", m],
            ["verify"],
        ]

    def check(self, i, out):
        fails = check_codes(out, "scores/transform/determinacy/validate/verify")
        expected = scores.joint_regression_scores(self.model, self.x, self.y)
        fails += check_csv(self.path("reg.csv"), expected.labels, expected.values,
                           "regression scores")
        cp = np.loadtxt(self.path("cp.csv"), delimiter=",", skiprows=1, ndmin=2)
        c = model_mod.combined_factor_corr(self.model).values
        fails += check_corr(cp, c, "transform output")
        fails += check_betas(betas_from_values(cp, self.model.n_xi), self.model,
                             "betas from transform output")
        return fails


class InMemoryWorkload(Workload):
    """Public functions called directly; traced, each under its own span."""

    def run(self, i):
        return self.iterate(i, direct)

    def run_traced(self, i, tr):
        return self.iterate(i, tr.call)


class InmemLarge(InMemoryWorkload):
    name = "inmem_large"
    why = (
        "compute chain on 250k cases in memory with no files: per-row "
        "application, copies and containers dominate; weight construction is "
        "negligible"
    )
    tail_pct = 75

    def setup(self):
        self.model = simulate.example_model()

    def cases_per_iteration(self):
        return self.sizes["inmem_n"]

    def iterate(self, i, call):
        spec = simulate.SimulationSpec(
            self.model, self.sizes["inmem_n"], self.iteration_seed(i),
            emit_true_factors=False)
        x, y, _ = call("simulate.simulate_dataset", simulate.simulate_dataset, spec)
        return score_chain(call, self.model, x, y)

    def check(self, i, out):
        return (check_corr(out["cp"], out["c"], "cp_transform")
                + check_betas(out["betas"], self.model, "standardized_betas"))


class Replications(InMemoryWorkload):
    name = "replications"
    why = (
        "320 small random-model fits at 1000 cases: per-fit fixed costs "
        "(validation, weights, eigendecompositions) dominate; no io"
    )
    # p99 moved 31% between seeds on a shared 2-core VM; p90 still has
    # hundreds of samples beyond it
    tail_pct = 90

    def setup(self):
        rng = np.random.default_rng(self.seed)
        shapes = REP_SHAPES * -(-self.sizes["rep_draws"] // len(REP_SHAPES))
        order = rng.permutation(len(shapes))[: self.sizes["rep_draws"]]
        self.models = [
            simulate.random_model(rng, *shapes[k]) for k in order
        ]

    def cases_per_iteration(self):
        return self.sizes["rep_n"]

    def repeat_key(self, i):
        return i % len(self.models)

    def iterate(self, i, call):
        model = self.models[i % len(self.models)]
        report = call("model.validate_model", model_mod.validate_model, model)
        spec = simulate.SimulationSpec(
            model, self.sizes["rep_n"], self.iteration_seed(i),
            emit_true_factors=False)
        x, y, _ = call("simulate.simulate_dataset", simulate.simulate_dataset, spec)
        out = score_chain(call, model, x, y)
        closed = [
            call("determinacy.closed_form_regression_determinacy",
                 determinacy.closed_form_regression_determinacy, model, block)
            for block in ("exogenous", "endogenous")
        ]
        out.update(model=model, valid=report.ok, closed=closed)
        return out

    def check(self, i, out):
        fails = [] if out["valid"] else ["validate_model rejected a drawn model"]
        fails += check_corr(out["cp"], out["c"], "cp_transform")
        fails += check_betas(out["betas"], out["model"], "standardized_betas")
        for rep in out["closed"]:
            co = rep.coefficients
            if not (np.all(co > 0.0) and np.all(co <= 1.0)):
                fails.append(f"closed-form determinacy outside (0, 1]: {co}")
        return fails


WORKLOADS = {w.name: w for w in (CliSimulate, CliAnalyze, InmemLarge, Replications)}
