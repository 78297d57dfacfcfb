"""Print a digest of every trace over fixed run grids, for before/after comparison.

Usage::

    python tools/trace_digests.py <checkout> > digests.json

``<checkout>`` is a source tree of this repository; its ``src/`` is
imported and its ``benchmarks/catalog.py`` supplies the canonical
configs (read only).  The output is a JSON object mapping a run key to
``{"sha256": ..., "oracle_calls": ...}``, where the hash covers the
run's JSON trace file written with ``record_x`` on.  A run that raises
maps to ``{"error": "<ExceptionType>: <message>"}``.  One key per line
and sorted keys make ``diff`` of two outputs list exactly the runs
whose traces differ.

Grids:

* ``catalog/...``: the 17 canonical configs for seeds 1-4, each with
  ``record_every`` in {1, 7, N+1} and ``max_oracle_calls`` in
  {none, 3, 40, 333}, run through ``run_experiment`` (816 runs);
* ``sgd/...`` and ``zo/...``: ``run_sgd`` over the five step rules x
  averaging {none, uniform, tail} x batch {1, 3} x clip {off, 0.5} x
  {FullSpace, Box} under gaussian noise, and again under ``student_t3``
  noise (keys ``sgd/student_t3/...``), and ``run_zo_sgd`` over the five
  step rules x both tau schedules x beta {2, 4} x batch {1, 3} x
  {FullSpace, Box}; each with ``record_every`` in {1, 7} and
  ``max_oracle_calls`` in {none, 40} (1280 runs).  A long set
  (``sgd/long/...``) runs ``run_sgd`` for N = 2500 iterations over both
  noise distributions x d {1, 2} x batch {1, 3} x clip {off, 0.5} x
  ``max_oracle_calls`` in {none, 1300}, a budget that ends the run part
  way through a block of noise rows (32 runs).  The hash of every
  ``sgd/`` and ``zo/`` key also covers the next draws of the run's ``Rng``;
* ``zo/chunk/...``: ``run_zo_sgd`` for 307 iterations (a prime, so no
  chunk of iterations whose samples the run draws ahead divides it) on
  ``quad_diag`` under ``zo_stoch`` noise, at d {1, 2, 10} x batch
  {1, 3, 4, 5, 6, 7, 9} (both sides of ``WEIGH_BATCH``) and at d 10 x
  batch 64 (768 raw values per iteration: a chunk of one iteration), x
  both tau schedules x ``record_every`` {1, 7}, with no budget and with
  budgets that cut at the first iteration of the second chunk
  (``boundary``), half a chunk later (``mid-chunk``), after
  ``batch`` probes of that first iteration (``mid-iter``), at its last
  probe (``last-probe``) and at its row's f evaluation (``row``); the
  exact ``quad_diag`` values at d {2, 10} x batch {1, 4, 9}, with no
  budget and a ``boundary`` budget; ``rosenbrock`` under ``zo_stoch``
  noise at batch {1, 4, 9}, with no budget and a ``mid-iter`` one; the
  ``zo_stoch`` quadratic at d {2, 10} x batch {1, 4, 9} with the
  direction of the second chunk's first sample, or of the last sample of
  its second iteration, scaled below 1e-12 by a stubbed generator
  (``tiny/...``); and a ``PowerDecayTau`` whose tau underflows to 0 at
  iteration 6, at batch {1, 9} (its error text); and (``wrong-dim/...``)
  a 3-d ``x0`` over ``FullSpace(3)`` on a 2-d ``zo_stoch`` quadratic and
  on a copy whose entry carries no declaration, each hashing its error
  text, its ``value`` calls and the next draws of its ``Rng``.  While the
  grid runs, ``zeroorder.ZO_CHUNK_VALUES`` is set to ``BLOCK_VALUES``, so
  its runs, budgets and keys are those of chunks of ``BLOCK_VALUES`` raw
  values: a chunk holds ``zeroorder.chunk_iterations(batch, width)``
  iterations, ``width`` being d + 2 raw values per sample under noise and
  d without (562 runs);
* ``stop/...``: eight configs tuned to reach their method's own stop
  test (``cg_quadratic``, ``frank_wolfe`` with either step rule,
  ``gd_rel_adaptive``, ``polyak_subgrad``, ``heavy_ball`` and
  ``taylor_drori`` with a positive ``tol``, and ``gd_abs``'s early
  stop), for seeds 1-2 with ``record_every`` in {1, 7, N+1} and
  ``max_oracle_calls`` in {none, 3, 40, 333}, run through
  ``run_experiment`` (192 runs);
* ``est/...``: direct ``kernel_grad_estimate`` outputs on a linear suite
  at d=3, ``quad_diag`` at d=50 under ``zo_stoch``, ``zo_bounded``
  ``random`` and ``zo_bounded`` ``deterministic_worst`` noise, a 1-d
  quadratic, a quadratic at its minimizer and a linear suite whose
  hand-built zeroth-order entry draws a Student-t from the run's ``Rng``,
  for beta {2, 4} x batch {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 1000} x
  seeds 1-2; each case cut by a budget of 7 calls in the middle of a probe
  pair (its error text and call count); each case at beta 2 and seed 1
  with a budget of exactly ``2 * batch`` calls and of one call fewer, for
  batch {1, 2, 3, 4, 5, 6, 7, 8, 16, 64} (``room...`` keys); ``run_zo_sgd``
  at batch 9 on the ``zo_stoch`` quadratic for 12 iterations, with
  ``max_oracle_calls`` in {none, 36, 53, 54, 55} (``est/zo_sgd/...``);
  the gradient streams of ``absolute_grad`` and ``relative_grad`` in
  ``random_direction`` mode at d {1, 3, 50} for seeds 1-2; and
  (``est/tiny/...``) the linear d=3 suite and the ``zo_stoch`` quadratic
  at beta 2, batch {7, 1000} and seeds 1-2 with the 1st or the 4th
  direction's gaussian draw scaled to a norm below 1e-12 by a stubbed
  generator, so the estimator redraws it (523 keys).
  The hash also covers the next draws of the run's ``Rng``, so a change
  in the number of draws consumed shows;
* ``csv/...``: the 17 canonical configs for seeds 1-4 with
  ``record_every`` in {1, 7, N+1}, run through ``run_experiment`` with a
  CSV trace, whose bytes the hash covers (204 runs); and for each of
  those files a ``rates/...`` key holding the ``repr`` of ``fit_rate`` on
  the trace read back from it, for both models with window 0.5, or the
  fit's error text (204 keys);
* ``json/...``: the 17 canonical configs for seeds 1-2 with
  ``record_every`` in {1, 7} and ``record_x`` on, run through
  ``run_experiment`` with a JSON trace that is read back and written
  again; the hash covers the bytes written again and the ``repr`` of the
  types each column read back holds, so a reader that returns ``1.0``
  for ``1`` shows (68 keys);
* ``cli/...``: the 17 canonical configs for seeds 1-2 through the
  command line, in one process: ``run --trace`` (``record_every`` 1),
  ``compare`` (recording off) and, for the configs that name a rate,
  ``rates`` for both models.  The hash covers the exit code, stdout
  with the ``wall_time`` and ``time_s`` fields masked, and the trace
  bytes ``run`` writes; a few error paths (an unknown subcommand, a
  missing config file, a bad JSON config, ``rates`` on a too-short
  trace, an unknown problem name, ``rates`` with a ``--window`` of 0,
  nan or 1.5, ``rates`` on a JSON file that is not a trace: a config, a
  list and a row without its fields, and ``rates`` on a CSV trace with
  ``abc`` in a row's ``f_value``) hash their exit code and stderr
  instead; two runs whose
  iterates overflow to NaN (``cli/nan/...``: ``sgd`` with ``gamma`` 1.0
  on ``quad_diag [10, 1]`` under ``additive_stoch_grad`` noise, and
  ``const_subgrad`` with ``h`` 1e308) hash what ``run --trace`` does;
  and ``list-methods`` hashes its exit code and stdout (121 keys);
* ``parse/...``: ``parse_config`` alone.  For each noise kind: a valid
  config, the config without each of its fields, an unknown key, a bad
  mode, ints where floats are meant, and ``v`` without ``mode``.  For
  each catalog problem: its defaults, an unknown parameter, a non-finite
  parameter and a bad value, and ``norm2`` with both ``a`` and ``d``
  (``parse/problem/norm2/d-beside-a``).  And (``parse/number/...``) numbers that are
  not JSON numbers or not whole where a whole number is meant, at every
  layer, quoted numbers and booleans in ``x0``, in catalog parameters
  and in ``absolute_grad``'s ``v`` among them, a number and a
  boolean as ``norm2``'s ``a``, and ``zo_sgd`` taus whose estimator
  scale ``dim/(2 tau)`` is finite or not (a constant tau of 1e-308 and
  1e-320, and a decaying tau with exponent 40 and 400 over 200
  iterations).  ``parse/key/...`` gives
  ``const_subgrad`` a ``tol`` and ``gd_rel_adaptive`` an ``L``.
  ``parse/type/...`` gives ``absolute_grad`` a ``v`` that is too short,
  too long or 2-d for the 2-d problem, or one in ``random_direction``
  mode, ``output.trace_path`` a number, a list and a boolean, and
  ``x0`` a length the problem does not have.  The
  hash covers the ``repr`` of the parsed spec; a config that fails maps
  to its error text (117 keys).  ``parse/variant/...`` parses
  each method variant's keys and runs the result for 3 iterations through
  ``run_experiment``, hashing the spec's ``repr`` and the trace: for
  ``sgd`` and ``zo_sgd``, each step-rule kind valid, without each of its
  keys, with each key null and with each key quoted; ``M`` and ``mu``
  filled from a problem that has them or refused on one that lacks them,
  an unknown, null or list ``step_rule`` and bad values; Frank-Wolfe's
  ``classic`` and ``short`` with and without ``L``; and each momentum
  variant with L and mu from the problem, mu null, missing L, missing mu,
  mu = 0, mu = L and mu > L; and ``restarted_switching`` on ``slp``
  without a ``stage_cap`` and with one of 2 and of 100; and keys of an
  alternative the config did not pick: ``sgd`` ``uniform`` averaging with
  a ``tail_fraction``, ``zo_sgd`` with ``tau0`` and ``tau``, with ``tau``
  and ``tau_exponent`` and with another rule kind's key, and
  ``const_subgrad``'s ``h`` with ``R`` and with ``M``.  A failure at
  parse or run time maps to its error text (121 keys);
* ``oracle/...``: every catalog callable called directly: ``value``,
  ``subgrad``, ``grad``, the constraint's ``value`` and ``subgrad`` and
  ``dist_to_opt``, for each problem at its defaults and a few parameter
  sets (a nonzero, a ``+0.0`` and a ``-0.0`` quad_diag shift among them).
  The inputs are random vectors at scales from 1e-300 to 1e150, the
  minimizers, and vectors holding ``+-0.0``, subnormals, entries near
  1e200 whose squares overflow, ``+-inf``, ``+-nan`` and a signalling
  NaN, alone and as every pair in the first and last entries.  The hash
  covers each output's type, dtype, shape and bytes, or the type of the
  error it raised (67 keys, one per case and callable);
* ``sets/...``: ``project`` and ``lmo`` of ``FullSpace``, ``Box``,
  ``Ball`` and ``Simplex`` cases (boxes with ``+-0.0``, infinite,
  subnormal and equal bounds among them) called directly on the
  ``oracle/`` grid's inputs for their dimension, plus an integer list, a
  vector of the wrong length and a 2-d array.  The hash covers each
  output's type, dtype, shape and bytes and whether it shares memory with
  the input or with an array the set holds, or the error's type and text
  (18 keys, one per case and method);
* ``subgrad/...``: ``run_switching``, ``run_restarted_switching``,
  ``run_polyak_subgrad`` (which ignores the constraint, so on the box
  every step lands past the face) and averaged
  ``run_const_subgrad`` on ``slp``, called directly over ``FullSpace``
  and over a box whose face ``x_1 = 0.5`` cuts the minimizer off, from a
  start outside the constraint, with ``record_every`` in {1, 7} and
  ``max_oracle_calls`` in {none, 40} (32 runs);
* ``switch/...``: ``run_switching`` and ``run_restarted_switching``
  called directly over ``FullSpace``, one case for each way a run ends:
  the stop sum (``slp-stop``), a stage cap with and without a
  productive step (``slp-cap``, ``slp-cap-unproductive``),
  ``total_iters`` cutting a stage part-way (``slp-total5``) and at the
  iteration where stage 2 starts (``slp-total-at-boundary``),
  ``eps >= theta0`` (``slp-eps-above-theta0``), a zero productive
  subgradient at iteration 2 or 3, after productive or nonproductive
  steps (``hinge-...``: f = max(x_1, 0) under x_2 <= 1, where every
  restart stage after the first starts on the zero), and no productive
  step (``never-productive``, a constraint no point satisfies: its
  error text, or a budget cut without a productive step).  Each with
  ``record_every`` in {1, 2, 7}, so a zero subgradient lands on a due
  and on a non-due iteration, and ``max_oracle_calls`` in {none, 10,
  11, 40}: 10 and 40 cut inside a step, 11 cuts ``never-productive`` at
  ``record_every`` 1 inside a nonproductive row's f evaluation (192
  runs);
* ``set/...``: runs over sets whose projection moves points, called
  directly.  ``run_switching`` and ``run_restarted_switching`` on
  ``slp`` from (0.3, 0.4) over ``Ball([0.1, 0.05], 0.9)`` and over the
  2-d ``Simplex``; the ``switch/`` grid's ``hinge-zero-at-2`` suite from
  (1.5, 0) over ``Ball([1.0, 0.2], 1.4)``, which puts the zero
  subgradient on its boundary, so a restart stage hands on a projected
  point; and ``run_polyak_subgrad`` and averaged ``run_const_subgrad`` on
  ``slp`` and uniformly averaged ``run_sgd`` on ``quad_diag [2, 1]``
  under gaussian noise from (1.5, -1), over the first ball.  Each with
  ``record_every`` in {1, 7} and ``max_oracle_calls`` in {none, 40}
  (36 runs);
* ``diverge/...``: runs that leave, called directly.  ``gd``, ``gd_abs``
  (``absolute_grad`` noise, delta 0.1), ``gd_rel`` (``relative_grad``
  ``shrink`` noise, alpha 0.25) and the five momentum variants with
  L = 1 (and mu = 0.5) on ``quad_diag [10, 1]``, whose true L is 10, and
  on the unbounded-below cubic ``f = -sum(x^3)/3`` from (1, 0.5);
  ``gd_rel_adaptive`` (the same noise, L0 = 1) on the cubic and on the
  unbounded-below linear ``f = -sum(x)`` from 0.  Each with the distance
  monitor's radius 1e6 (``r1e6``: the runs leave through the radius) and
  inf (``rinf``: the iterates grow until the gradient's norm is not
  finite, except the linear suite's, whose gradient stays finite),
  ``record_every`` in {1, 7} and ``max_oracle_calls`` in {none, 40}
  (144 runs); and ``diverge/cg_quadratic/nan-gradient``,
  ``run_cg_quadratic`` for 10 iterations on a diagonal quadratic whose
  third gradient call returns ``[nan, 0, 0]``;
* ``driver/edge/...``: the stop decisions at their thresholds, called
  directly.  ``gd``, ``heavy_ball``, ``nesterov_cvx`` and
  ``gd_rel_adaptive`` (``relative_grad`` ``random_direction`` noise,
  alpha 0.25, L0 = 1) for 60 iterations on ``quad_diag [10, 1]`` from
  (1, 1), from (1e-149, 3e-150) and from (1e149, 3e148), whose gradients
  and distances cross 1e-150 and 1e150.  A first run (``first``, tol 0,
  radius inf) gives, at rows 3 and 40, the recorded ``grad_norm`` and the
  iterate's ``norm(x - x0)``; the runs then take that norm as ``tol``
  and its neighbouring doubles below and above (``tol-at``,
  ``tol-below``, ``tol-above``), and that distance and the double below
  it as ``divergence_radius`` (``radius-at``, ``radius-below``).  Both
  thresholds are read in the checkout run, so a checkout that decides a
  stop otherwise shows as a differing key; the hash also covers the next
  draws of ``gd_rel_adaptive``'s ``Rng``.  ``gd`` and ``gd_rel_adaptive``
  run again (``-d40``) on a 40-d ``quad_diag`` (eigenvalues 10 down to 1),
  above the float screens' cutoff, from the three starts' entries
  repeated (198 runs);
* ``rec/...``: ``record_every`` 1 runs with ``record_x`` on and off, whose
  row counts (511, 512, 513 and 1025) sit around a block of 512 rows.
  ``gd`` (L = 8, tol 0) on ``quad_diag`` at d 1 and 2 (whose rows take
  ``dist_to_opt`` from ``xstar``), from the default start and, at d 2,
  from (-0.0, 1); on ``nesterov_skokov_toy`` (from ``minimizers``) from
  (1, 0.5) and from (1, 0), where both minimizers are equally far; on
  ``degenerate3`` (from ``dist_fn``) from (1, -0.5, 2); and
  ``const_subgrad`` on ``slp`` (from ``dist_fn``) and on ``norm2`` with
  ``a = (0.5, -1, 2)``, through ``run_experiment``; at 1025 rows also
  with budgets that cut at a row's f, at a step's call and at a block's
  end (all of them but ``quad_diag`` d 1 and the two other starts).
  ``rec/scripted/...`` calls
  ``run_steps`` with a step whose iterates, values and gradients cycle
  through +-0.0, a subnormal, +-1e200, +-inf and NaN, on those suites and
  on ``nesterov_skokov_toy`` with a minimizer at (inf, 1) listed first
  and second.  ``rec/diverge/blowup`` is ``gd`` on a suite whose row 1
  sits at (-inf, inf), where f is NaN, before a NaN iterate ends the run
  (180 runs).
* ``x0/<problem>/seed{1,2}``: ``default_x0`` of each catalog problem at
  its defaults; the hash covers the dtype, shape and bytes of the start
  (22 keys);
* ``matrix/<method>/<problem>``: every registered method with the
  parameters and noise of its small config (``MATRIX_METHODS``) on each
  catalog problem at its defaults, for at most 300 iterations, through
  ``parse_config`` and ``run_experiment``.  A pair that fails maps to its
  error text prefixed with the phase it failed in, ``parse`` or ``run``
  (187 keys).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

SEEDS = (1, 2, 3, 4)
CATALOG_BUDGETS = (None, 3, 40, 333)
GRID_N = 60
GRID_BUDGETS = (None, 40)
LONG_N = 2500
LONG_BUDGETS = (None, 1300)
DISTRIBUTIONS = ("gaussian", "student_t3")
STOP_SEEDS = (1, 2)
CLI_SEEDS = (1, 2)
JSON_SEEDS = (1, 2)
X0_SEEDS = (1, 2)
EST_BATCHES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 1000)
ROOM_BATCHES = (1, 2, 3, 4, 5, 6, 7, 8, 16, 64)
ZO_BUDGETS = (None, 36, 53, 54, 55)
CHUNK_N = 307  # a prime: no chunk of iterations divides it
CHUNK_DIMS = (1, 2, 10)
CHUNK_BATCHES = (1, 3, 4, 5, 6, 7, 9)
SWITCH_BUDGETS = (None, 10, 11, 40)
REC_ROWS = (511, 512, 513, 1025)
_GD_SLOW = {"L": 8.0, "tol": 0.0}  # a step of 1/8 on curvatures 1 and 2: no gradient reaches 0 in 1024 steps
# name -> (problem, method, params, x0 or None, k): a run of rows - k iterations writes ``rows`` rows
REC_RUNS = {
    "quad_diag-d1": ({"name": "quad_diag", "params": {"lambdas": [2]}}, "gd", _GD_SLOW, None, 1),
    "quad_diag-d2": ({"name": "quad_diag", "params": {"lambdas": [2, 1]}}, "gd", _GD_SLOW, None, 1),
    "quad_diag-d2-negzero": ({"name": "quad_diag", "params": {"lambdas": [2, 1]}}, "gd", _GD_SLOW, [-0.0, 1.0], 1),
    "nesterov_skokov_toy": ({"name": "nesterov_skokov_toy"}, "gd", _GD_SLOW, [1.0, 0.5], 1),
    "nesterov_skokov_toy-tie": ({"name": "nesterov_skokov_toy"}, "gd", _GD_SLOW, [1.0, 0.0], 1),
    "slp": ({"name": "slp"}, "const_subgrad", {"h": 0.01}, None, 0),  # its last iterate takes no step
    "degenerate3": ({"name": "degenerate3"}, "gd", _GD_SLOW, [1.0, -0.5, 2.0], 1),
    "norm2": ({"name": "norm2", "params": {"a": [0.5, -1.0, 2.0]}}, "const_subgrad", {"h": 0.01}, None, 0),
}
# two calls an iteration (the step's, then the row's f): 701 cuts at row 350's f; 1024 at iteration 512's
# first call, after a block of 512 rows; 1025 at row 512's f; 1026 at iteration 513's first call; 1500 at
# row 749's f, inside the second block
REC_BUDGETS = (701, 1024, 1025, 1026, 1500)
REC_BUDGET_RUNS = ("quad_diag-d2", "nesterov_skokov_toy", "slp", "degenerate3", "norm2")
REC_SPECIALS = (1.5, -0.0, 0.0, -2.25, 5e-324, 1e200, -3e200, float("inf"), float("-inf"), float("nan"), 0.125)
_QUAD_50_1 = {"name": "quad_diag", "params": {"lambdas": [50, 1]}}
# name -> (problem, noise, method params, iterations); each reaches its stop test.
STOP_CONFIGS = {
    "cg_quadratic": ({"name": "quad_diag", "params": {"lambdas": [1, 5, 20]}}, None,
                     {"tol": 1e-8}, 10),
    "frank_wolfe-classic": ({"name": "fw_box"}, None, {"tol": 0.05}, 400),
    "frank_wolfe-short": ({"name": "fw_box"}, None, {"tol": 0.05, "step_rule": "short"}, 400),
    "gd_rel_adaptive": ({"name": "quad_diag", "params": {"lambdas": [10, 1]}},
                        {"kind": "relative_grad", "alpha": 0.25, "mode": "shrink"},
                        {"L0": 1.0, "tol": 1e-6}, 500),
    "polyak_subgrad": ({"name": "l1_system", "params": {"d": 5, "m": 8}}, None, {"tol": 1e-6}, 300),
    "heavy_ball": (_QUAD_50_1, None, {"tol": 1e-6}, 2000),
    "taylor_drori": (_QUAD_50_1, None, {"tol": 1e-6}, 2000),
    "gd_abs": ({"name": "quad_diag", "params": {"lambdas": [10, 1]}},
               {"kind": "absolute_grad", "delta": 0.1}, {}, 500),
}


# method -> (noise, params, iterations) of the matrix grid: each method's small config, run on every problem
MATRIX_METHODS = {
    "polyak_subgrad": (None, {}, 300),
    "const_subgrad": (None, {"R": 1.7, "averaging": True}, 300),
    "switching": (None, {"delta": 0.035, "theta0": 1.0}, 300),
    "restarted_switching": (None, {"eps": 0.05, "theta0": 1.0, "alpha": 0.5}, 300),
    "gd": (None, {}, 300),
    "gd_abs": ({"kind": "absolute_grad", "delta": 0.1}, {}, 300),
    "gd_rel": ({"kind": "relative_grad", "alpha": 0.25}, {}, 300),
    "gd_rel_adaptive": ({"kind": "relative_grad", "alpha": 0.25, "mode": "random_direction"}, {"L0": 1.0}, 300),
    **{name: (None, {}, 300) for name in ("heavy_ball", "chebyshev", "nesterov_sc", "nesterov_cvx", "taylor_drori")},
    "cg_quadratic": (None, {}, 5),
    "frank_wolfe": (None, {}, 300),
    "sgd": ({"kind": "additive_stoch_grad", "sigma": 1.0},
            {"step_rule": "decay", "gamma0": 0.5, "averaging": "uniform"}, 300),
    "zo_sgd": ({"kind": "zo_stoch", "delta_tilde": 0.01}, {"gamma": 0.005, "tau": 0.01}, 300),
}


def _digest(path: str, oracle_calls: int, rng=None) -> dict:
    """Hash of the file at ``path``, and of ``rng``'s next three gaussians when given."""
    with open(path, "rb") as fh:
        data = fh.read()
    if rng is not None:
        data += rng.gaussian(3).tobytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "oracle_calls": oracle_calls}


def _guarded(fn) -> dict:
    try:
        return fn()
    except Exception as e:  # the error text is part of the compared behaviour
        return {"error": f"{type(e).__name__}: {e}"}


def catalog_grid(tmp: str) -> dict:
    from catalog import make_configs
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment
    from optbench.core import make_problem

    out = {}
    path = os.path.join(tmp, "trace.json")
    for seed in SEEDS:
        for canon in make_configs(seed, make_problem):
            N = canon.iterations
            for every, budget in itertools.product((1, 7, N + 1), CATALOG_BUDGETS):
                doc = dict(canon.doc, budget={"iterations": N, "max_oracle_calls": budget},
                           output={"record_every": every, "record_x": True})

                def run(doc=doc):
                    _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
                    return _digest(path, summary["oracle_calls"])

                out[f"catalog/{canon.key}/seed{seed}/every{every}/budget{budget}"] = _guarded(run)
    return out


def zero_grid(tmp: str) -> dict:
    from catalog import make_configs
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment
    from optbench.core import make_problem

    out = {}
    path = os.path.join(tmp, "trace.json")
    for canon in make_configs(1, make_problem):
        doc = dict(canon.doc, budget={"iterations": 0}, output={"record_x": True})

        def run(doc=doc):
            _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
            return _digest(path, summary["oracle_calls"])

        out[f"zero/{canon.key}"] = _guarded(run)
    return out


def csv_grid(tmp: str) -> dict:
    from catalog import make_configs
    from optbench.bench.config import parse_config
    from optbench.bench.rates import MODELS, fit_rate
    from optbench.bench.runner import run_experiment
    from optbench.bench.tracefile import read_trace
    from optbench.core import make_problem

    out = {}
    path = os.path.join(tmp, "trace.csv")
    for seed in SEEDS:
        for canon in make_configs(seed, make_problem):
            for every in (1, 7, canon.iterations + 1):
                doc = dict(canon.doc, budget={"iterations": canon.iterations}, output={"record_every": every})
                key = f"{canon.key}/seed{seed}/every{every}"

                def run(doc=doc):
                    if os.path.exists(path):
                        os.remove(path)  # a failed run must not leave its rates a stale file
                    _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
                    return _digest(path, summary["oracle_calls"])

                out[f"csv/{key}"] = _guarded(run)

                def rates():
                    trace = read_trace(path)
                    return {model: _guarded(lambda model=model: repr(fit_rate(trace, model, 0.5)))
                            for model in MODELS}

                out[f"rates/{key}"] = _guarded(rates)
    return out


def json_grid(tmp: str) -> dict:
    from catalog import make_configs
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment
    from optbench.bench.tracefile import read_trace, write_trace
    from optbench.core import make_problem

    out = {}
    path, again = os.path.join(tmp, "trace.json"), os.path.join(tmp, "again.json")
    for seed in JSON_SEEDS:
        for canon in make_configs(seed, make_problem):
            for every in (1, 7):
                doc = dict(canon.doc, budget={"iterations": canon.iterations},
                           output={"record_every": every, "record_x": True})

                def run(doc=doc):
                    _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
                    trace = read_trace(path)
                    write_trace(trace, again, "json")
                    types = {name: sorted({type(v).__name__ for v in cells}) for name, cells in trace.columns.items()}
                    with open(again, "rb") as fh:
                        data = fh.read() + repr(types).encode()
                    return {"sha256": hashlib.sha256(data).hexdigest(), "oracle_calls": summary["oracle_calls"]}

                out[f"json/{canon.key}/seed{seed}/every{every}"] = _guarded(run)
    return out


def stop_grid(tmp: str) -> dict:
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment

    out = {}
    path = os.path.join(tmp, "trace.json")
    for key, (problem, noise, params, N) in STOP_CONFIGS.items():
        method = key.split("-")[0]
        for seed, every, budget in itertools.product(STOP_SEEDS, (1, 7, N + 1), CATALOG_BUDGETS):
            doc = {"problem": dict(problem, seed=seed), "method": {"name": method, "params": params},
                   "budget": {"iterations": N, "max_oracle_calls": budget},
                   "output": {"record_every": every, "record_x": True}}
            if noise is not None:
                doc["noise"] = noise

            def run(doc=doc):
                _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
                return _digest(path, summary["oracle_calls"])

            out[f"stop/{key}/seed{seed}/every{every}/budget{budget}"] = _guarded(run)
    return out


def sgd_zo_grid(tmp: str) -> dict:
    import numpy as np

    from optbench import stochastic as st
    from optbench import zeroorder as zo
    from optbench.bench.tracefile import write_trace
    from optbench.core import AdditiveStochGrad, Box, FullSpace, Rng, ZOStochValue, make_problem, wrap_noise

    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    x0 = np.array([1.5, -1.0])
    sets = {"full": FullSpace(2), "box": Box(np.array([-0.5, -2.0]), np.array([2.0, 0.25]))}
    rules = {"const": st.Const(0.05), "budget_const": st.BudgetConst(R=2.0, M=3.0),
             "inv_k": st.InvK(mu=1.0), "adagrad_norm": st.AdaGradNorm(R=1.0),
             "decay": st.Decay(gamma0=0.3, eta=0.7)}
    averaging = {"none": st.NoAveraging(), "uniform": st.UniformAvg(), "tail": st.TailAvg(0.3)}
    taus = {"const": zo.ConstTau(0.05), "power": zo.PowerDecayTau(0.2, 0.5)}
    path = os.path.join(tmp, "trace.json")
    out = {}

    def digest(key, call, rng=None):
        def run():
            trace = call()
            write_trace(trace, path, "json")
            return _digest(path, trace.final.oracle_calls, rng)
        out[key] = _guarded(run)

    def sgd(key, suite, fset, x0, cfg, **kw):
        rng = Rng(12)
        digest(key, lambda: st.run_sgd(suite, fset, x0, cfg, rng, **kw), rng)

    runs = itertools.product(rules.items(), sets.items(), (1, 3), (1, 7), GRID_BUDGETS)
    for (rname, rule), (sname, fset), batch, every, budget in runs:
        kw = dict(record_every=every, record_x=True, max_oracle_calls=budget)
        tail = f"{sname}/batch{batch}/every{every}/budget{budget}"
        for (aname, avg), clip, dist in itertools.product(averaging.items(), (None, 0.5), DISTRIBUTIONS):
            noisy = wrap_noise(oracle, AdditiveStochGrad(sigma=0.5, distribution=dist), Rng(11))
            cfg = st.SgdConfig(N=GRID_N, step_rule=rule, batch=batch, clip_lambda=clip, averaging=avg)
            prefix = "sgd" if dist == "gaussian" else f"sgd/{dist}"
            sgd(f"{prefix}/{rname}/{aname}/clip{clip}/{tail}", noisy, fset, x0, cfg, **kw)
        for (tname, tau), beta in itertools.product(taus.items(), (2, 4)):
            noisy = wrap_noise(oracle, ZOStochValue(0.01), Rng(21))
            cfg = zo.ZoConfig(N=GRID_N, step_rule=rule, kernel=zo.build_kernel(beta),
                              tau_schedule=tau, batch=batch)
            rng = Rng(22)
            digest(f"zo/{rname}/tau-{tname}/beta{beta}/{tail}",
                   lambda: zo.run_zo_sgd(noisy, fset, x0, cfg, rng, **kw), rng)

    runs = itertools.product(DISTRIBUTIONS, (1, 2), (1, 3), (None, 0.5), LONG_BUDGETS)
    for dist, d, batch, clip, budget in runs:
        suite, fset = make_problem("quad_diag", {"lambdas": [2.0, 1.0][:d]})
        noisy = wrap_noise(suite, AdditiveStochGrad(sigma=0.5, distribution=dist), Rng(11))
        cfg = st.SgdConfig(N=LONG_N, step_rule=st.Decay(gamma0=0.3, eta=0.7), batch=batch, clip_lambda=clip,
                           averaging=st.UniformAvg())
        sgd(f"sgd/long/{dist}/d{d}/batch{batch}/clip{clip}/budget{budget}", noisy, fset, x0[:d], cfg,
            record_every=7, record_x=True, max_oracle_calls=budget)
    return out


def _calls_after(j: int, batch: int, every: int) -> int:
    """The calls of a ``run_zo_sgd`` run once iterations 0..j-1 and their due rows are done."""
    return 2 * batch * j + (j - 1) // every + 1 if j else 0


def zo_chunk_grid(tmp: str) -> dict:
    """``zo/chunk/...``: ``run_zo_sgd`` runs sized around the chunks in which it may draw samples ahead.

    The chunks hold ``BLOCK_VALUES`` raw values while the grid runs, whatever the checkout's own budget.
    """
    from optbench import zeroorder as zo
    from optbench.core.rng import BLOCK_VALUES

    budget, zo.ZO_CHUNK_VALUES = zo.ZO_CHUNK_VALUES, BLOCK_VALUES
    try:
        return _zo_chunk_runs(tmp)
    finally:
        zo.ZO_CHUNK_VALUES = budget


def _zo_chunk_runs(tmp: str) -> dict:
    import numpy as np

    from optbench import stochastic as st
    from optbench import zeroorder as zo
    from optbench.bench.tracefile import write_trace
    from optbench.core import FullSpace, Rng, ZOStochValue, make_problem, wrap_noise

    path = os.path.join(tmp, "trace.json")
    out = {}

    def run(key, suite, x0, batch, tau=zo.ConstTau(0.05), every=7, budget=None, rng=None):
        def go():
            cfg = zo.ZoConfig(N=CHUNK_N, step_rule=st.Const(0.01), kernel=zo.build_kernel(2), tau_schedule=tau,
                              batch=batch)
            trace = zo.run_zo_sgd(suite, FullSpace(suite.dim), x0, cfg, run_rng, record_every=every,
                                  record_x=True, max_oracle_calls=budget)
            write_trace(trace, path, "json")
            return dict(_digest(path, trace.final.oracle_calls, run_rng), status=trace.status.value)
        run_rng = Rng(23) if rng is None else rng
        out[key] = _guarded(go)

    def quad(d, noisy=True, name="quad_diag"):
        params = {"lambdas": np.linspace(1.0, 3.0, d).tolist()} if name == "quad_diag" else {}
        suite, _ = make_problem(name, params)
        suite = wrap_noise(suite, ZOStochValue(0.01), Rng(21)) if noisy else suite
        return suite, np.linspace(1.5, -1.0, suite.dim)

    taus = {"const": zo.ConstTau(0.05), "power": zo.PowerDecayTau(0.2, 0.5)}
    sizes = [*itertools.product(CHUNK_DIMS, CHUNK_BATCHES), (10, 64)]
    for (d, batch), (tname, tau), every in itertools.product(sizes, taus.items(), (1, 7)):
        c = zo.chunk_iterations(batch, d + 2)
        after = _calls_after(c, batch, every)
        budgets = {"none": None, "boundary": after, "mid-chunk": _calls_after(c + c // 2, batch, every),
                   "mid-iter": after + batch, "last-probe": after + 2 * batch - 1, "row": after + 2 * batch}
        suite, x0 = quad(d)
        for bname, budget in budgets.items():
            run(f"zo/chunk/zo_stoch/d{d}/batch{batch}/tau-{tname}/every{every}/budget-{bname}", suite, x0, batch,
                tau, every, budget)
    for d, batch in itertools.product((2, 10), (1, 4, 9)):
        suite, x0 = quad(d, noisy=False)
        for bname, budget in {"none": None, "boundary": _calls_after(zo.chunk_iterations(batch, d), batch, 1)}.items():
            run(f"zo/chunk/exact/d{d}/batch{batch}/budget-{bname}", suite, x0, batch, every=1, budget=budget)
    for batch in (1, 4, 9):
        suite, x0 = quad(2, name="rosenbrock")
        after = _calls_after(zo.chunk_iterations(batch, 4), batch, 7)
        for bname, budget in {"none": None, "mid-iter": after + batch}.items():
            run(f"zo/chunk/rosenbrock/batch{batch}/budget-{bname}", suite, x0, batch, budget=budget)
    for d, batch in itertools.product((2, 10), (1, 4, 9)):
        suite, x0 = quad(d)
        first = zo.chunk_iterations(batch, d + 2) * batch  # the first sample of the second chunk
        for sample in sorted({first, first + 2 * batch - 1}):
            rng = Rng(23)
            rng._gen = _TinyDirection(np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng.entropy))),
                                      d, sample)
            run(f"zo/chunk/tiny/d{d}/batch{batch}/sample{sample}", suite, x0, batch, rng=rng)
    for batch in (1, 9):
        suite, x0 = quad(2)
        run(f"zo/chunk/tau-underflow/batch{batch}", suite, x0, batch, zo.PowerDecayTau(0.2, 400.0))

    calls = []
    exact, _ = make_problem("quad_diag", {"lambdas": [1.0, 3.0]})

    def value(x):  # counts every value call, the probes' among them
        calls.append(x)
        return exact.value(x)

    suite = wrap_noise(dataclasses.replace(exact, value=value), ZOStochValue(0.01), Rng(21))
    entry = suite.zo_value
    for name, s in {"declared": suite, "undeclared": dataclasses.replace(suite, zo_value=lambda x, r: entry(x, r))}.items():
        calls.clear()
        rng = Rng(23)
        cfg = zo.ZoConfig(N=20, step_rule=st.Const(0.01), kernel=zo.build_kernel(2), batch=3)
        try:
            zo.run_zo_sgd(s, FullSpace(3), np.ones(3), cfg, rng, record_every=7, record_x=True)
            text = "no error"
        except ValueError as e:
            text = f"{type(e).__name__}: {e}"
        out[f"zo/chunk/wrong-dim/{name}"] = {"error": text, "oracle_calls": len(calls),
                                             "sha256": hashlib.sha256(rng.gaussian(3).tobytes()).hexdigest()}
    return out


def subgrad_grid(tmp: str) -> dict:
    import numpy as np

    from optbench import subgrad as sg
    from optbench.bench.tracefile import write_trace
    from optbench.core import Box, FullSpace, make_problem

    oracle, _ = make_problem("slp", {"rho": 1.0})
    x0 = np.array([-1.2, 0.9])
    sets = {"full": FullSpace(2), "box": Box(np.array([-2.0, -2.0]), np.array([0.5, 2.0]))}
    runs = {
        "switching": (sg.run_switching, sg.SwitchingConfig(delta=0.035, theta0=1.0, max_iters=2000)),
        "restarted_switching": (sg.run_restarted_switching,
                                sg.SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, max_iters=2000)),
        "polyak": (sg.run_polyak_subgrad, sg.SubgradConfig(step_rule=sg.PolyakStep(), N=GRID_N)),
        "const": (sg.run_const_subgrad, sg.SubgradConfig(step_rule=sg.FixedStep(0.1), N=GRID_N, averaging=True)),
    }
    path = os.path.join(tmp, "trace.json")
    out = {}
    for (name, (run_fn, cfg)), (sname, fset), every, budget in itertools.product(
            runs.items(), sets.items(), (1, 7), GRID_BUDGETS):
        def run(run_fn=run_fn, cfg=cfg, fset=fset, every=every, budget=budget):
            trace = run_fn(oracle, fset, x0, cfg, record_every=every, record_x=True, max_oracle_calls=budget)
            write_trace(trace, path, "json")
            return _digest(path, trace.final.oracle_calls)

        out[f"subgrad/{name}/{sname}/every{every}/budget{budget}"] = _guarded(run)
    return out


def _hinge():
    """f = max(x_1, 0), whose subgradient (1, 0) is 0 once x_1 <= 0, under x_2 <= 1.

    A productive step of length delta = 1 from x_1 = 1.5 (2.5) lands where
    the subgradient is 0 at iteration 2 (3).
    """
    import numpy as np

    from optbench.core import ConstraintOracle, OracleSuite

    return OracleSuite(value=lambda x: max(float(x[0]), 0.0),
                       subgrad=lambda x: np.array([1.0 if x[0] > 0 else 0.0, 0.0]), dim=2,
                       constraint=ConstraintOracle(value=lambda x: float(x[1]) - 1.0,
                                                   subgrad=lambda x: np.array([0.0, 1.0]), lipschitz=1.0))


def switch_grid(tmp: str) -> dict:
    import numpy as np

    from optbench import subgrad as sg
    from optbench.bench.tracefile import write_trace
    from optbench.core import ConstraintOracle, FullSpace, OracleSuite, make_problem

    slp, _ = make_problem("slp", {"rho": 1.0})
    full = FullSpace(2)
    hinge = _hinge()
    # a constraint no iterate satisfies: every step is nonproductive, 3 calls each at a due row
    never = OracleSuite(value=lambda x: float(x[0] * x[0]), subgrad=lambda x: np.array([2.0 * x[0], 0.0]), dim=2,
                        constraint=ConstraintOracle(value=lambda x: 10.0, subgrad=lambda x: np.array([1.0, 0.0]),
                                                    lipschitz=1.0))
    x_slp = np.array([-1.2, 0.9])
    restarted = sg.SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, max_iters=2000)
    free = sg.run_restarted_switching(slp, full, x_slp, restarted)
    boundary = next(r.iter for r in free.rows if r.tag and r.tag.startswith("p2:"))
    plain_hinge = sg.SwitchingConfig(delta=1.0, theta0=4.0, max_iters=50)
    restarted_hinge = sg.SwitchingConfig(theta0=4.0, eps_target=1.0, alpha_sharp=0.5, max_iters=50)
    plain, restart = sg.run_switching, sg.run_restarted_switching
    runs = {
        "slp-stop/switching": (plain, slp, x_slp, sg.SwitchingConfig(delta=0.035, theta0=1.0, max_iters=2000)),
        "slp-stop/restarted_switching": (restart, slp, x_slp, restarted),
        "slp-cap/switching": (plain, slp, np.zeros(2), sg.SwitchingConfig(delta=0.01, theta0=5.0, max_iters=20)),
        "slp-cap/restarted_switching": (restart, slp, x_slp, dataclasses.replace(restarted, max_iters=3)),
        "slp-cap-unproductive/switching": (plain, slp, x_slp, sg.SwitchingConfig(delta=0.01, theta0=5.0,
                                                                                 max_iters=20)),
        "slp-total5/restarted_switching": (restart, slp, x_slp, dataclasses.replace(restarted, total_iters=5)),
        "slp-total-at-boundary/restarted_switching": (restart, slp, x_slp,
                                                      dataclasses.replace(restarted, total_iters=boundary)),
        "slp-eps-above-theta0/restarted_switching": (restart, slp, x_slp,
                                                     dataclasses.replace(restarted, eps_target=1.0)),
        "hinge-zero-at-2/switching": (plain, hinge, np.array([1.5, 0.0]), plain_hinge),
        "hinge-zero-at-2/restarted_switching": (restart, hinge, np.array([1.5, 0.0]), restarted_hinge),
        "hinge-zero-at-3/switching": (plain, hinge, np.array([2.5, 0.0]), plain_hinge),
        "hinge-zero-at-3/restarted_switching": (restart, hinge, np.array([2.5, 0.0]), restarted_hinge),
        "hinge-nonproductive-first/switching": (plain, hinge, np.array([1.5, 2.5]), plain_hinge),
        "hinge-nonproductive-first/restarted_switching": (restart, hinge, np.array([1.5, 2.5]), restarted_hinge),
        "never-productive/switching": (plain, never, np.zeros(2), sg.SwitchingConfig(delta=1.0, theta0=10.0,
                                                                                     max_iters=30)),
        "never-productive/restarted_switching": (restart, never, np.zeros(2), sg.SwitchingConfig(
            theta0=10.0, eps_target=1.0, alpha_sharp=1.0, max_iters=30)),
    }
    path = os.path.join(tmp, "trace.json")
    out = {}
    for (name, (run_fn, suite, x0, cfg)), every, budget in itertools.product(
            runs.items(), (1, 2, 7), SWITCH_BUDGETS):
        def run(run_fn=run_fn, suite=suite, x0=x0, cfg=cfg, every=every, budget=budget):
            trace = run_fn(suite, full, x0, cfg, record_every=every, record_x=True, max_oracle_calls=budget)
            write_trace(trace, path, "json")
            return _digest(path, trace.final.oracle_calls)

        out[f"switch/{name}/every{every}/budget{budget}"] = _guarded(run)
    return out


def set_grid(tmp: str) -> dict:
    import numpy as np

    from optbench import stochastic as st
    from optbench import subgrad as sg
    from optbench.bench.tracefile import write_trace
    from optbench.core import AdditiveStochGrad, Ball, Rng, Simplex, make_problem, wrap_noise

    slp, _ = make_problem("slp", {"rho": 1.0})
    quad, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    noisy = wrap_noise(quad, AdditiveStochGrad(sigma=0.5), Rng(11))
    ball, simplex = Ball(np.array([0.1, 0.05]), 0.9), Simplex(2)
    # x_1 = 1.5 -> 0.5 -> -0.5, which this ball projects onto its boundary at a point whose
    # projection is not bitwise the same point: the zero subgradient still comes at iteration 2.
    hinge_ball = Ball(np.array([1.0, 0.2]), 1.4)
    plain = sg.SwitchingConfig(delta=0.035, theta0=1.0, max_iters=2000)
    restarted = sg.SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, max_iters=2000)
    plain_hinge = sg.SwitchingConfig(delta=1.0, theta0=4.0, max_iters=50)
    restarted_hinge = sg.SwitchingConfig(theta0=4.0, eps_target=1.0, alpha_sharp=0.5, max_iters=50)
    x_slp, x_hinge = np.array([0.3, 0.4]), np.array([1.5, 0.0])
    runs = {
        **{f"slp/{scheme}/{sname}": (run_fn, slp, fset, x_slp, cfg)
           for scheme, run_fn, cfg in (("switching", sg.run_switching, plain),
                                       ("restarted_switching", sg.run_restarted_switching, restarted))
           for sname, fset in (("ball", ball), ("simplex", simplex))},
        "hinge-zero-at-2/switching/ball": (sg.run_switching, _hinge(), hinge_ball, x_hinge, plain_hinge),
        "hinge-zero-at-2/restarted_switching/ball": (sg.run_restarted_switching, _hinge(), hinge_ball, x_hinge,
                                                     restarted_hinge),
        "slp/polyak/ball": (sg.run_polyak_subgrad, slp, ball, x_slp,
                            sg.SubgradConfig(step_rule=sg.PolyakStep(), N=GRID_N)),
        "slp/const/ball": (sg.run_const_subgrad, slp, ball, x_slp,
                           sg.SubgradConfig(step_rule=sg.FixedStep(0.1), N=GRID_N, averaging=True)),
        "quad/sgd/ball": (lambda suite, fset, x0, cfg, **kw: st.run_sgd(suite, fset, x0, cfg, Rng(12), **kw),
                          noisy, ball, np.array([1.5, -1.0]),
                          st.SgdConfig(N=GRID_N, step_rule=st.Const(0.3), averaging=st.UniformAvg())),
    }
    path = os.path.join(tmp, "trace.json")
    out = {}
    for (name, (run_fn, suite, fset, x0, cfg)), every, budget in itertools.product(
            runs.items(), (1, 7), GRID_BUDGETS):
        def run(run_fn=run_fn, suite=suite, fset=fset, x0=x0, cfg=cfg, every=every, budget=budget):
            trace = run_fn(suite, fset, x0, cfg, record_every=every, record_x=True, max_oracle_calls=budget)
            write_trace(trace, path, "json")
            return _digest(path, trace.final.oracle_calls)

        out[f"set/{name}/every{every}/budget{budget}"] = _guarded(run)
    return out


def diverge_grid(tmp: str) -> dict:
    import math

    import numpy as np

    from optbench import momentum as mo
    from optbench import smooth as sm
    from optbench.bench.tracefile import write_trace
    from optbench.core import AbsoluteGrad, OracleSuite, QuadraticForm, RelativeGrad, Rng, make_problem, wrap_noise

    quad, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    cubic = OracleSuite(value=lambda x: -float((x * x * x).sum()) / 3.0, subgrad=lambda x: -(x * x),
                        grad=lambda x: -(x * x), dim=2)
    linear = OracleSuite(value=lambda x: -float(x.sum()), subgrad=lambda x: -np.ones(2),
                         grad=lambda x: -np.ones(2), dim=2)
    starts = {"quad": (quad, np.array([1.0, 1.0])), "cubic": (cubic, np.array([1.0, 0.5])),
              "linear": (linear, np.zeros(2))}
    N = 400

    def smooth_run(entry, noise, mode, L=1.0):
        def run(suite, x0, **kw):
            noisy = suite if noise is None else wrap_noise(suite, noise, Rng(1))
            return entry(noisy, x0, sm.SmoothRunConfig(N=N, L=L, mode=mode), **kw)
        return run

    runs = {
        "gd": (smooth_run(sm.run_gd, None, sm.Exact()), ("quad", "cubic")),
        "gd_abs": (smooth_run(sm.run_gd_abs, AbsoluteGrad(0.1), sm.AbsNoise(0.1)), ("quad", "cubic")),
        "gd_rel": (smooth_run(sm.run_gd_rel, RelativeGrad(0.25, mode="shrink"), sm.RelNoise(0.25)),
                   ("quad", "cubic")),
        "gd_rel_adaptive": (smooth_run(sm.run_gd_rel_adaptive, RelativeGrad(0.25, mode="shrink"),
                                       sm.RelNoiseAdaptive(0.25, L0=1.0), L=None), ("cubic", "linear")),
        **{v: (lambda suite, x0, v=v, **kw: mo.run_momentum(suite, x0, mo.MomentumConfig(v, N=N, L=1.0, mu=0.5), **kw),
               ("quad", "cubic")) for v in MOMENTUM_VARIANTS},
    }
    path = os.path.join(tmp, "trace.json")
    out = {}
    for name, (run_fn, suites) in runs.items():
        for sname, (rname, radius), every, budget in itertools.product(
                suites, (("r1e6", 1e6), ("rinf", math.inf)), (1, 7), GRID_BUDGETS):
            suite, x0 = starts[sname]

            def run(run_fn=run_fn, suite=suite, x0=x0, radius=radius, every=every, budget=budget):
                with np.errstate(all="ignore"):
                    trace = run_fn(suite, x0, record_every=every, record_x=True, max_oracle_calls=budget,
                                   divergence_radius=radius)
                write_trace(trace, path, "json")
                return _digest(path, trace.final.oracle_calls)

            out[f"diverge/{name}/{sname}/{rname}/every{every}/budget{budget}"] = _guarded(run)

    lam, calls = np.array([1.0, 2.0, 3.0]), itertools.count()
    nan_third = OracleSuite(value=lambda x: 0.5 * float(x.dot(lam * x)), subgrad=lambda x: lam * x,
                            grad=lambda x: np.array([math.nan, 0.0, 0.0]) if next(calls) == 2 else lam * x,
                            dim=3, quadratic=QuadraticForm(matvec=lambda v: lam * v))

    def cg_run():
        with np.errstate(all="ignore"):
            trace = mo.run_cg_quadratic(nan_third, np.ones(3), 10, record_x=True)
        write_trace(trace, path, "json")
        return _digest(path, trace.final.oracle_calls) | {"status": trace.status.value, "iter": trace.final.iter}

    out["diverge/cg_quadratic/nan-gradient"] = _guarded(cg_run)
    return out


EDGE_N = 60
EDGE_ROWS = (3, 40)
# start name -> x0 on quad_diag [10, 1]: gradients and distances near 1, and across the ends of the screens'
# window, 1e-150 (the squares of ``tiny`` underflow within the run) and 1e150 (``huge`` starts above it)
EDGE_STARTS = {"unit": (1.0, 1.0), "tiny": (1e-149, 3e-150), "huge": (1e149, 3e148)}
# a quad_diag length above the float screens' cutoff (core.linalg.SCREEN_MAX_DIM, 32): its runs take the exact
# tests only; its eigenvalues run from 10 down to 1 and its starts repeat the 2-d starts' entries
EDGE_WIDE = 40


def edge_grid(tmp: str) -> dict:
    """``driver/edge/...``: stop tests at a gradient norm and a distance that the run itself reaches."""
    import math

    import numpy as np

    from optbench import momentum as mo
    from optbench import smooth as sm
    from optbench.bench.tracefile import write_trace
    from optbench.core import RelativeGrad, Rng, make_problem, wrap_noise
    from optbench.core.linalg import norm

    quad, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    wide, _ = make_problem("quad_diag", {"lambdas": np.linspace(10.0, 1.0, EDGE_WIDE).tolist()})

    def smooth(entry, mode, noisy=False, quad=quad):
        def run(x0, tol, radius):
            rng = Rng(1)
            suite = wrap_noise(quad, RelativeGrad(0.25, mode="random_direction"), rng) if noisy else quad
            trace = entry(suite, x0, sm.SmoothRunConfig(N=EDGE_N, mode=mode, tol=tol), record_x=True,
                          divergence_radius=radius)
            return trace, rng
        return run

    def momentum(variant):
        def run(x0, tol, radius):
            trace = mo.run_momentum(quad, x0, mo.MomentumConfig(variant, N=EDGE_N, tol=tol), record_x=True,
                                    divergence_radius=radius)
            return trace, None
        return run

    runs = {"gd": smooth(sm.run_gd, sm.Exact()), "heavy_ball": momentum("heavy_ball"),
            "nesterov_cvx": momentum("nesterov_cvx"),
            "gd_rel_adaptive": smooth(sm.run_gd_rel_adaptive, sm.RelNoiseAdaptive(0.25, L0=1.0), noisy=True),
            f"gd-d{EDGE_WIDE}": smooth(sm.run_gd, sm.Exact(), quad=wide),
            f"gd_rel_adaptive-d{EDGE_WIDE}": smooth(sm.run_gd_rel_adaptive, sm.RelNoiseAdaptive(0.25, L0=1.0),
                                                    noisy=True, quad=wide)}
    path = os.path.join(tmp, "trace.json")
    out = {}

    def digest(run_fn, x0, tol, radius):
        with np.errstate(all="ignore"):
            trace, rng = run_fn(x0, tol, radius)
        write_trace(trace, path, "json")
        return _digest(path, trace.final.oracle_calls, rng) | {"status": trace.status.value, "iter": trace.final.iter}

    for (name, run_fn), (start, x0) in itertools.product(runs.items(), EDGE_STARTS.items()):
        x0 = np.resize(x0, EDGE_WIDE) if name.endswith(f"-d{EDGE_WIDE}") else np.array(x0)
        key = f"driver/edge/{name}/{start}"
        out[f"{key}/first"] = _guarded(lambda: digest(run_fn, x0, 0.0, math.inf))
        with np.errstate(all="ignore"):
            columns = run_fn(x0, 0.0, math.inf)[0].columns
        xs, norms = columns["x"], columns["grad_norm"]
        for k in EDGE_ROWS:
            k = min(k, len(xs) - 2)  # the terminal row records no gradient
            gn, dist = norms[k], norm(xs[k] - xs[0])
            cases = {"tol-at": (gn, math.inf), "tol-below": (np.nextafter(gn, 0.0), math.inf),
                     "tol-above": (np.nextafter(gn, math.inf), math.inf), "radius-at": (0.0, dist),
                     "radius-below": (0.0, np.nextafter(dist, 0.0))}
            for case, (tol, radius) in cases.items():
                out[f"{key}/row{k}/{case}"] = _guarded(lambda: digest(run_fn, x0, float(tol), float(radius)))
    return out


def matrix_grid(tmp: str) -> dict:
    import numpy as np

    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment
    from optbench.core import problem_names

    path = os.path.join(tmp, "trace.json")
    out = {}
    for (method, (noise, params, N)), problem in itertools.product(MATRIX_METHODS.items(), problem_names()):
        doc = {"problem": problem, "method": {"name": method, "params": params}, "iterations": N,
               "output": {"record_x": True}}
        if noise is not None:
            doc["noise"] = noise

        def run(doc=doc):
            phase = "parse"
            try:
                spec = parse_config(json.dumps(doc))
                phase = "run"
                with np.errstate(all="ignore"):
                    _, summary = run_experiment(spec, trace_path=path)
            except Exception as e:  # the phase and the error text are part of the compared behaviour
                return {"error": f"{phase}: {type(e).__name__}: {e}"}
            return _digest(path, summary["oracle_calls"])

        out[f"matrix/{method}/{problem}"] = run()
    return out


def _rec_suites() -> dict:
    """name -> a suite whose trace rows take ``dist_to_opt`` from ``xstar``, ``minimizers`` or ``dist_fn``.

    ``minimizers-inf`` has a minimizer with an infinite entry, so an iterate
    with an infinite entry there is at distance NaN from it and at a finite
    or infinite distance from the other; the two orders put the NaN first
    and second.
    """
    import dataclasses

    import numpy as np

    from optbench.core import make_problem

    quad1, _ = make_problem("quad_diag", {"lambdas": [2.0]})
    quad2, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    toy, _ = make_problem("nesterov_skokov_toy", {})
    slp, _ = make_problem("slp", {})
    deg3, _ = make_problem("degenerate3", {})
    norm2, _ = make_problem("norm2", {"a": [0.5, -1.0, 2.0]})
    inf_first = (np.array([np.inf, 1.0]), np.array([0.0, -1.0]))
    return {"quad_diag-d1": quad1, "quad_diag-d2": quad2, "nesterov_skokov_toy": toy, "slp": slp,
            "degenerate3": deg3, "norm2": norm2,
            "minimizers-inf-first": dataclasses.replace(toy, minimizers=inf_first),
            "minimizers-inf-second": dataclasses.replace(toy, minimizers=inf_first[::-1])}


def _rec_script(d: int, rows: int):
    """``(x0, step)``: a ``run_steps`` step whose iterates, values and gradients cycle through ``REC_SPECIALS``.

    Iteration k moves to the k+1-th scripted point, returns a scripted f
    on three rows in four (the fourth is evaluated through the counter),
    a scripted gradient and a step of 0.5.
    """
    import numpy as np

    n = len(REC_SPECIALS)

    def point(k, shift):
        return np.array([REC_SPECIALS[(k * (2 * j + 3) + j * (k // n + 1) + shift) % n] for j in range(d)])

    xs = [point(k, 0) for k in range(rows)]

    def step(ctr, k, x):
        f = None if k % 4 == 0 else REC_SPECIALS[(5 * k + 2) % n]
        return xs[k + 1], f, point(k, 7), 0.5, None

    return xs[0], step


def rec_grid(tmp: str) -> dict:
    """``rec/...``: ``record_every`` 1 runs whose row counts sit around a block of ``REC_ROWS`` rows."""
    import math

    import numpy as np

    from optbench import smooth as sm
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment
    from optbench.bench.tracefile import write_trace
    from optbench.core import OracleSuite
    from optbench.core.oracles import run_steps

    path = os.path.join(tmp, "trace.json")
    out = {}

    def catalog(key, name, rows, record_x, budget=None):
        problem, method, params, x0, extra = REC_RUNS[name]
        doc = {"problem": problem, "method": {"name": method, "params": params},
               "budget": {"iterations": rows - extra, "max_oracle_calls": budget},
               "output": {"record_every": 1, "record_x": record_x}}
        if x0 is not None:
            doc["x0"] = x0

        def run():
            _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
            return _digest(path, summary["oracle_calls"])
        out[key] = _guarded(run)

    def direct(key, call):
        def run():
            with np.errstate(all="ignore"):
                trace = call()
            write_trace(trace, path, "json")
            return _digest(path, trace.final.oracle_calls)
        out[key] = _guarded(run)

    suites = _rec_suites()
    for record_x in (True, False):
        xs = f"x-{'on' if record_x else 'off'}"
        for name, rows in itertools.product(REC_RUNS, REC_ROWS):
            catalog(f"rec/{name}/rows{rows}/{xs}", name, rows, record_x)
        for name, budget in itertools.product(REC_BUDGET_RUNS, REC_BUDGETS):
            catalog(f"rec/{name}/rows{REC_ROWS[-1]}/budget{budget}/{xs}", name, REC_ROWS[-1], record_x, budget)
        for (sname, suite), rows in itertools.product(suites.items(), REC_ROWS):
            def scripted(suite=suite, rows=rows, record_x=record_x):
                x0, step = _rec_script(suite.dim, rows)
                return run_steps(suite, x0, rows - 1, step, record_every=1, record_x=record_x,
                                 max_oracle_calls=None)
            direct(f"rec/scripted/{sname}/rows{rows}/{xs}", scripted)
        # gd on f = x_1 + x_2 with a gradient of +-1e150 by sign and a step of 1e200: row 1 sits at
        # (-inf, inf), where f is NaN, and the next iterate, NaN, ends the run as diverged
        blowup = OracleSuite(value=lambda x: float(x[0] + x[1]), subgrad=lambda x: np.where(x > 0, 1e150, -1e150),
                             grad=lambda x: np.where(x > 0, 1e150, -1e150), dim=2, fstar=0.0, xstar=np.zeros(2))
        direct(f"rec/diverge/blowup/{xs}", lambda record_x=record_x: sm.run_gd(
            blowup, np.array([1.0, -1.0]), sm.SmoothRunConfig(N=10, L=1e-200, tol=0.0), record_x=record_x,
            divergence_radius=math.inf))
    return out


def estimator_grid() -> dict:
    import numpy as np

    from optbench import stochastic as st
    from optbench import zeroorder as zo
    from optbench.core import (AbsoluteGrad, CountingOracle, FullSpace, OracleBudgetError, OracleSuite,
                               RelativeGrad, Rng, ZOBoundedValue, ZOStochValue, make_problem, wrap_noise)

    c = np.array([1.0, -2.0, 0.5])
    lam = np.linspace(1.0, 10.0, 50)
    quad50, _ = make_problem("quad_diag", {"lambdas": lam.tolist(), "shift": np.sin(lam).tolist()})
    cases = {
        "linear-d3": (OracleSuite(value=lambda x: float(c @ x), subgrad=lambda x: c.copy(), dim=3),
                      np.array([0.3, -0.1, 2.0])),
        "quad50-zo_stoch": (wrap_noise(quad50, ZOStochValue(1e-3), Rng(17)), np.cos(3.0 * lam)),
        "quad50-zo_bounded-random": (wrap_noise(quad50, ZOBoundedValue(1e-2, "random"), Rng(17)),
                                     np.cos(3.0 * lam)),
        "quad50-zo_bounded-worst": (wrap_noise(quad50, ZOBoundedValue(1e-2, "deterministic_worst"), Rng(17)),
                                    np.cos(3.0 * lam)),
        "quad-d1": (make_problem("quad_diag", {"lambdas": [3.0]})[0], np.array([0.7])),
        "quad-minimizer": (make_problem("quad_diag", {"lambdas": [1.0, 1.0]})[0], np.zeros(2)),
        "linear-d3-drawing": (OracleSuite(value=lambda x: float(c @ x), subgrad=lambda x: c.copy(), dim=3,
                                          zo_value=lambda x, rng: float(c @ x) + 0.01 * float(rng.student_t(3))),
                              np.array([0.3, -0.1, 2.0])),
    }
    out = {}

    def digest(rng, *arrays) -> dict:
        data = b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays) + rng.gaussian(3).tobytes()
        return {"sha256": hashlib.sha256(data).hexdigest()}

    for (name, (oracle, x)), beta, batch, seed in itertools.product(cases.items(), (2, 4), EST_BATCHES, (1, 2)):
        def run(oracle=oracle, x=x, beta=beta, batch=batch, seed=seed):
            rng = Rng(seed)
            return digest(rng, zo.kernel_grad_estimate(oracle, x, 0.05, zo.build_kernel(beta), rng, batch))

        out[f"est/{name}/beta{beta}/batch{batch}/seed{seed}"] = _guarded(run)

    for (name, (oracle, x)), seed in itertools.product(cases.items(), (1, 2)):
        def cut(oracle=oracle, x=x, seed=seed):
            rng, ctr = Rng(seed), CountingOracle(oracle, 7)
            try:
                zo.kernel_grad_estimate(ctr, x, 0.05, zo.build_kernel(2), rng, 10)
            except OracleBudgetError as e:
                return dict(digest(rng), error=f"{type(e).__name__}: {e}", oracle_calls=ctr.calls)
            return {"error": "the budget did not cut the estimate"}

        out[f"est/{name}/budget7/seed{seed}"] = _guarded(cut)

    for (name, (oracle, x)), batch, short in itertools.product(cases.items(), ROOM_BATCHES, (0, 1)):
        def room(oracle=oracle, x=x, batch=batch, calls=2 * batch - short):
            rng, ctr = Rng(1), CountingOracle(oracle, calls)
            try:
                est = zo.kernel_grad_estimate(ctr, x, 0.05, zo.build_kernel(2), rng, batch)
            except OracleBudgetError as e:
                return dict(digest(rng), error=f"{type(e).__name__}: {e}", oracle_calls=ctr.calls)
            return dict(digest(rng, est), oracle_calls=ctr.calls)

        out[f"est/{name}/batch{batch}/room{2 * batch - short}"] = _guarded(room)

    quad, quad_x = cases["quad50-zo_stoch"]
    cfg = zo.ZoConfig(N=12, step_rule=st.Const(0.01), kernel=zo.build_kernel(2), batch=9)
    for budget in ZO_BUDGETS:
        def run_zo(budget=budget):
            rng = Rng(3)
            trace = zo.run_zo_sgd(quad, FullSpace(50), quad_x, cfg, rng, record_every=5, record_x=True,
                                  max_oracle_calls=budget)
            rows = [np.array([r.iter, r.f_value, r.oracle_calls]) for r in trace.rows]
            return dict(digest(rng, trace.x_out, *rows, *(r.x for r in trace.rows)),
                        status=trace.status.value, oracle_calls=trace.final.oracle_calls)

        out[f"est/zo_sgd/batch9/budget{budget}"] = _guarded(run_zo)

    kinds = {"absolute_grad": AbsoluteGrad(0.1), "relative_grad": RelativeGrad(0.3, "random_direction")}
    for (kind, noise), d, seed in itertools.product(kinds.items(), (1, 3, 50), (1, 2)):
        def stream(noise=noise, d=d, seed=seed):
            oracle, _ = make_problem("quad_diag", {"lambdas": np.linspace(1.0, 4.0, d).tolist()})
            rng = Rng(seed)
            grad = wrap_noise(oracle, noise, rng).grad
            return digest(rng, *(grad(np.full(d, 1.0 / (k + 1))) for k in range(200)))

        out[f"est/{kind}/d{d}/seed{seed}"] = _guarded(stream)

    for name, batch, call, seed in itertools.product(("linear-d3", "quad50-zo_stoch"), (7, 1000), (0, 3), (1, 2)):
        def tiny(oracle=cases[name][0], x=cases[name][1], batch=batch, call=call, seed=seed):
            rng = Rng(seed)
            rng._gen = _TinyDirection(np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng.entropy))),
                                      x.shape[0], call)
            return digest(rng, zo.kernel_grad_estimate(oracle, x, 0.05, zo.build_kernel(2), rng, batch))

        out[f"est/tiny/{name}/batch{batch}/call{call}/seed{seed}"] = _guarded(tiny)
    return out


class _TinyDirection:
    """Generator view that scales the ``call``-th direction draw (from 0) to a norm below 1e-12.

    A direction draw is a ``standard_normal`` call of at least ``d`` values,
    a sphere draw alone or followed by its probes' noise; its first ``d``
    values are scaled by 1e-14.  The stream position where that draw starts
    is kept, so a draw that starts there again after a rewind is scaled too.
    """

    def __init__(self, gen, d: int, call: int):
        self.gen, self.d, self.call, self.seen, self.position = gen, d, call, 0, None

    def standard_normal(self, size=None, out=None):
        import numpy as np

        position = self.gen.bit_generator.state["state"]["state"]
        out = self.gen.standard_normal(size) if out is None else self.gen.standard_normal(out=out)
        if np.size(out) >= self.d:
            if self.seen == self.call:
                self.position = position
            self.seen += 1
        if position == self.position:
            out[:self.d] *= 1e-14
        return out

    def __getattr__(self, name):
        return getattr(self.gen, name)


# case -> (problem, params, seed)
ORACLE_CASES = {
    "abs1d": ("abs1d", {}, 1),
    "l1_system": ("l1_system", {}, 1),
    "l1_system-d3-m4-seed2": ("l1_system", {"d": 3, "m": 4}, 2),
    "norm2": ("norm2", {"a": [1.0, -2.0, 0.5]}, 1),
    "quad_diag": ("quad_diag", {}, 1),
    "quad_diag-shift": ("quad_diag", {"lambdas": [10.0, 1.0, 0.3], "shift": [1.5, -2.0, 0.0]}, 1),
    "quad_diag-shift+0": ("quad_diag", {"lambdas": [4.0, 1.0], "shift": [0.0, 0.0]}, 1),
    "quad_diag-shift-0": ("quad_diag", {"lambdas": [4.0, 1.0], "shift": [-0.0, 0.0]}, 1),
    "fw_box": ("fw_box", {}, 1),
    "degenerate3": ("degenerate3", {}, 1),
    "degenerate3-l1_3-l2_0.7": ("degenerate3", {"l1": 3.0, "l2": 0.7}, 1),
    "rosenbrock": ("rosenbrock", {}, 1),
    "nesterov_skokov_toy": ("nesterov_skokov_toy", {}, 1),
    "phase_retrieval": ("phase_retrieval", {}, 1),
    "slp": ("slp", {}, 1),
    "slp-rho2.5": ("slp", {"rho": 2.5}, 1),
    "logistic_small": ("logistic_small", {}, 1),
}
ORACLE_SPECIALS = (0.0, -0.0, 5e-324, -2.5e-310, 1e200, -3e200, float("inf"), float("-inf"), float("nan"),
                   -float("nan"))


def oracle_points(d: int, known=()) -> list:
    """The fixed input grid of the ``oracle/`` keys for dimension ``d``; ``known`` adds minimizers."""
    import numpy as np

    rng = np.random.default_rng(20)
    points = [np.asarray(x, dtype=float) for x in known]
    points += [scale * rng.standard_normal(d) for scale in 10.0 ** np.arange(-300, 151, 10) for _ in range(3)]
    specials = np.append(ORACLE_SPECIALS, np.array([0x7FF4000000000001], dtype=np.uint64).view(float))
    for u in specials:  # the last is a signalling NaN
        points.append(np.full(d, u))
        for i in range(d):
            x = rng.standard_normal(d)
            x[i] = u
            points.append(x)
        for v in specials:
            x = rng.standard_normal(d)
            x[0], x[-1] = u, v
            points.append(x)
    return points


def x0_grid() -> dict:
    from optbench.core import default_x0, problem_names

    out = {}
    for name in problem_names():
        for seed in X0_SEEDS:
            x0 = default_x0(name, {}, seed)
            data = f"{type(x0).__name__} {x0.dtype.str} {x0.shape};".encode() + x0.tobytes()
            out[f"x0/{name}/seed{seed}"] = {"sha256": hashlib.sha256(data).hexdigest()}
    return out


def oracle_grid() -> dict:
    import warnings

    import numpy as np

    from optbench.core import make_problem

    def outcome(fn, x) -> bytes:
        try:
            y = fn(x.copy())
        except Exception as e:  # which inputs raise, and with what, is part of the compared behaviour
            return f"raises {type(e).__name__};".encode()
        if y is None:
            return b"None;"
        a = np.asarray(y)
        return f"{type(y).__name__} {a.dtype.str} {a.shape};".encode() + a.tobytes()

    out = {}
    for case, (name, params, seed) in ORACLE_CASES.items():
        oracle, _ = make_problem(name, params, seed)
        known = [m for m in (oracle.xstar, *(oracle.minimizers or ())) if m is not None]
        points = oracle_points(oracle.dim, known)
        g = oracle.constraint
        fns = {"value": oracle.value, "subgrad": oracle.subgrad, "grad": oracle.grad,
               "constraint-value": g and g.value, "constraint-subgrad": g and g.subgrad,
               "dist_to_opt": oracle.dist_to_opt}
        for kind, fn in fns.items():
            if fn is None:
                continue
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                data = b"".join(outcome(fn, x) for x in points)
            out[f"oracle/{case}/{kind}"] = {"sha256": hashlib.sha256(data).hexdigest()}
    return out


def sets_grid() -> dict:
    import warnings

    import numpy as np

    from optbench.core.sets import Ball, Box, FullSpace, Simplex

    inf, sub = float("inf"), 5e-324
    cases = {
        "fullspace-d1": FullSpace(1),
        "fullspace-d3": FullSpace(3),
        "box-d1": Box(np.array([-1.0]), np.array([2.0])),
        "box-d3": Box(np.array([-1.0, -0.0, -inf]), np.array([2.0, 0.0, inf])),
        "box-d3-signed-zero-subnormal": Box(np.array([0.0, -sub, 1.0]), np.array([-0.0, sub, 1.0])),
        "ball-d1": Ball(np.array([0.5]), 2.0),
        "ball-d3": Ball(np.array([1.0, -2.0, 0.5]), 1.5),
        "simplex-d1": Simplex(1),
        "simplex-d3": Simplex(3),
    }

    def outcome(fn, x, held) -> bytes:
        try:
            y = fn(x)
        except Exception as e:  # which inputs raise, and with what, is part of the compared behaviour
            return f"raises {type(e).__name__}: {e};".encode()
        a = np.asarray(y)
        shared = any(np.shares_memory(a, h) for h in (x, *held) if isinstance(h, np.ndarray))
        return f"{type(y).__name__} {a.dtype.str} {a.shape} shared={shared};".encode() + a.tobytes()

    out = {}
    for case, fset in cases.items():
        d = fset.dim
        held = [v for v in vars(fset).values() if isinstance(v, np.ndarray)]
        points = [x.copy() for x in oracle_points(d)]
        points += [list(range(1, d + 1)), np.zeros(d + 1), np.zeros((2, d))]
        for kind in ("project", "lmo"):
            fn = getattr(fset, kind)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                data = b"".join(outcome(fn, x, held) for x in points)
            out[f"sets/{case}/{kind}"] = {"sha256": hashlib.sha256(data).hexdigest()}
    return out


def cli_grid(tmp: str) -> dict:
    from catalog import make_configs
    from optbench.bench import cli
    from optbench.bench.rates import MODELS
    from optbench.core import make_problem

    os.environ.pop("OPT_SEED", None)
    config, trace = os.path.join(tmp, "config.json"), os.path.join(tmp, "trace.csv")

    def call(argv, with_trace=False, stream="stdout") -> dict:
        """Hash of one in-process call: exit code, masked output and the trace it wrote."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse's own exit on a bad command line
                code = e.code
        text = (out if stream == "stdout" else err).getvalue().replace(tmp, "<tmp>")
        lines = text.splitlines()
        if argv[0] == "run":
            lines = ["wall_time : -" if line.startswith("wall_time") else line for line in lines]
        elif argv[0] == "compare":
            lines = [line.rsplit(None, 1)[0] for line in lines]  # time_s is the last column
        data = f"exit {code}\n".encode() + "\n".join(lines).encode()
        if with_trace:
            with open(trace, "rb") as fh:
                data += fh.read()
        return {"sha256": hashlib.sha256(data).hexdigest()}

    def write(doc):
        with open(config, "w") as fh:
            json.dump(doc, fh)

    out = {}
    for seed in CLI_SEEDS:
        for canon in make_configs(seed, make_problem):
            N, key = canon.iterations, f"cli/{canon.key}/seed{seed}"
            write(dict(canon.doc, budget={"iterations": N}, output={"record_every": 1}))
            if os.path.exists(trace):
                os.remove(trace)  # a failed run must not leave its rates a stale file
            out[f"{key}/run"] = call(["run", "--config", config, "--trace", trace], with_trace=True)
            if canon.rate is not None:
                for model in MODELS:
                    out[f"{key}/rates-{model}"] = call(["rates", "--trace", trace, "--model", model])
            write(dict(canon.doc, budget={"iterations": N}, output={"record_every": N + 1}))
            out[f"{key}/compare"] = call(["compare", "--configs", config])

    write({"problem": "quad_diag", "method": "gd", "iterations": 3})
    out["cli/error/short-run"] = call(["run", "--config", config, "--trace", trace], with_trace=True)
    with open(config, "w") as fh:
        fh.write('{"problem": "abs1d",\n "method": }')
    errors = {"unknown-subcommand": ["optimise", "--config", config],
              "missing-config": ["run", "--config", os.path.join(tmp, "none.json")],
              "bad-json": ["run", "--config", config],
              **{f"short-trace-{model}": ["rates", "--trace", trace, "--model", model] for model in MODELS},
              **{f"window-{w}": ["rates", "--trace", trace, "--model", "sublinear", "--window", w]
                 for w in ("0", "nan", "1.5")}}
    for name, argv in errors.items():
        out[f"cli/error/{name}"] = call(argv, stream="stderr")
    write({"problem": "nope", "method": "gd", "iterations": 3})
    out["cli/error/unknown-problem"] = call(["run", "--config", config], stream="stderr")
    not_traces = {"config": {"problem": "quad_diag", "method": "gd", "iterations": 3}, "list": [1, 2],
                  "row": {"rows": [{"iter": 1}]}}
    for name, doc in not_traces.items():
        write(doc)
        out[f"cli/error/rates-json-{name}"] = call(["rates", "--trace", config, "--model", "sublinear"],
                                                   stream="stderr")
    with open(trace, "w") as fh:
        fh.write("iter,f_value,f_gap,dist_to_opt,grad_norm,step_size,oracle_calls\n"
                 "0,1,1,,,0,1\n1,abc,0.5,,,0.5,2\n2,0.25,0.25,,,0.5,3\n")
    out["cli/error/rates-csv-bad-cell"] = call(["rates", "--trace", trace, "--model", "sublinear"], stream="stderr")
    for name, doc in CLI_NAN_RUNS.items():
        write(doc)
        out[f"cli/nan/{name}"] = call(["run", "--config", config, "--trace", trace], with_trace=True)
    out["cli/list-methods"] = call(["list-methods"])
    return out


# name -> a config whose iterates overflow to inf and then NaN before the run's last iteration
CLI_NAN_RUNS = {
    "sgd-gamma-1": {"problem": {"name": "quad_diag", "params": {"lambdas": [10, 1]}},
                    "noise": {"kind": "additive_stoch_grad", "sigma": 0.1},
                    "method": {"name": "sgd", "params": {"gamma": 1.0}}, "iterations": 1000},
    "const_subgrad-h-1e308": {"problem": "quad_diag", "method": {"name": "const_subgrad", "params": {"h": 1e308}},
                              "iterations": 50},
}


_PARSE_QUAD = {"name": "quad_diag", "params": {"lambdas": [2, 1]}}
# kind -> (a valid config's fields, the same with ints for floats, its mode key)
PARSE_NOISE = {
    "none": ({}, {}, "mode"),
    "absolute_grad": ({"delta": 0.1, "mode": "random_direction"}, {"delta": 1}, "mode"),
    "relative_grad": ({"alpha": 0.25, "mode": "grow"}, {"alpha": 0}, "mode"),
    "additive_stoch_grad": ({"sigma": 0.5, "distribution": "student_t3"}, {"sigma": 2}, "distribution"),
    "zo_bounded": ({"delta": 0.1, "mode": "random"}, {"delta": 1}, "mode"),
    "zo_stoch": ({"delta_tilde": 0.01}, {"delta_tilde": 1}, "mode"),
}
# problem -> (a parameter made non-finite, a bad value); None where the problem has no parameters
PARSE_PROBLEMS = {
    "abs1d": None,
    "l1_system": ("d", {"d": 6, "m": 4}),
    "norm2": ("a", {"a": "x"}),
    "quad_diag": ("lambdas", {"lambdas": [-1, 1]}),
    "fw_box": None,
    "degenerate3": ("l1", {"l1": 0.1, "l2": 1.0}),
    "rosenbrock": None,
    "nesterov_skokov_toy": None,
    "phase_retrieval": ("m", {"m": 0}),
    "slp": ("rho", {"rho": -1}),
    "logistic_small": ("box_radius", {"box_radius": -1}),
}
_STOCH = {"kind": "additive_stoch_grad", "sigma": 1.0}
_ZO = {"kind": "zo_stoch", "delta_tilde": 0.01}
# name -> config changes; each number is not a JSON number, or not whole where a whole number is meant
PARSE_NUMBERS = {
    "iterations-5.9": {"iterations": 5.9},
    "iterations-5.0": {"iterations": 5.0},
    "iterations-list": {"iterations": [3]},
    "iterations-quoted": {"iterations": "5"},
    "max_oracle_calls-2.5": {"budget": {"max_oracle_calls": 2.5}},
    "record_every-1.5": {"output": {"record_every": 1.5}},
    "seed-abc": {"problem": dict(_PARSE_QUAD, seed="abc")},
    "seed-2.5": {"problem": dict(_PARSE_QUAD, seed=2.5)},
    "seed-negative": {"problem": dict(_PARSE_QUAD, seed=-1)},
    "l1_system-d-2.7": {"problem": {"name": "l1_system", "params": {"d": 2.7, "m": 4}}},
    "phase_retrieval-n-5.0": {"problem": {"name": "phase_retrieval", "params": {"n": 5.0}}},
    "zo_stoch-delta_tilde-null": {"noise": {"kind": "zo_stoch", "delta_tilde": None}},
    "relative_grad-alpha-quoted": {"noise": {"kind": "relative_grad", "alpha": "0.1"}},
    "sgd-batch-1.5": {"noise": _STOCH, "method": {"name": "sgd", "params": {"gamma": 0.1, "batch": 1.5}}},
    "sgd-batch-2.0": {"noise": _STOCH, "method": {"name": "sgd", "params": {"gamma": 0.1, "batch": 2.0}}},
    "zo_sgd-beta-2.5": {"noise": {"kind": "zo_stoch", "delta_tilde": 0.01},
                        "method": {"name": "zo_sgd", "params": {"gamma": 0.1, "beta": 2.5}}},
    "restarted_switching-stage_cap-3.5": {"problem": "slp", "method": {
        "name": "restarted_switching", "params": {"theta0": 2.0, "eps": 0.1, "stage_cap": 3.5}}},
    "x0-quoted": {"x0": ["1", "2"]},
    "quad_diag-lambdas-quoted": {"problem": {"name": "quad_diag", "params": {"lambdas": ["10", "1"]}}},
    "quad_diag-lambdas-bool": {"problem": {"name": "quad_diag", "params": {"lambdas": [True, 1]}}},
    "quad_diag-shift-quoted": {"problem": {"name": "quad_diag", "params": {"lambdas": [2, 1], "shift": ["0.5", "0"]}}},
    "slp-rho-quoted": {"problem": {"name": "slp", "params": {"rho": "2"}}},
    "degenerate3-l1-bool": {"problem": {"name": "degenerate3", "params": {"l1": True}}},
    "logistic_small-box_radius-quoted": {"problem": {"name": "logistic_small", "params": {"box_radius": "3"}}},
    "absolute_grad-v-quoted": {"noise": {"kind": "absolute_grad", "delta": 0.1, "v": ["0.05", "0"]}},
    "norm2-a-scalar": {"problem": {"name": "norm2", "params": {"a": 5}}},
    "norm2-a-bool": {"problem": {"name": "norm2", "params": {"a": True}}},
    # tau whose estimator scale dim/(2 tau) is finite (1e-308, and tau_199 = 0.2 * 200^-40) or not
    "zo_sgd-tau-1e-308": {"noise": _ZO, "method": {"name": "zo_sgd", "params": {"gamma": 0.01, "tau": 1e-308}}},
    "zo_sgd-tau-1e-320": {"noise": _ZO, "method": {"name": "zo_sgd", "params": {"gamma": 0.01, "tau": 1e-320}}},
    "zo_sgd-tau_exponent-40": {"noise": _ZO, "iterations": 200, "method": {
        "name": "zo_sgd", "params": {"gamma": 0.01, "tau0": 0.2, "tau_exponent": 40}}},
    "zo_sgd-tau_exponent-400": {"noise": _ZO, "iterations": 200, "method": {
        "name": "zo_sgd", "params": {"gamma": 0.01, "tau0": 0.2, "tau_exponent": 400}}},
}
# name -> config changes: a value of the wrong shape or type that is not a number case
PARSE_TYPES = {
    "absolute_grad-v-short": {"noise": {"kind": "absolute_grad", "delta": 0.1, "v": [0.1]}},
    "absolute_grad-v-long": {"noise": {"kind": "absolute_grad", "delta": 0.1, "v": [0.05, 0.05, 0.05]}},
    "absolute_grad-v-2d": {"noise": {"kind": "absolute_grad", "delta": 0.1, "v": [[0.05, 0.05]]}},
    "absolute_grad-random_direction-v": {"noise": {"kind": "absolute_grad", "delta": 0.1,
                                                   "mode": "random_direction", "v": [5, 5]}},
    "trace_path-int": {"output": {"trace_path": 5}},
    "trace_path-list": {"output": {"trace_path": ["a.csv"]}},
    "trace_path-bool": {"output": {"trace_path": True}},
    "x0-long": {"x0": [1.0, 2.0, 3.0]},
}
# name -> config changes that give a method a key its run does not read
PARSE_KEYS = {
    "const_subgrad-tol": {"problem": "abs1d", "method": {"name": "const_subgrad", "params": {"h": 0.1, "tol": 1000}}},
    "gd_rel_adaptive-L": {"noise": {"kind": "relative_grad", "alpha": 0.25},
                          "method": {"name": "gd_rel_adaptive", "params": {"L": 1e-300}}},
}


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def parse_grid() -> dict:
    from optbench.bench.config import parse_config

    def parse(key, doc):
        def run():
            return {"sha256": hashlib.sha256(repr(parse_config(json.dumps(doc))).encode()).hexdigest()}
        out[f"parse/{key}"] = _guarded(run)

    out = {}
    base = {"problem": _PARSE_QUAD, "method": "gd", "iterations": 5}
    for kind, (fields, ints, mode_key) in PARSE_NOISE.items():
        valid = dict(fields, kind=kind)
        cases = {"valid": valid, "unknown-key": dict(valid, bogus=1), "bad-mode": dict(valid, **{mode_key: "bogus"}),
                 "ints": dict(valid, **ints), "v-without-mode": _without(valid, "mode") | {"v": [0.1, 0.0]},
                 **{f"missing-{name}": _without(valid, name) for name in fields}}
        for case, noise in cases.items():
            parse(f"noise/{kind}/{case}", dict(base, noise=noise))
    base = {"method": "polyak_subgrad", "iterations": 5}
    for name, bad in PARSE_PROBLEMS.items():
        cases = {"defaults": {}, "unknown-param": {"bogus": 1}}
        if bad is not None:
            cases.update({"non-finite": {bad[0]: float("nan")}, "bad-value": bad[1]})
        for case, params in cases.items():
            parse(f"problem/{name}/{case}", dict(base, problem={"name": name, "params": params}))
    parse("problem/norm2/d-beside-a", dict(base, problem={"name": "norm2", "params": {"a": [1, 2], "d": 7}}))
    for case, changes in PARSE_NUMBERS.items():
        parse(f"number/{case}", {**base, "problem": _PARSE_QUAD, **changes})
    for case, changes in PARSE_KEYS.items():
        parse(f"key/{case}", {**base, "problem": _PARSE_QUAD, **changes})
    for case, changes in PARSE_TYPES.items():
        parse(f"type/{case}", {**base, "problem": _PARSE_QUAD, **changes})
    return out


# SGD step-rule kind -> a valid rule's keys on quad_diag [2, 1], which has mu = 1 and no M
VARIANT_RULES = {
    "const": {"gamma": 0.1},
    "budget_const": {"R": 1.0, "M": 2.0},
    "inv_k": {"mu": 1.0},
    "adagrad_norm": {"R": 1.0},
    "decay": {"gamma0": 0.3, "eta": 0.7},
}
# name -> (problem, method, params): SGD rule kinds, problem constants, Frank-Wolfe rules,
# restarted-switching stage caps below and above the 3 iterations
VARIANT_CASES = {
    "sgd/default-kind": (_PARSE_QUAD, "sgd", {"gamma": 0.1}),
    "sgd/unknown-kind": (_PARSE_QUAD, "sgd", {"step_rule": "bogus", "gamma": 0.1}),
    "sgd/null-kind": (_PARSE_QUAD, "sgd", {"step_rule": None, "gamma": 0.1}),
    "sgd/list-kind": (_PARSE_QUAD, "sgd", {"step_rule": ["const"], "gamma": 0.1}),
    "sgd/const/other-kinds-keys": (_PARSE_QUAD, "sgd", {"gamma": 0.1, "R": 5.0, "eta": 0.9}),
    "sgd/const/bad-value": (_PARSE_QUAD, "sgd", {"gamma": -1.0}),
    "sgd/decay/bad-value": (_PARSE_QUAD, "sgd", {"step_rule": "decay", "gamma0": 0.3, "eta": 0.4}),
    "sgd/uniform/with-tail_fraction": (_PARSE_QUAD, "sgd", {"gamma": 0.1, "averaging": "uniform",
                                                            "tail_fraction": 0.25}),
    "zo_sgd/tau0/with-tau": (_PARSE_QUAD, "zo_sgd", {"gamma": 0.01, "tau0": 0.2, "tau": 0.01}),
    "zo_sgd/tau/with-tau_exponent": (_PARSE_QUAD, "zo_sgd", {"gamma": 0.01, "tau": 0.01, "tau_exponent": 0.5}),
    "zo_sgd/const/other-kinds-keys": (_PARSE_QUAD, "zo_sgd", {"gamma": 0.01, "tau": 0.01, "gamma0": 0.3}),
    "const_subgrad/h/with-R": (_PARSE_QUAD, "const_subgrad", {"h": 0.1, "R": 1.0}),
    "const_subgrad/h/with-M": (_PARSE_QUAD, "const_subgrad", {"h": 0.1, "M": 2.0}),
    "sgd/budget_const/missing-R-and-M": (_PARSE_QUAD, "sgd", {"step_rule": "budget_const"}),
    "sgd/budget_const/fw_box-fills-M": ("fw_box", "sgd", {"step_rule": "budget_const", "R": 1.0}),
    "sgd/budget_const/fw_box-null-M": ("fw_box", "sgd", {"step_rule": "budget_const", "R": 1.0, "M": None}),
    "sgd/inv_k/fw_box-fills-mu": ("fw_box", "sgd", {"step_rule": "inv_k"}),
    "sgd/inv_k/fw_box-null-mu": ("fw_box", "sgd", {"step_rule": "inv_k", "mu": None}),
    "sgd/inv_k/lacks-mu": ("nesterov_skokov_toy", "sgd", {"step_rule": "inv_k"}),
    "sgd/inv_k/lacks-mu-null": ("nesterov_skokov_toy", "sgd", {"step_rule": "inv_k", "mu": None}),
    "frank_wolfe/default-kind": ("fw_box", "frank_wolfe", {}),
    "frank_wolfe/classic": ("fw_box", "frank_wolfe", {"step_rule": "classic"}),
    "frank_wolfe/classic/with-L": ("fw_box", "frank_wolfe", {"step_rule": "classic", "L": 2.0}),
    "frank_wolfe/short": ("fw_box", "frank_wolfe", {"step_rule": "short", "L": 3.0}),
    "frank_wolfe/short/missing-L": ("fw_box", "frank_wolfe", {"step_rule": "short"}),
    "frank_wolfe/short/null-L": ("fw_box", "frank_wolfe", {"step_rule": "short", "L": None}),
    "frank_wolfe/short/quoted-L": ("fw_box", "frank_wolfe", {"step_rule": "short", "L": "2"}),
    "frank_wolfe/short/bad-L": ("fw_box", "frank_wolfe", {"step_rule": "short", "L": -1.0}),
    "frank_wolfe/unknown-kind": ("fw_box", "frank_wolfe", {"step_rule": "bogus"}),
    "frank_wolfe/null-kind": ("fw_box", "frank_wolfe", {"step_rule": None}),
    "frank_wolfe/list-kind": ("fw_box", "frank_wolfe", {"step_rule": ["short"]}),
    "restarted_switching/no-stage_cap": ("slp", "restarted_switching", {"eps": 0.05, "theta0": 1.0, "alpha": 0.5}),
    "restarted_switching/stage_cap-2": ("slp", "restarted_switching",
                                        {"eps": 0.05, "theta0": 1.0, "alpha": 0.5, "stage_cap": 2}),
    "restarted_switching/stage_cap-100": ("slp", "restarted_switching",
                                          {"eps": 0.05, "theta0": 1.0, "alpha": 0.5, "stage_cap": 100}),
}
MOMENTUM_VARIANTS = ("heavy_ball", "chebyshev", "nesterov_sc", "nesterov_cvx", "taylor_drori")
# case -> (problem, params); rosenbrock has neither L nor mu, quad_diag [2, 1] has L = 2 and mu = 1
MOMENTUM_CASES = {
    "from-problem": (_PARSE_QUAD, {}),
    "null-mu": (_PARSE_QUAD, {"mu": None}),
    "missing-L": ("rosenbrock", {}),
    "missing-mu": ("rosenbrock", {"L": 2.0}),
    "mu-zero": ("rosenbrock", {"L": 2.0, "mu": 0.0}),
    "mu-equals-L": ("rosenbrock", {"L": 2.0, "mu": 2.0}),
    "mu-above-L": ("rosenbrock", {"L": 2.0, "mu": 3.0}),
}


def variant_grid(tmp: str) -> dict:
    """``parse/variant/...``: each method variant's keys parsed, then run for 3 iterations."""
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment

    path = os.path.join(tmp, "trace.json")
    noises = {"sgd": _STOCH, "zo_sgd": _ZO}
    cases = dict(VARIANT_CASES)
    for (method, noise), (kind, keys) in itertools.product(noises.items(), VARIANT_RULES.items()):
        rule = dict(keys, step_rule=kind)
        cases[f"{method}/{kind}/valid"] = (_PARSE_QUAD, method, rule)
        for name, value in keys.items():
            cases[f"{method}/{kind}/missing-{name}"] = (_PARSE_QUAD, method, _without(rule, name))
            cases[f"{method}/{kind}/null-{name}"] = (_PARSE_QUAD, method, dict(rule, **{name: None}))
            cases[f"{method}/{kind}/quoted-{name}"] = (_PARSE_QUAD, method, dict(rule, **{name: str(value)}))
    for variant, (case, (problem, params)) in itertools.product(MOMENTUM_VARIANTS, MOMENTUM_CASES.items()):
        cases[f"momentum/{variant}/{case}"] = (problem, variant, params)

    out = {}
    for key, (problem, method, params) in cases.items():
        doc = {"problem": problem, "method": {"name": method, "params": params}, "iterations": 3,
               "output": {"record_x": True}}
        if method in noises:
            doc["noise"] = noises[method]

        def run(doc=doc):
            spec = parse_config(json.dumps(doc))
            _, summary = run_experiment(spec, trace_path=path)
            with open(path, "rb") as fh:
                data = repr(spec).encode() + fh.read()
            return {"sha256": hashlib.sha256(data).hexdigest(), "oracle_calls": summary["oracle_calls"]}

        out[f"parse/variant/{key}"] = _guarded(run)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = os.path.abspath(argv[0])
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "benchmarks")]
    with tempfile.TemporaryDirectory() as tmp:
        digests = {**catalog_grid(tmp), **zero_grid(tmp), **sgd_zo_grid(tmp), **zo_chunk_grid(tmp), **stop_grid(tmp),
                   **estimator_grid(), **csv_grid(tmp), **json_grid(tmp), **cli_grid(tmp), **parse_grid(), **variant_grid(tmp),
                   **x0_grid(), **oracle_grid(), **sets_grid(), **subgrad_grid(tmp), **switch_grid(tmp),
                   **set_grid(tmp), **diverge_grid(tmp), **edge_grid(tmp), **rec_grid(tmp), **matrix_grid(tmp)}
    json.dump(digests, sys.stdout, indent=0, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
