"""Command-line benchmark harness.

Subcommands:

* ``run --config <path> [--trace <path>]``  -- run one experiment
* ``rates --trace <path> --model <sublinear|geometric> [--window <frac>]``
* ``compare --configs <paths...>``          -- summary table over configs
* ``list-problems`` / ``list-methods``

Exit codes: 0 success, 2 validation error, 1 runtime failure.  The
``OPT_SEED`` environment variable overrides the config seed when set; it
is read on every call, before the config is parsed, so that parsing
builds the spec at the seed it runs with and the run takes that build.

The parser is built on the first :func:`main` call and reused by every
later call in the process.  It holds no per-call state: each call parses
into a fresh namespace, and the subcommand handlers look ``parse_config``,
``run_experiment``, ``read_trace`` and ``fit_rate`` up as module globals
when they run.

Importing this module loads no method module.  ``run`` and ``compare``
import each config's method module when the registry builds the method
(at parse time); ``list-methods`` imports all six.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from ..core.problems import problem_doc, problem_names
from .config import ConfigError, parse_config
from .rates import MODELS, InsufficientDataError, fit_rate
from .registry import method_entry, method_names
from .runner import run_experiment
from .tracefile import read_trace


def _load_spec(path: str):
    """The config at ``path``, parsed and built at its seed or ``OPT_SEED``'s."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    env_seed = os.environ.get("OPT_SEED")
    seed = None
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"OPT_SEED must be an integer, got {env_seed!r}") from None
        if seed < 0:
            raise ConfigError(f"OPT_SEED must be >= 0, got {env_seed!r}")
    return parse_config(text, seed)


def _fmt_opt(v, spec="{:.6g}"):
    return "-" if v is None else spec.format(v)


def _cmd_run(args) -> int:
    spec = _load_spec(args.config)
    _, summary = run_experiment(spec, trace_path=args.trace)
    print(f"problem      : {spec.problem_name} (seed {spec.seed})")
    print(f"method       : {spec.method_name}")
    print(f"status       : {summary['status']}")
    print(f"final_gap    : {_fmt_opt(summary['final_gap'], '{:.12g}')}")
    print(f"final_dist   : {_fmt_opt(summary['final_dist'], '{:.12g}')}")
    print(f"oracle_calls : {summary['oracle_calls']}")
    print(f"wall_time    : {summary['wall_time']:.3f}s")
    return 0


def _cmd_rates(args) -> int:
    if not 0 < args.window <= 1:  # also false for NaN
        raise ConfigError(f"--window must lie in (0, 1], got {args.window:g}")
    trace = read_trace(args.trace)
    fit = fit_rate(trace, args.model, args.window)
    label = "p" if args.model == "sublinear" else "q"
    print(f"model={fit.model} {label}={fit.estimate:.6g} r2={fit.r_squared:.6g} window={fit.window:g}")
    return 0


def _cmd_compare(args) -> int:
    rows = [("config", "problem", "method", "status", "final_gap", "final_dist", "calls", "time_s")]
    for path in args.configs:
        spec = _load_spec(path)
        _, s = run_experiment(spec)
        rows.append((os.path.basename(path), spec.problem_name, spec.method_name,
                     str(s["status"]), _fmt_opt(s["final_gap"]), _fmt_opt(s["final_dist"]),
                     str(s["oracle_calls"]), f"{s['wall_time']:.3f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


def _cmd_list_problems(args) -> int:
    for name in problem_names():
        print(f"{name:22s} {problem_doc(name)}")
    return 0


def _cmd_list_methods(args) -> int:
    for name in method_names():
        print(f"{name:22s} {method_entry(name).doc}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optbench",
        description="optimization method benchmark harness with convergence-rate checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--trace", default=None, help="override the config's trace path")
    p_run.set_defaults(fn=_cmd_run)

    p_rates = sub.add_parser("rates", help="fit an empirical rate to a trace file")
    p_rates.add_argument("--trace", required=True)
    p_rates.add_argument("--model", required=True, choices=MODELS)
    p_rates.add_argument("--window", type=float, default=0.5)
    p_rates.set_defaults(fn=_cmd_rates)

    p_cmp = sub.add_parser("compare", help="run several configs and print a summary table")
    p_cmp.add_argument("--configs", nargs="+", required=True)
    p_cmp.set_defaults(fn=_cmd_compare)

    sub.add_parser("list-problems", help="list catalog problems").set_defaults(fn=_cmd_list_problems)
    sub.add_parser("list-methods", help="list available methods").set_defaults(fn=_cmd_list_methods)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InsufficientDataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
