"""Command-line front end: JSON in, JSON report out, seeded and reproducible.

Every command emits a single JSON report carrying the tool version, the
effective tolerance and seed, the result, and any residuals worth recording.
Timestamps and wall time are included unless ``--no-timestamp`` is given, so
that identical configurations produce byte-identical reports.

Exit status: 0 on success, 1 on domain errors (singular inputs, failed
reductions, ...), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from ._version import __version__
from .algebra import DEFAULT_TOL
from .errors import CstarRankError
from .hilbert_module import (
    ModuleSpace,
    ModuleTuple,
    dual_witness,
    gram,
    inner_right,
    is_unimodular,
    normalize_tuple,
    tuple_from_json_list,
    unimodularity_margin,
)
from .stable_rank import (
    PerturbationParams,
    bass_reduce,
    density_experiment,
    hv_pad,
    hv_perturb,
    sr_formula,
    warfield_forward,
)
from .algebra import Algebra


@dataclass
class RunConfig:
    """Effective configuration of one CLI invocation."""

    command: str
    input_path: str = None
    out_path: str = None
    eps: float = 0.1
    tol: float = DEFAULT_TOL
    seed: int = 0
    trials: int = 1
    max_retries: int = 40
    no_timestamp: bool = False
    extras: dict = None


def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstar-rank",
        description=(
            "Unimodularity checks, dual witnesses, stable-rank reductions and "
            "Monte-Carlo density experiments for matrix Hilbert C*-modules."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=_positive_float,
        # A string default goes through the same validator as the flag.
        default=os.environ.get("CSTAR_RANK_TOL", DEFAULT_TOL),
        help="invertibility tolerance (env CSTAR_RANK_TOL overrides the default)",
    )
    common.add_argument("--out", dest="out_path", default=None, help="write the report here instead of stdout")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamp and wall time so reports are byte-identical",
    )

    p = sub.add_parser("sr-formula", parents=[common], help="stable rank of the n x m matrix module")
    p.add_argument("--sr-a", type=_positive_int, required=True, help="stable rank of the base algebra")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)

    p = sub.add_parser("check", parents=[common], help="test a tuple for unimodularity")
    p.add_argument("--input", dest="input_path", required=True, help="JSON file with a module tuple")

    p = sub.add_parser("dual", parents=[common], help="dual witness of a unimodular tuple")
    p.add_argument("--input", dest="input_path", required=True)

    p = sub.add_parser("reduce", parents=[common], help="collapse the last entry of a unimodular tuple")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--eps", type=_positive_float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=_positive_int, default=40)

    p = sub.add_parser("pad", parents=[common], help="append the spectral bump that forces unimodularity")
    p.add_argument("--input", dest="input_path", required=True,
                   help='JSON file {"tuple": [...], "pad_with": [...]}; pad_with optional')
    p.add_argument("--eps", type=_positive_float, required=True)

    p = sub.add_parser("perturb", parents=[common], help="move a tuple onto a nearby unimodular one")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=_positive_int, default=40)

    p = sub.add_parser("density", parents=[common], help="Monte-Carlo unimodularity density estimate")
    p.add_argument("--blocks", type=_positive_int, nargs="+", required=True, help="base algebra block sizes")
    p.add_argument("--rows", type=_positive_int, required=True)
    p.add_argument("--cols", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True, help="tuple length")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("verify-suite", parents=[common], help="run the full acceptance battery")
    return parser


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_tuple(path) -> ModuleTuple:
    return tuple_from_json_list(_load_json(path))


def run(config: RunConfig) -> dict:
    """Dispatch one command and assemble its report (library errors propagate)."""
    started = time.perf_counter()
    report = {
        "command": config.command,
        "version": __version__,
        "tolerance": config.tol,
        "seed": config.seed,
        "result": None,
        "residuals": {},
    }

    if config.command == "sr-formula":
        report["result"] = sr_formula(
            config.extras["sr_a"], config.extras["n"], config.extras["m"]
        )

    elif config.command == "check":
        t = _load_tuple(config.input_path)
        margin = unimodularity_margin(t)
        report["result"] = {"unimodular": bool(margin > config.tol)}
        report["residuals"]["unimodularity_margin"] = margin

    elif config.command == "dual":
        t = _load_tuple(config.input_path)
        witness = dual_witness(t, config.tol)
        pairing = inner_right(witness[0], t[0])
        for k in range(1, len(t)):
            pairing = pairing + inner_right(witness[k], t[k])
        residual = (pairing - t.space.right_algebra_unit()).norm()
        report["result"] = {"witness": witness.to_json_list()}
        report["residuals"]["pairing_residual"] = residual

    elif config.command == "reduce":
        t = _load_tuple(config.input_path)
        params = PerturbationParams(
            eps=config.eps,
            tol=config.tol,
            max_retries=config.max_retries,
            seed=config.seed,
        )
        coeffs = bass_reduce(t, params)
        reduced = warfield_forward(t, coeffs)
        report["result"] = {
            "coefficients": coeffs.to_json_dict(),
            "reduced": reduced.to_json_list(),
            "reduced_unimodular": True,
        }
        report["residuals"]["reduced_margin"] = unimodularity_margin(reduced)

    elif config.command == "pad":
        data = _load_json(config.input_path)
        t = tuple_from_json_list(data["tuple"])
        if data.get("pad_with") is not None:
            u = tuple_from_json_list(data["pad_with"])
        else:
            u = ModuleTuple(tuple(t.space.standard_unimodular_tuple()))
        u = normalize_tuple(u, config.tol)
        padded = hv_pad(t, u, config.eps, config.tol)
        report["result"] = {"padded": padded.to_json_list(), "unimodular": True}
        report["residuals"]["padded_margin"] = unimodularity_margin(padded)

    elif config.command == "perturb":
        t = _load_tuple(config.input_path)
        params = PerturbationParams(
            eps=config.eps,
            tol=config.tol,
            max_retries=config.max_retries,
            seed=config.seed,
        )
        moved = hv_perturb(t, params)
        distance = (t - moved).norm()
        report["result"] = {
            "perturbed": moved.to_json_list(),
            "distance": distance,
            "distance_bound": math.sqrt(config.eps) + config.eps,
        }
        report["residuals"]["perturbed_margin"] = unimodularity_margin(moved)

    elif config.command == "density":
        space = ModuleSpace(
            Algebra(tuple(config.extras["blocks"])),
            config.extras["rows"],
            config.extras["cols"],
        )
        dens = density_experiment(
            space, config.extras["k"], config.trials, config.seed, config.tol
        )
        report["result"] = dens.to_json_dict()

    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown command {config.command!r}")

    elapsed = time.perf_counter() - started
    if not config.no_timestamp:
        report["timestamp"] = (
            datetime.datetime.now(datetime.timezone.utc).isoformat()
        )
        report["wall_time_s"] = elapsed
    return report


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _run_verify_suite(args) -> int:
    from .acceptance import run_all

    results = run_all()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name:<24} ({res.seconds:6.1f}s)  {res.details}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if args.out_path:
        summary = {
            "command": "verify-suite",
            "version": __version__,
            "criteria": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "details": r.details,
                    "seconds": r.seconds,
                }
                for r in results
            ],
        }
        with open(args.out_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "verify-suite":
        return _run_verify_suite(args)

    extras = {}
    if args.command == "sr-formula":
        extras = {"sr_a": args.sr_a, "n": args.n, "m": args.m}
    elif args.command == "density":
        extras = {
            "blocks": args.blocks,
            "rows": args.rows,
            "cols": args.cols,
            "k": args.k,
        }

    config = RunConfig(
        command=args.command,
        input_path=getattr(args, "input_path", None),
        out_path=args.out_path,
        eps=getattr(args, "eps", 0.1),
        tol=args.tol,
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 1),
        max_retries=getattr(args, "max_retries", 40),
        no_timestamp=args.no_timestamp,
        extras=extras,
    )

    try:
        report = run(config)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: bad input: {exc!r}", file=sys.stderr)
        return 2
    except CstarRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _emit(report, config.out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
