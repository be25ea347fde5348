"""Command-line surface: reproducible analyses, machine-readable JSON reports.

Exit codes: 0 success, 1 invalid input or usage, 2 resource cap exceeded,
3 certification or verification failure.  Reports are deterministic for fixed
inputs and seed except for the ``timestamp`` field.  Exact rational values are
serialized as strings ("1/2"), certified numeric values as JSON numbers; the
``provenance`` block says which is which so consumers never compare across
kinds without the declared tolerance.

The solver flags are the fields of ``qsdp.SolveConfig``, which supplies their
defaults and rejects out-of-range values (exit 1); the command line adds only
the enumeration caps, which the library refuses below 1 (exit 1).  A command
takes only the flags it reads: ``bias classical`` the pattern cap, ``bias
quantum`` the solver flags, ``face`` both and the vertex cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import classical, facegeom, game, nlc, qsdp
from .errors import (
    GameFormatError,
    InvalidParameter,
    TightBellError,
    TooLarge,
    Truncated,
    VerificationFailed,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAPPED = 2
EXIT_UNCERTIFIED = 3

_TOLERANCES = ("gap_tol", "feas_tol", "adv_tol", "change_tol")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solve_config(args) -> qsdp.SolveConfig:
    """The run's validated solver settings."""
    tols = {name: getattr(args, name) for name in _TOLERANCES}
    return qsdp.SolveConfig(seed=args.seed, restarts=args.restarts, **tols)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=qsdp.SolveConfig.seed, help="64-bit solver seed")
    p.add_argument("--restarts", type=int, default=qsdp.SolveConfig.restarts)
    for name in _TOLERANCES:
        p.add_argument("--" + name.replace("_", "-"), type=float, dest=name,
                       default=getattr(qsdp.SolveConfig, name))


def _add_enum_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--enum-cap", type=int, default=classical.DEFAULT_ENUM_CAP,
                   dest="enum_cap", help="max strategy patterns to enumerate")


# the CLI's spellings that make_named does not take itself ("-" for "_" it does)
MAKE_NAMES = {"appendixd": "appendix_d"}


def cmd_make(args) -> int:
    g = game.make_named(MAKE_NAMES.get(args.name, args.name), args.n)
    if 1 << min(g.m_a, g.m_b) > classical.DEFAULT_ENUM_CAP:
        sys.stderr.write(
            f"warning: enumeration side has {min(g.m_a, g.m_b)} inputs, "
            f"beyond the default cap of {classical.DEFAULT_ENUM_CAP} patterns\n"
        )
    if args.output:
        game.save_game(g, args.output)
    else:
        _emit(game.game_to_dict(g), None)
    return EXIT_OK


def cmd_bias_classical(args) -> int:
    g = game.load_game(args.game)
    res = classical.classical_bias(g, enum_cap=args.enum_cap)
    report = {
        "command": "bias classical",
        "timestamp": _timestamp(),
        "m_a": g.m_a,
        "m_b": g.m_b,
        "xi_c": str(res.xi_c),
        "winning_probability": str((1 + res.xi_c) / 2),
        "witness_alpha": list(res.witness.alpha),
        "witness_beta": list(res.witness.beta),
        "num_alpha_optimal": res.num_alpha_optimal,
        "enumerated_side": "bob" if res.swapped else "alice",
        "provenance": {"xi_c": "exact-rational"},
    }
    _emit(report, args.output)
    return EXIT_OK


def cmd_bias_quantum(args) -> int:
    cfg = _solve_config(args)
    g = game.load_game(args.game)
    res = qsdp.solve_quantum_bias(g, cfg)
    report = {
        "command": "bias quantum",
        "timestamp": _timestamp(),
        "m_a": g.m_a,
        "m_b": g.m_b,
        "seed": cfg.seed,
        "restarts_used": res.restarts_used,
        "xi_c": None if res.xi_c is None else str(res.xi_c),
        **qsdp.certificate_to_dict(res),
        "provenance": {"xi_c": "exact-rational", "xi_q": "certified-numeric"},
    }
    _emit(report, args.output)
    if res.classification == qsdp.UNDECIDED:
        return EXIT_UNCERTIFIED
    return EXIT_OK


def cmd_face(args) -> int:
    cfg = _solve_config(args)
    g = game.load_game(args.game)
    report = facegeom.face_report(
        g, enum_cap=args.enum_cap, vertex_cap=args.vertex_cap, solve_cfg=cfg
    )
    payload = facegeom.face_report_to_dict(report)
    payload["space"] = args.space
    if args.space == "correlation":
        payload["dim"] = payload["dim_corr"]
        payload["is_facet"] = payload["is_facet_corr"]
    else:
        payload["dim"] = payload["dim_full"]
        payload["is_facet"] = payload["is_facet_full"]
    out = {"command": "face", "timestamp": _timestamp(), "seed": cfg.seed, **payload}
    out["provenance"] = {
        "xi_c": "exact-rational",
        "xi_q": "certified-numeric",
        **payload["provenance"],
    }
    _emit(out, args.output)
    if report.truncated:
        return EXIT_CAPPED
    if report.classification == qsdp.UNDECIDED:
        return EXIT_UNCERTIFIED
    return EXIT_OK


def cmd_trivial_facet(args) -> int:
    sign = {"+": 1, "+1": 1, "-": -1, "-1": -1}.get(args.sign)
    if sign is None:
        raise GameFormatError(f"sign must be + or -, got {args.sign!r}")
    rep = facegeom.trivial_facet_check(args.ma, args.mb, args.x0, args.y0, sign)
    _emit(
        {
            "command": "trivial-facet",
            "timestamp": _timestamp(),
            "m_a": args.ma,
            "m_b": args.mb,
            "x0": args.x0,
            "y0": args.y0,
            "sign": sign,
            "dim": rep.dim,
            "is_facet": rep.is_facet,
            "provenance": {"dim": "exact-integer-rank"},
        },
        args.output,
    )
    return EXIT_OK


def _load_spec(path) -> nlc.NlcSpec:
    data = game.read_json(path)
    if isinstance(data, dict) and data.get("format") == nlc.NLC_FORMAT:
        return nlc.nlc_spec_from_dict(data)
    return nlc.spec_from_game(game.game_from_dict(data))


def _sweep(args, largest) -> range:
    """The n of an ``nlc g0`` or ``nlc corollary`` run: ``--n`` up to ``--n-max``.

    ``largest(n)`` is the run's largest value at n; from n = 2 on it rises
    with n and is at least 4^(n-1) (below 2 the sweep's own checks refuse or
    the values are tiny).  An empty range raises InvalidParameter, and a value
    past Python's limit on integer-to-string conversion raises TooLarge before
    the sweep starts: beyond n = 2 * limit that needs no value at all.
    """
    n_max = args.n if args.n_max is None else args.n_max
    if n_max < args.n:
        raise InvalidParameter(f"--n-max {n_max} is below --n {args.n}")
    limit = sys.get_int_max_str_digits()
    if limit and n_max > 1 and (n_max > 2 * limit or largest(n_max) >= 10**limit):
        raise TooLarge(f"values at n = {n_max} pass {limit} decimal digits")
    return range(args.n, n_max + 1)


def cmd_nlc(args) -> int:
    if args.nlc_command == "spectrum":
        spec = _load_spec(args.file)
        a = nlc.hadamard_spectrum(spec)
        _emit(
            {
                "command": "nlc spectrum",
                "timestamp": _timestamp(),
                "n": spec.n,
                "spectrum": [str(v) for v in a.spectrum],
                "lambda_norm": str(a.lambda_norm),
                "k": a.k,
                "l": a.l,
                "xi_star": str(a.xi_star),
                "kl_dim_bound": a.kl_dim_bound,
                "provenance": {"spectrum": "exact-rational"},
            },
            args.output,
        )
        return EXIT_OK
    if args.nlc_command == "bound":
        spec = _load_spec(args.file)
        a = nlc.hadamard_spectrum(spec)
        g = nlc.build_nlc(spec)
        bound = nlc.nlc_bias_bound(a, g)
        _emit(
            {
                "command": "nlc bound",
                "timestamp": _timestamp(),
                "n": spec.n,
                "xi_star": str(bound.xi_star),
                "xi_c": str(bound.xi_c),
                "matches_classical": bound.matches_classical,
                "provenance": {"xi_star": "exact-rational", "xi_c": "exact-rational"},
            },
            args.output,
        )
        return EXIT_OK
    if args.nlc_command == "g0":
        ns = _sweep(args, nlc.g0_formula)
        points = []
        for n in ns:
            try:
                verified = nlc.g0_dimension(n).verified_value
            except TooLarge:
                verified = None
            points.append({"n": n, "formula": nlc.g0_formula(n), "verified": verified})
        report = {
            "command": "nlc g0",
            "timestamp": _timestamp(),
            "provenance": {"verified": "exact-integer-rank"},
        }
        if args.n_max is not None:
            report["points"] = points
        else:
            report.update(points[0])
        _emit(report, args.output)
        return EXIT_OK
    # corollary
    ns = _sweep(args, lambda n: nlc.corollary_bound(n).codim_bound_full)
    points = [{"n": n, **asdict(nlc.corollary_bound(n))} for n in ns]
    report = {"command": "nlc corollary", "timestamp": _timestamp()}
    if args.n_max is not None:
        report["points"] = points
    else:
        report.update(points[0])
    _emit(report, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tightbell",
        description="Exact classical and certified quantum analysis of two-player XOR games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", help="write a named game file")
    names = [n.replace("_", "-") for n in game.NAMED_GAMES if n not in MAKE_NAMES.values()]
    p.add_argument("name", choices=sorted([*names, *MAKE_NAMES]))
    p.add_argument("--n", type=int, default=None, help="family size parameter")
    _add_common(p)
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("bias", help="classical (exact) or quantum (certified) bias")
    bsub = p.add_subparsers(dest="kind", required=True)
    p = bsub.add_parser("classical", help="exact classical bias by enumeration")
    p.add_argument("game")
    _add_enum_cap(p)
    _add_common(p)
    p.set_defaults(func=cmd_bias_classical)
    p = bsub.add_parser("quantum", help="certified quantum bias")
    p.add_argument("game")
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_bias_quantum)

    p = sub.add_parser("face", help="face dimensions, bounds, and facet verdicts")
    p.add_argument("game")
    p.add_argument("--space", choices=["full", "correlation"], default="full")
    _add_solver_flags(p)
    _add_enum_cap(p)
    p.add_argument("--vertex-cap", type=int, default=classical.DEFAULT_VERTEX_CAP,
                   dest="vertex_cap", help="max optimal vertices to store")
    _add_common(p)
    p.set_defaults(func=cmd_face)

    p = sub.add_parser("trivial-facet", help="exact check of a |c_xy| <= 1 face")
    p.add_argument("--ma", type=int, required=True)
    p.add_argument("--mb", type=int, required=True)
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--y0", type=int, required=True)
    p.add_argument("--sign", required=True, help="+ or -")
    _add_common(p)
    p.set_defaults(func=cmd_trivial_facet)

    p = sub.add_parser("nlc", help="shared-input game analyses")
    nsub = p.add_subparsers(dest="nlc_command", required=True)
    for name in ("spectrum", "bound"):
        np_ = nsub.add_parser(name)
        np_.add_argument("file", help="game or shared-input spec JSON")
        _add_common(np_)
        np_.set_defaults(func=cmd_nlc)
    for name in ("g0", "corollary"):
        np_ = nsub.add_parser(name)
        np_.add_argument("--n", type=int, required=True)
        np_.add_argument("--n-max", type=int, default=None, dest="n_max",
                         help="emit a points array for n..n-max")
        _add_common(np_)
        np_.set_defaults(func=cmd_nlc)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (TooLarge, Truncated) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAPPED
    except VerificationFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNCERTIFIED
    except (TightBellError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
