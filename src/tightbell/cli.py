"""Command-line surface: reproducible analyses, machine-readable JSON reports.

Exit codes: 0 success, 1 invalid input or usage, 2 resource cap exceeded,
3 certification or verification failure.  ``bias quantum`` and ``face`` read
exit 3 from the float certificate, not from the classification, which is an
exact verdict whether or not the solve certifies.  Reports are deterministic
for fixed inputs and seed except for the ``timestamp`` field.  Exact rational
values are serialized as strings ("1/2"), certified numeric values as JSON
numbers; the ``provenance`` block says which is which so consumers never
compare across kinds without the declared tolerance.

Each subcommand handler returns ``(report, exit code)``.  ``main`` alone puts
``command`` and ``timestamp`` first (in every report but the game file of
``make``) and writes the report, to stdout or ``-o``.  The parser is built once
per process, on first use; calls share no state, since each parse fills a fresh
namespace and help and usage go to the ``sys.stdout``/``sys.stderr`` of the call.

The solver flags are the init fields of ``qsdp.SolveConfig``, in their order
and typed by their defaults; the config supplies the defaults and rejects
out-of-range values (exit 1).  The command line adds only the enumeration
caps, which the library refuses below 1 (exit 1).  A command takes only the
flags it reads: ``bias classical`` the pattern cap, ``bias quantum`` the
solver flags, ``face`` both and the vertex cap.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, fields
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


def _emit(report: dict, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            game.write_json(report, fh)
    else:
        game.write_json(report, sys.stdout)


def _solve_config(args) -> qsdp.SolveConfig:
    """The run's validated solver settings."""
    return qsdp.SolveConfig(**{f.name: getattr(args, f.name) for f in fields(qsdp.SolveConfig)})


def _add_output(p: argparse.ArgumentParser, func, report_command: str | None) -> None:
    """Add ``-o`` and the handler; ``main`` stamps its report unless ``report_command`` is None."""
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=func, report_command=report_command)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(qsdp.SolveConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _add_enum_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--enum-cap", type=int, default=classical.DEFAULT_ENUM_CAP,
                   dest="enum_cap", help="max strategy patterns to enumerate")


# the CLI's spellings that make_named does not take itself ("-" for "_" it does)
MAKE_NAMES = {"appendixd": "appendix_d"}


def cmd_make(args) -> tuple[dict, int]:
    g = game.make_named(MAKE_NAMES.get(args.name, args.name), args.n)
    try:
        classical.require_enumerable(min(g.m_a, g.m_b), classical.DEFAULT_ENUM_CAP)
    except TooLarge:
        sys.stderr.write(
            f"warning: enumeration side has {min(g.m_a, g.m_b)} inputs, "
            f"beyond the default cap of {classical.DEFAULT_ENUM_CAP} patterns\n"
        )
    return game.game_to_dict(g), EXIT_OK


def cmd_bias_classical(args) -> tuple[dict, int]:
    g = game.load_game(args.game)
    res = classical.classical_bias(g, enum_cap=args.enum_cap)
    return {
        "m_a": g.m_a,
        "m_b": g.m_b,
        "xi_c": str(res.xi_c),
        "winning_probability": str((1 + res.xi_c) / 2),
        "witness_alpha": list(res.witness.alpha),
        "witness_beta": list(res.witness.beta),
        "num_alpha_optimal": res.num_alpha_optimal,
        "enumerated_side": "bob" if res.swapped else "alice",
        "provenance": {"xi_c": "exact-rational"},
    }, EXIT_OK


def cmd_bias_quantum(args) -> tuple[dict, int]:
    cfg = _solve_config(args)
    g = game.load_game(args.game)
    res = qsdp.solve_quantum_bias(g, cfg)
    report = {
        "m_a": g.m_a,
        "m_b": g.m_b,
        "seed": cfg.seed,
        "restarts_used": res.restarts_used,
        "xi_c": None if res.xi_c is None else str(res.xi_c),
        **qsdp.certificate_to_dict(res),
        "provenance": {"xi_c": "exact-rational", "xi_q": "certified-numeric"},
    }
    # certified with no xi_c: the enumeration cap, not the solve, left it undecided
    code = EXIT_CAPPED if res.xi_c is None else EXIT_OK
    return report, code if res.certified else EXIT_UNCERTIFIED


def cmd_face(args) -> tuple[dict, int]:
    cfg = _solve_config(args)
    g = game.load_game(args.game)
    report = facegeom.face_report(
        g, enum_cap=args.enum_cap, vertex_cap=args.vertex_cap, solve_cfg=cfg
    )
    payload = facegeom.face_report_to_dict(report)
    suffix = "_corr" if args.space == "correlation" else "_full"
    out = {
        "seed": cfg.seed,
        **payload,
        "space": args.space,
        "dim": payload["dim" + suffix],
        "is_facet": payload["is_facet" + suffix],
    }
    out["provenance"] = {"xi_c": "exact-rational", "xi_q": "certified-numeric",
                         **payload["provenance"]}
    code = EXIT_OK if report.quantum.certified else EXIT_UNCERTIFIED
    return out, EXIT_CAPPED if report.truncated else code


def cmd_trivial_facet(args) -> tuple[dict, int]:
    sign = {"+": 1, "+1": 1, "-": -1, "-1": -1}.get(args.sign)
    if sign is None:
        raise GameFormatError(f"sign must be + or -, got {args.sign!r}")
    rep = facegeom.trivial_facet_check(args.ma, args.mb, args.x0, args.y0, sign)
    return {
        "m_a": args.ma,
        "m_b": args.mb,
        "x0": args.x0,
        "y0": args.y0,
        "sign": sign,
        "dim": rep.dim,
        "is_facet": rep.is_facet,
        "provenance": {"dim": "exact-integer-rank"},
    }, EXIT_OK


def _load_spec(path) -> nlc.NlcSpec:
    """The spec a spec file holds, or the one a game file's game factors through."""
    data = game.read_json(path)
    if isinstance(data, dict) and data.get("format") == nlc.NLC_FORMAT:
        return nlc.nlc_spec_from_dict(data)
    return nlc.spec_from_game(game.game_from_dict(data))


def cmd_nlc_spectrum(args) -> tuple[dict, int]:
    spec = _load_spec(args.file)
    a = nlc.hadamard_spectrum(spec)
    return {
        "n": spec.n,
        "spectrum": [str(v) for v in a.spectrum],
        "lambda_norm": str(a.lambda_norm),
        "k": a.k,
        "l": a.l,
        "xi_star": str(a.xi_star),
        "kl_dim_bound": a.kl_dim_bound,
        "provenance": {"spectrum": "exact-rational"},
    }, EXIT_OK


def cmd_nlc_bound(args) -> tuple[dict, int]:
    spec = _load_spec(args.file)
    bound = nlc.nlc_bias_bound(spec)
    return {
        "n": spec.n,
        "xi_star": str(bound.xi_star),
        "xi_c": str(bound.xi_c),
        "matches_classical": bound.matches_classical,
        "provenance": {"xi_star": "exact-rational", "xi_c": "exact-rational"},
    }, EXIT_OK


def _sweep(args, largest, point) -> dict:
    """The ``point(n)`` fields of an ``nlc g0`` or ``nlc corollary`` run.

    ``--n`` alone gives its one point; with ``--n-max`` the points of
    ``--n``..``--n-max`` come as a ``points`` list.  ``largest(n)`` is the
    run's largest value at n; from n = 2 on it rises with n and is at least
    4^(n-1) (below 2 the sweep's own checks refuse or the values are tiny).
    An empty range raises InvalidParameter, and a value past Python's limit
    on integer-to-string conversion raises TooLarge before any point is
    computed: beyond n = 2 * limit that needs no value at all.
    """
    n_max = args.n if args.n_max is None else args.n_max
    if n_max < args.n:
        raise InvalidParameter(f"--n-max {n_max} is below --n {args.n}")
    limit = sys.get_int_max_str_digits()
    if limit and n_max > 1 and (n_max > 2 * limit or largest(n_max) >= 10**limit):
        raise TooLarge(f"values at n = {n_max} pass {limit} decimal digits")
    points = [{"n": n, **point(n)} for n in range(args.n, n_max + 1)]
    return points[0] if args.n_max is None else {"points": points}


def _g0_point(n: int) -> dict:
    try:
        verified = nlc.g0_dimension(n).verified_value
    except TooLarge:
        verified = None
    return {"formula": nlc.g0_formula(n), "verified": verified}


def cmd_nlc_g0(args) -> tuple[dict, int]:
    points = _sweep(args, nlc.g0_formula, _g0_point)
    return {"provenance": {"verified": "exact-integer-rank"}, **points}, EXIT_OK


def cmd_nlc_corollary(args) -> tuple[dict, int]:
    report = _sweep(
        args,
        lambda n: nlc.corollary_bound(n).codim_bound_full,
        lambda n: asdict(nlc.corollary_bound(n)),
    )
    return report, EXIT_OK


@functools.cache
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
    _add_output(p, cmd_make, None)

    p = sub.add_parser("bias", help="classical (exact) or quantum (certified) bias")
    bsub = p.add_subparsers(dest="kind", required=True)
    p = bsub.add_parser("classical", help="exact classical bias by enumeration")
    p.add_argument("game")
    _add_enum_cap(p)
    _add_output(p, cmd_bias_classical, "bias classical")
    p = bsub.add_parser("quantum", help="certified quantum bias")
    p.add_argument("game")
    _add_solver_flags(p)
    _add_output(p, cmd_bias_quantum, "bias quantum")

    p = sub.add_parser("face", help="face dimensions, bounds, and facet verdicts")
    p.add_argument("game")
    p.add_argument("--space", choices=["full", "correlation"], default="full")
    _add_solver_flags(p)
    _add_enum_cap(p)
    p.add_argument("--vertex-cap", type=int, default=classical.DEFAULT_VERTEX_CAP,
                   dest="vertex_cap", help="max optimal vertices to store")
    _add_output(p, cmd_face, "face")

    p = sub.add_parser("trivial-facet", help="exact check of a |c_xy| <= 1 face")
    p.add_argument("--ma", type=int, required=True)
    p.add_argument("--mb", type=int, required=True)
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--y0", type=int, required=True)
    p.add_argument("--sign", required=True, help="+ or -")
    _add_output(p, cmd_trivial_facet, "trivial-facet")

    p = sub.add_parser("nlc", help="shared-input game analyses")
    nsub = p.add_subparsers(dest="nlc_command", required=True)
    for name, func in (("spectrum", cmd_nlc_spectrum), ("bound", cmd_nlc_bound)):
        p = nsub.add_parser(name)
        p.add_argument("file", help="game or shared-input spec JSON")
        _add_output(p, func, "nlc " + name)
    for name, func in (("g0", cmd_nlc_g0), ("corollary", cmd_nlc_corollary)):
        p = nsub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--n-max", type=int, default=None, dest="n_max",
                       help="emit a points array for n..n-max")
        _add_output(p, func, "nlc " + name)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        report, code = args.func(args)
        if args.report_command is not None:
            stamp = datetime.now(timezone.utc).isoformat()
            report = {"command": args.report_command, "timestamp": stamp, **report}
        _emit(report, args.output)
        return code
    except (TightBellError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, (TooLarge, Truncated)):
            return EXIT_CAPPED
        return EXIT_UNCERTIFIED if isinstance(exc, VerificationFailed) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
