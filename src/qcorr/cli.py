"""Command-line front end.

Three subcommands:

``analyze``
    Static report for one state: mutual information, classical
    correlations, discord, the measurement-noncommutativity measure,
    spectrum, Bloch-form data, and the post-measurement covariance.
``evolve``
    Trajectory of the same quantities under a local flip channel on a
    uniform time grid, written as CSV plus a JSON metadata sidecar.
``oracle``
    Cross-validation sweep: closed-form values against the numeric
    search routes over a seeded sample of random valid states.

Exit codes: 0 success, 1 invalid input, 2 tolerance breach (oracle).
"""

import argparse
import contextlib
import json
import sys

import numpy as np

from .correlations import (
    CorrelationReport,
    SearchConfig,
    classical_correlations_bd,
    classical_correlations_numeric,
    discord,
    mutual_information,
    mutual_information_bd,
    report_bd,
)
from .decoherence import ChannelSpec, freezing_time, is_freezing_initial, trajectory
from .measurement import optimal_z, post_measurement_state, pvm_from_z, t_after_measurement
from .ncm import d_a_minimized, d_a_numeric, d_a_optimized
from .states import (
    BDState,
    FanoDecomposition,
    NotBellDiagonalError,
    StateError,
    bd_eigenvalues,
    bd_extract,
    bd_matrix,
    check_bd,
    fano_decompose,
    fano_vectors,
    load_state,
    sample_bd,
)

CSV_HEADER = "t,c1,c2,c3,I,J,D,dA,axis,T11,T22,T33"
# One row; "%.9g" spells a float exactly as _fmt does once -0.0 is folded.
_CSV_ROW = ",".join(["%.9g"] * 8 + ["%d"] + ["%.9g"] * 3) + "\n"
_CSV_CHUNK = 1024


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    value = float(x)
    if value == 0.0:
        value = 0.0  # fold -0.0 into one spelling
    return format(value, ".9g")


def _parse_bd(text: str) -> BDState:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers, e.g. 0.6,-0.6,0.6")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return BDState.from_seq(values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--bd", type=_parse_bd, metavar="C1,C2,C3",
                           help="Bell-diagonal coefficients, comma-separated, no spaces")
        group.add_argument("--state", metavar="PATH",
                           help="JSON file holding a state (dense matrix or coefficient triple)")

    def add_output_flags(p, default_format):
        p.add_argument("--format", choices=("csv", "json"), default=default_format,
                       help="output encoding (default: %(default)s)")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p_an = sub.add_parser("analyze", help="static correlation report for one state",
                          description="Compute the static correlation measures of a single state.")
    add_state_flags(p_an)
    add_output_flags(p_an, "json")
    p_an.add_argument("--seed", type=int, default=42, help="search seed (default: %(default)s)")
    p_an.set_defaults(func=cmd_analyze)

    p_ev = sub.add_parser("evolve", help="trajectory under a local flip channel",
                          description="Evolve a Bell-diagonal state under a one-axis flip "
                                      "channel acting on both qubits and tabulate the measures.")
    add_state_flags(p_ev)
    p_ev.add_argument("--k", type=int, choices=(1, 2, 3), default=3,
                      help="flip axis of the channel (default: %(default)s)")
    p_ev.add_argument("--gamma", type=float, default=1.0, help="decay rate (default: %(default)s)")
    p_ev.add_argument("--t-max", type=float, default=1.0, dest="t_max",
                      help="end of the time grid (default: %(default)s)")
    p_ev.add_argument("--steps", type=int, default=101,
                      help="number of grid points on [0, t-max] (default: %(default)s)")
    add_output_flags(p_ev, "csv")
    p_ev.set_defaults(func=cmd_evolve)

    p_or = sub.add_parser("oracle", help="closed-form vs numeric cross-validation",
                          description="Sample random valid Bell-diagonal states and compare "
                                      "every closed-form measure against its numeric route.")
    p_or.add_argument("--n", type=int, default=200, help="sample size (default: %(default)s)")
    p_or.add_argument("--seed", type=int, default=42, help="sampling and search seed")
    p_or.add_argument("--tol", type=float, default=1e-5,
                      help="largest acceptable gap (default: %(default)s)")
    p_or.add_argument("--bd", type=_parse_bd, metavar="C1,C2,C3",
                      help="check this single state instead of sampling")
    p_or.add_argument("--out", metavar="PATH", help="write the JSON gap report here")
    p_or.set_defaults(func=cmd_oracle)
    return parser


def _load_bd_or_dense(args):
    """Resolve the state flags to ('bd', BDState) or ('dense', matrix)."""
    if args.bd is not None:
        check_bd(args.bd.coeffs)
        return "bd", args.bd
    state = load_state(args.state)  # validated on parsing
    if isinstance(state, BDState):
        return "bd", state
    try:
        return "bd", bd_extract(state)
    except NotBellDiagonalError:
        return "dense", state


def _open_out(args):
    """The --out file, or stdout, which stays open after the with block."""
    return open(args.out, "w", newline="\n") if args.out else contextlib.nullcontext(sys.stdout)


def _write_text(args, text: str) -> None:
    with _open_out(args) as fh:
        fh.write(text)


def _write_csv(args, rows: np.ndarray) -> None:
    """Write CSV_HEADER and an (n, 12) array of rows in CSV_HEADER's column order.

    Rows are formatted and written in fixed chunks, so the whole text is
    never held at once.
    """
    rows = rows + 0.0  # fold -0.0 into one spelling
    with _open_out(args) as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(rows), _CSV_CHUNK):
            fh.writelines([_CSV_ROW % tuple(row) for row in rows[start:start + _CSV_CHUNK].tolist()])


def cmd_analyze(args) -> int:
    kind, state = _load_bd_or_dense(args)
    if kind == "bd":
        c = state.coeffs
        rep = report_bd(c)
        z, _, axis = optimal_z(c)
        d_a = d_a_optimized(c)
        eigs = bd_eigenvalues(c)
        fano = fano_decompose(bd_matrix(c))
        t_after = t_after_measurement(c, z)
    else:
        rho = state
        config = SearchConfig(seed=args.seed)
        j_val, z_best = classical_correlations_numeric(rho, config)
        i_val = mutual_information(rho)
        rep = CorrelationReport(
            mutual_info=i_val, classical=j_val, discord=i_val - j_val,
            optimal_axis=None, theta_star=None,
        )
        a, b, r = fano_vectors(rho)
        d_a = d_a_minimized(a, r, config)
        eigs = np.linalg.eigvalsh(rho)[::-1]
        fano = FanoDecomposition.from_vectors(a, b, r)
        axis = None
        t_after = fano_decompose(post_measurement_state(rho, pvm_from_z(z_best))).t

    if args.format == "csv":
        c = fano.t.diagonal() if kind == "dense" else state.coeffs
        _write_csv(args, np.array([[0.0, *c, rep.mutual_info, rep.classical, rep.discord, d_a,
                                    axis or 0, *t_after.diagonal()]]))
    else:
        payload = rep.to_dict()
        payload.update(
            d_a=d_a,
            eigenvalues=[float(x) for x in eigs],
            fano_a=[float(x) for x in fano.a],
            fano_b=[float(x) for x in fano.b],
            fano_t=[[float(x) for x in row] for row in fano.t],
            t_after_measurement=[[float(x) for x in row] for row in t_after],
        )
        if kind == "bd":
            payload["c"] = [float(x) for x in state.coeffs]
        _write_text(args, json.dumps(payload, indent=2, allow_nan=False) + "\n")

    summary = (
        f"I = {_fmt(rep.mutual_info)}  J = {_fmt(rep.classical)}  "
        f"D = {_fmt(rep.discord)}  dA = {_fmt(d_a)}"
    )
    if axis is not None:
        summary += f"  axis = {axis}"
    print(summary, file=sys.stderr)
    return 0


def cmd_evolve(args) -> int:
    kind, state = _load_bd_or_dense(args)
    if kind != "bd":
        print("error: evolve needs a Bell-diagonal initial state", file=sys.stderr)
        return 1
    if not (np.isfinite(args.t_max) and args.t_max >= 0):
        print("error: --t-max must be finite and nonnegative", file=sys.stderr)
        return 1
    if args.steps < 1:
        print("error: --steps must be at least 1", file=sys.stderr)
        return 1
    c0 = state.coeffs
    spec = ChannelSpec(k=args.k, gamma=args.gamma)
    grid = np.linspace(0.0, args.t_max, args.steps)
    points = trajectory(c0, spec, grid)

    frozen = is_freezing_initial(c0, spec)
    meta = {
        "c0": [float(x) for x in c0],
        "k": spec.k,
        "gamma": spec.gamma,
        "t_max": args.t_max,
        "steps": args.steps,
        "freezing": frozen,
    }
    if frozen:
        t_star = freezing_time(c0, spec)
        if t_star is not None:
            meta["t_star"] = t_star

    if args.format == "csv":
        _write_csv(args, np.column_stack([
            points.t, points.c, points.mutual_info, points.classical, points.discord, points.d_a,
            points.optimal_axis, np.diagonal(points.t_matrix_after, axis1=1, axis2=2),
        ]))
    else:
        columns = {
            "mutual_info": points.mutual_info, "classical": points.classical, "discord": points.discord,
            "optimal_axis": points.optimal_axis, "theta_star": points.theta_star, "t": points.t,
            "c": points.c, "d_a": points.d_a, "t_after_measurement": points.t_matrix_after,
        }
        rows = [dict(zip(columns, row)) for row in zip(*(col.tolist() for col in columns.values()))]
        _write_text(args, json.dumps({"meta": meta, "points": rows}, indent=2, allow_nan=False) + "\n")

    if args.out:
        with open(args.out + ".meta.json", "w", newline="\n") as fh:
            json.dump(meta, fh, indent=2, allow_nan=False)
            fh.write("\n")
    else:
        print(f"meta: {json.dumps(meta, allow_nan=False)}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return 1
    if not (np.isfinite(args.tol) and args.tol >= 0):
        print("error: --tol must be finite and nonnegative", file=sys.stderr)
        return 1
    if args.bd is not None:
        check_bd(args.bd.coeffs)
        states = [args.bd] * args.n
    else:
        states = sample_bd(args.n, args.seed)
    config = SearchConfig(seed=args.seed)

    gaps = {"J": 0.0, "D": 0.0, "dA": 0.0, "D_route": 0.0}
    worst = {key: None for key in gaps}
    for bd in states:
        c = bd.coeffs
        rho = bd_matrix(c)
        j_closed, _ = classical_correlations_bd(c)
        j_numeric, _ = classical_correlations_numeric(rho, config)
        i_val = mutual_information_bd(c)
        d_closed = discord(c, method="closed_bd")
        d_numeric = i_val - j_numeric
        d_route = discord(rho, method="via_mi", config=config)
        da_closed = d_a_optimized(c)
        da_numeric, _ = d_a_numeric(c, config)
        for key, gap in (
            ("J", abs(j_closed - j_numeric)),
            ("D", abs(d_closed - d_numeric)),
            ("dA", abs(da_closed - da_numeric)),
            ("D_route", abs(d_closed - d_route)),
        ):
            if gap > gaps[key]:
                gaps[key] = gap
                worst[key] = c

    labels = {
        "J": "classical correlations, closed vs numeric",
        "D": "discord, closed vs numeric",
        "dA": "noncommutativity, closed vs numeric",
        "D_route": "discord, closed vs mutual-information route",
    }
    print(f"oracle: {len(states)} states, seed {args.seed}, tolerance {args.tol:g}")
    passed = {key: gaps[key] <= args.tol for key in gaps}
    ok = all(passed.values())
    for key in gaps:
        print(f"  {labels[key]:<48s} max gap {gaps[key]:.3e}  {'ok' if passed[key] else 'FAIL'}")
        if not passed[key]:
            cw = worst[key]
            print(f"    worst state: c = ({_fmt(cw[0])}, {_fmt(cw[1])}, {_fmt(cw[2])})")
    if args.out:
        report = {
            "n": len(states), "seed": args.seed, "tol": args.tol,
            "gaps": {k: float(v) for k, v in gaps.items()},
            "passed": ok,
        }
        with open(args.out, "w", newline="\n") as fh:
            json.dump(report, fh, indent=2, allow_nan=False)
            fh.write("\n")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except StateError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
