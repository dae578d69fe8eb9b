"""Command-line front end.

Commands:

* ``mu``       exact eigenvalue tables mu^(n)_k;
* ``acoeff``   exact coefficient rows a^k(n, p);
* ``diagrams`` enumerate n-loop diagrams and export DOT files;
* ``magic``    verify the operator magic identities at one loop order;
* ``verify``   run the numerical-quadrature verification suites;
* ``phi``      evaluate the ladder functions Phi^(1), Phi^(2).

Exit codes: 0 on success, 1 when a verification fails, 2 on usage
errors.  JSON outputs carry a versioned ``schema`` field; exact
rationals are serialized as "num/den" strings and decimals carry 30
significant digits (17 for floating-point results).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import diagrams as dg
from . import magic, polylog
from .quadrature import SUITES, run_suite

MAX_LOOPS_MU = 16
MAX_K = 64
MAX_LOOPS_DIAGRAMS = 5
MAX_LOOPS_MAGIC = 4


def _positive(text: str) -> float:
    """argparse type: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _out_path(text: str) -> str:
    """argparse type: a file path whose directory exists."""
    path = Path(text)
    if path.is_dir() or not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: not a file in an existing directory")
    return text


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _plain(obj):
    """The same JSON value in plain Python types: numpy scalars become int, float or bool."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "item"):
        return obj.item()
    return obj


def _cmd_mu(args: argparse.Namespace) -> int:
    if not (1 <= args.loops <= MAX_LOOPS_MU and 1 <= args.k_max <= MAX_K):
        print(f"mu: need 1 <= loops <= {MAX_LOOPS_MU} and 1 <= k-max <= {MAX_K}", file=sys.stderr)
        return 2
    payload = magic.mu_table_payload(args.loops, args.k_max)
    if args.format == "json":
        _write_or_print(magic.payload_to_json(payload), args.out)
    elif args.format == "csv":
        _write_or_print(magic.payload_to_csv(payload), args.out)
    else:
        lines = [f"mu^({args.loops})_k for k = 1..{args.k_max}"]
        for row in payload["values"]:
            lines.append(f"  k={row['k']:<3d} {row['exact']:>24s}   {row['decimal']}")
        _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_acoeff(args: argparse.Namespace) -> int:
    if not (1 <= args.loops <= MAX_LOOPS_MU and 0 <= args.k <= MAX_K):
        print(f"acoeff: need 1 <= loops <= {MAX_LOOPS_MU} and 0 <= k <= {MAX_K}", file=sys.stderr)
        return 2
    payload = magic.a_table_payload(args.loops, args.k)
    if args.format == "json":
        _write_or_print(magic.payload_to_json(payload), args.out)
    elif args.format == "csv":
        _write_or_print(magic.payload_to_csv(payload), args.out)
    else:
        lines = [f"a^{args.k}({args.loops}, p) for p = 0..{args.k}"]
        for row in payload["values"]:
            lines.append(f"  p={row['p']:<3d} {row['exact']:>24s}   {row['decimal']}")
        _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_diagrams(args: argparse.Namespace) -> int:
    if not (1 <= args.loops <= MAX_LOOPS_DIAGRAMS):
        print(f"diagrams: need 1 <= loops <= {MAX_LOOPS_DIAGRAMS}", file=sys.stderr)
        return 2
    ds = dg.enumerate_diagrams(args.loops)
    print(f"{len(ds)} distinct {args.loops}-loop box diagram(s)")
    if args.dot_dir:
        outdir = Path(args.dot_dir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"diagrams: cannot create {outdir}: {exc}", file=sys.stderr)
            return 2
        for i, d in enumerate(ds):
            name = f"boxdiag_n{args.loops}_{i}"
            (outdir / f"{name}.dot").write_text(dg.to_dot(d, name), encoding="utf-8")
        print(f"wrote {len(ds)} DOT file(s) to {outdir}")
    return 0


def _cmd_magic(args: argparse.Namespace) -> int:
    if not (1 <= args.loops <= MAX_LOOPS_MAGIC and 0 <= args.k_max <= MAX_K):
        print(f"magic: need 1 <= loops <= {MAX_LOOPS_MAGIC} and 0 <= k-max <= {MAX_K}", file=sys.stderr)
        return 2
    report = magic.verify_magic(args.loops, args.k_max)
    payload = {
        "schema": "boxmagic.magic-report/1",
        "loops": report.n,
        "k_max": report.k_max,
        "diagrams": report.diagram_count,
        "passed": report.passed,
        "failures": list(report.failures),
    }
    if args.json:
        _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"magic identities at {report.n} loop(s), k <= {report.k_max}: "
              f"{report.diagram_count} diagram(s), both generator families: {status}")
        for f in report.failures:
            print(f"  {f}")
    return 0 if report.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = run_suite(args.suite, radius=args.radius, nodes=args.nodes, tol=args.tol)
    except ValueError as exc:  # node count or budget, or a verification point on the wrong side of the cycle
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    payload = _plain(report.payload())
    payload["suite"] = args.suite
    if args.json:
        _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{c.name:16s} residual={c.residual:.3e}  tol={c.tolerance:.1e}  "
                  f"nodes={c.nodes}  {status}")
    return 0 if report.passed else 1


def _cmd_phi(args: argparse.Namespace) -> int:
    try:
        if args.level == 1:
            val = polylog.phi1(args.x, args.y, constant=args.constant)
        else:
            val = polylog.phi2(args.x, args.y)
    except ValueError as exc:
        print(f"phi: {exc}", file=sys.stderr)
        return 2
    print(f"{val:.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="boxmagic", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    mu = sub.add_parser("mu", help="exact eigenvalue table")
    mu.add_argument("--loops", "-n", type=int, required=True)
    mu.add_argument("--k-max", type=int, default=16)
    mu.add_argument("--format", choices=("text", "json", "csv"), default="text")
    mu.add_argument("--out", type=_out_path, default=None)
    mu.set_defaults(func=_cmd_mu)

    ac = sub.add_parser("acoeff", help="exact generator coefficient row")
    ac.add_argument("--loops", "-n", type=int, required=True)
    ac.add_argument("--k", type=int, required=True)
    ac.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ac.add_argument("--out", type=_out_path, default=None)
    ac.set_defaults(func=_cmd_acoeff)

    di = sub.add_parser("diagrams", help="enumerate box diagrams")
    di.add_argument("--loops", "-n", type=int, required=True)
    di.add_argument("--dot-dir", default=None, help="write DOT exports to this directory")
    di.set_defaults(func=_cmd_diagrams)

    mg = sub.add_parser("magic", help="verify the operator magic identities")
    mg.add_argument("--loops", "-n", type=int, required=True)
    mg.add_argument("--k-max", type=int, default=8)
    mg.add_argument("--json", action="store_true")
    mg.add_argument("--out", type=_out_path, default=None)
    mg.set_defaults(func=_cmd_magic)

    ve = sub.add_parser("verify", help="numerical verification suites")
    ve.add_argument("suite", choices=SUITES + ("all",))
    ve.add_argument("--radius", type=_positive, default=None)
    ve.add_argument("--nodes", type=int, default=None)
    ve.add_argument("--tol", type=_positive, default=None)
    ve.add_argument("--json", action="store_true")
    ve.add_argument("--out", type=_out_path, default=None)
    ve.set_defaults(func=_cmd_verify)

    ph = sub.add_parser("phi", help="evaluate the ladder functions")
    ph.add_argument("--level", type=int, choices=(1, 2), required=True)
    ph.add_argument("--x", type=float, required=True)
    ph.add_argument("--y", type=float, required=True)
    ph.add_argument("--constant", choices=tuple(polylog.PHI1_CONSTANTS), default="printed",
                    help="constant term of the level-1 function: printed (pi^3/3, the default) "
                         "or pi-squared (pi^2/3); only pi-squared agrees with the integral "
                         "representation of Phi^(1)")
    ph.set_defaults(func=_cmd_phi)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
