"""Command-line front end.

Commands:

* ``mu``       exact eigenvalue tables mu^(n)_k;
* ``acoeff``   exact coefficient rows a^k(n, p);
* ``diagrams`` enumerate n-loop diagrams and export DOT files;
* ``magic``    verify the operator magic identities at one loop order;
* ``verify``   run the numerical-quadrature verification suites;
* ``phi``      evaluate the ladder functions Phi^(L), L = 1..6.

Each command imports its own layer when it runs (``magic``, ``diagrams``,
``polylog``; for ``verify`` the quadrature layer and numpy) and ``json``
only for JSON output, so importing this module loads only the parser:
0.010 s instead of 0.044 s on a 2-core machine (README, "Start-up").

The reports of ``mu``, ``acoeff``, ``magic`` and ``verify`` are rendered and written
by `_report` alone: JSON, CSV or text, to ``--out PATH`` or standard output, in every
format.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage
errors, among them a failed write to a file or to standard output.
JSON outputs carry a versioned ``schema`` field; exact rationals are
serialized as "num/den" strings and decimals carry 30 significant
digits (17 for floating-point results).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

MAX_LOOPS_MU = 16
MAX_K = 64

# The checks of `quadrature.run_suite`, in its order (a test holds the two
# equal); listed here so that building the parser does not import numpy.
SUITES = ("normalization", "poisson", "lemma-zp", "collapse", "orthogonality", "conformal")

# What `boxmagic --help` says above the commands; the module docstring is for developers.
DESCRIPTION = """\
Exact eigenvalue and coefficient tables, box diagrams, the magic identities,
quadrature checks and the ladder functions Phi^(L) of the conformal four-point
integrals.  `boxmagic COMMAND --help` lists the options of a command.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors."""


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


def _write(path: str | Path, text: str) -> None:
    """Write a file; a failed write (disk full, a directory in the way) is a usage error: exit 2."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _stdout(op, *args) -> None:
    """Call op(*args), a write to or a flush of standard output.  A failure (a full disk, a closed
    pipe) exits 2, after pointing stdout at os.devnull so that the flush at exit cannot fail again."""
    try:
        op(*args)
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write <stdout>: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _emit(text: str, out: str | None = None) -> None:
    """Write text to the file `out`, or else to standard output; every command writes through here."""
    if out:
        _write(out, text)
    else:
        _stdout(sys.stdout.write, text)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help goes through `_emit`; argparse's own write swallows a failure."""

    def print_help(self, file=None):
        if file is None:
            _emit(self.format_help())
        else:
            super().print_help(file)


def _report(args: argparse.Namespace, payload: dict, text: str, csv: str | None = None) -> int:
    """Write a command's report in `args.format` to `args.out` or standard output: the payload as
    JSON, else `csv` or `text`.  The exit code is 1 when the payload says that it did not pass."""
    if args.format == "json":
        import json
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = csv
    _emit(text, args.out)
    return 0 if payload.get("passed", True) else 1


def _table(payload: dict, title: str, key: str) -> tuple[str, str]:
    """The text (lines `key=... exact decimal` under `title`) and the CSV of an exact table payload."""
    rows = payload["values"]
    return (f"{title}\n" + "".join(f"  {key}={r[key]:<3d} {r['exact']:>24s}   {r['decimal']}\n" for r in rows),
            f"{key},exact,decimal\n" + "".join(f"{r[key]},{r['exact']},{r['decimal']}\n" for r in rows))


def _cmd_mu(args: argparse.Namespace) -> int:
    from . import magic

    if not (1 <= args.loops <= MAX_LOOPS_MU and 1 <= args.k_max <= MAX_K):
        print(f"mu: need 1 <= loops <= {MAX_LOOPS_MU} and 1 <= k-max <= {MAX_K}", file=sys.stderr)
        return 2
    payload = magic.mu_table_payload(args.loops, args.k_max)
    return _report(args, payload, *_table(payload, f"mu^({args.loops})_k for k = 1..{args.k_max}", "k"))


def _cmd_acoeff(args: argparse.Namespace) -> int:
    from . import magic

    if not (1 <= args.loops <= MAX_LOOPS_MU and 0 <= args.k <= MAX_K):
        print(f"acoeff: need 1 <= loops <= {MAX_LOOPS_MU} and 0 <= k <= {MAX_K}", file=sys.stderr)
        return 2
    payload = magic.a_table_payload(args.loops, args.k)
    return _report(args, payload, *_table(payload, f"a^{args.k}({args.loops}, p) for p = 0..{args.k}", "p"))


def _cmd_diagrams(args: argparse.Namespace) -> int:
    from . import diagrams as dg

    if not (1 <= args.loops <= dg.MAX_LOOPS):
        print(f"diagrams: need 1 <= loops <= {dg.MAX_LOOPS}", file=sys.stderr)
        return 2
    ds = dg.enumerate_diagrams(args.loops)
    _emit(f"{len(ds)} distinct {args.loops}-loop box diagram(s)\n")
    if args.dot_dir:
        outdir = Path(args.dot_dir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"diagrams: cannot create {outdir}: {exc}", file=sys.stderr)
            return 2
        for i, d in enumerate(ds):
            name = f"boxdiag_n{args.loops}_{i}"
            _write(outdir / f"{name}.dot", dg.to_dot(d, name))
        _emit(f"wrote {len(ds)} DOT file(s) to {outdir}\n")
    return 0


def _cmd_magic(args: argparse.Namespace) -> int:
    from . import magic
    from .diagrams import MAX_LOOPS

    if not (1 <= args.loops <= MAX_LOOPS and 0 <= args.k_max <= MAX_K):
        print(f"magic: need 1 <= loops <= {MAX_LOOPS} and 0 <= k-max <= {MAX_K}", file=sys.stderr)
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
    status = "PASS" if report.passed else "FAIL"
    return _report(args, payload, f"magic identities at {report.n} loop(s), k <= {report.k_max}: "
                   f"{report.diagram_count} diagram(s), both generator families: {status}\n"
                   + "".join(f"  {f}\n" for f in report.failures))


def _cmd_verify(args: argparse.Namespace) -> int:
    from .quadrature import run_suite

    try:
        checks = run_suite(args.suite, radius=args.radius, nodes=args.nodes, tol=args.tol)
    except (ValueError, ArithmeticError) as exc:  # node count or budget, a point on the wrong side
        # of the cycle, or a radius so extreme that a chart or an integrand leaves the float range
        where = "" if args.radius is None else f" at radius {args.radius:g}"
        print(f"verify: {args.suite}{where}: {exc}", file=sys.stderr)
        return 2
    payload = {
        "schema": "boxmagic.verify-report/1",
        "passed": all(c.passed for c in checks),
        "checks": [c.payload() for c in checks],
        "suite": args.suite,
    }
    return _report(args, payload, "".join(
        f"{c.name:16s} residual={c.residual:.3e}  tol={c.tolerance:.1e}  nodes={c.nodes}  "
        f"{'PASS' if c.passed else 'FAIL'}\n" for c in checks))


def _cmd_phi(args: argparse.Namespace) -> int:
    from . import polylog

    try:
        val = polylog.phi(args.level, args.x, args.y)
    except ValueError as exc:
        print(f"phi: {exc}", file=sys.stderr)
        return 2
    _emit(f"{val:.17g}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="boxmagic", description=DESCRIPTION, formatter_class=argparse.RawDescriptionHelpFormatter)
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
    mg.add_argument("--json", dest="format", action="store_const", const="json", default="text")
    mg.add_argument("--out", type=_out_path, default=None)
    mg.set_defaults(func=_cmd_magic)

    ve = sub.add_parser("verify", help="numerical verification suites")
    ve.add_argument("suite", choices=SUITES + ("all",))
    ve.add_argument("--radius", type=_positive, default=None)
    ve.add_argument("--nodes", type=int, default=None)
    ve.add_argument("--tol", type=_positive, default=None)
    ve.add_argument("--json", dest="format", action="store_const", const="json", default="text")
    ve.add_argument("--out", type=_out_path, default=None)
    ve.set_defaults(func=_cmd_verify)

    ph = sub.add_parser("phi", help="evaluate the ladder functions")
    ph.add_argument("--level", type=int, choices=range(1, 7), required=True, metavar="{1..6}",
                    help="loop order L of Phi^(L)")
    ph.add_argument("--x", type=float, required=True)
    ph.add_argument("--y", type=float, required=True)
    ph.set_defaults(func=_cmd_phi)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    finally:  # what a command wrote is buffered: a full disk or a closed pipe shows here
        _stdout(sys.stdout.flush)


if __name__ == "__main__":
    sys.exit(main())
