"""Reachability guard: `src/boxmagic` holds only what a command reaches.

One fresh interpreter runs every subcommand under `sys.setprofile` and
reports the functions it entered and the classes it instantiated.  Every
function and method defined in `src/boxmagic/*.py` (found by `ast`)
must be entered, and every class in a module's `__all__` must be used,
except for the names in STAYING.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "boxmagic"

# Why a name stays in src/ although no command reaches it.  A name covers
# the functions nested in it.
BENCHMARK = "perfbench/spans.py wraps it by name for `--trace 1`, or perfbench/worker.py calls it"
STAYING = {
    "magic.ladder_image": BENCHMARK,
    "magic.diagram_image": BENCHMARK,
    "magic.payload_to_json": BENCHMARK,
    "diagrams.from_history": BENCHMARK,
    "polylog.phi1": BENCHMARK,
    "polylog.phi2": BENCHMARK,
    "quadrature.one_loop_eval": "ROADMAP item 2 compares it with the closed form in a `nested` check",
    "diagrams.BoxDiagram.order": "perfbench/worker.py:65 digests sorted(d.order) (ROADMAP item 9)",
}

# Runs each command through main() under a profiler and prints, as JSON,
# the (file, first line) of every boxmagic function entered and the
# qualified names of the boxmagic classes whose __init__ ran.
_TRACE = r"""
import contextlib, io, json, os, sys, tempfile
from boxmagic.cli import main

pkg = os.path.dirname(sys.modules["boxmagic"].__file__)
entered, built = set(), set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(pkg):
            entered.add((os.path.basename(code.co_filename), code.co_firstlineno))
        elif code.co_name == "__init__" and "self" in frame.f_locals:
            cls = type(frame.f_locals["self"])
            if cls.__module__.startswith("boxmagic."):
                built.add(cls.__module__.split(".")[1] + "." + cls.__qualname__)

with tempfile.TemporaryDirectory() as tmp:
    commands = [
        ["mu", "--loops", "2", "--k-max", "4"],
        ["mu", "--loops", "2", "--k-max", "4", "--format", "csv", "--out", os.path.join(tmp, "mu.csv")],
        ["acoeff", "--loops", "3", "--k", "4", "--format", "json"],
        ["diagrams", "--loops", "3", "--dot-dir", os.path.join(tmp, "dot")],
        ["magic", "--loops", "3", "--k-max", "4"],
        ["magic", "--loops", "2", "--k-max", "2", "--json", "--out", os.path.join(tmp, "magic.json")],
        ["verify", "all", "--nodes", "8", "--tol", "1e-3"],  # poisson needs 12 nodes for 1e-6
        ["verify", "collapse", "--radius", "0.5", "--nodes", "8", "--json"],
        ["phi", "--level", "1", "--x", "0.1", "--y", "0.2"],
        ["phi", "--level", "2", "--x", "0.01", "--y", "0.5"],
        ["phi", "--level", "3", "--x", "0.1", "--y", "0.2"],
        ["phi", "--level", "4", "--x", "1e-320", "--y", "0.2"],
        # lambda^2 < 0: w and wbar are complex, |w| = sqrt(y/x), and phi hands them to li, which
        # takes the ln z expansion at |w| = 1 and the power series at |w| = 0.45.  Every real
        # argument above stays on the float path.
        ["phi", "--level", "2", "--x", "0.6", "--y", "0.6"],
        ["phi", "--level", "2", "--x", "1", "--y", "0.2"],
        # The one failing command, exit 2: N(Z - W) N(Z - W') flushes to zero at this
        # radius, and the kernel pass names the first non-finite integrand and its node.
        ["verify", "lemma-zp", "--radius", "1e-100", "--nodes", "8"],
    ]
    sys.setprofile(profile)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv) for argv in commands]
        with contextlib.suppress(SystemExit):  # the help exits 0 through argparse
            main(["--help"])
    sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered), "built": sorted(built)}))
"""


def _definitions() -> dict[str, tuple[str, int] | None]:
    """"module.Qual.name" of every def and class in the package: a def maps to
    (file, line of its first decorator or of `def`, as in co_firstlineno), a class to None."""
    found = {}

    def visit(node, prefix, filename):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found[f"{prefix}.{child.name}"] = None if isinstance(child, ast.ClassDef) else \
                    (filename, min([child.lineno] + [d.lineno for d in child.decorator_list]))
                visit(child, f"{prefix}.{child.name}", filename)

    for path in sorted(PKG.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.name)
    return found


def _under(name: str, names) -> bool:
    """True if name is one of names or is nested in one of them."""
    return any(name == s or name.startswith(s + ".") for s in names)


@pytest.fixture(scope="module")
def trace() -> dict:
    proc = subprocess.run([sys.executable, "-c", _TRACE], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * (len(out["codes"]) - 1) + [2], "every traced command but the last must succeed"
    entered = {tuple(e) for e in out["entered"]}
    defs = {name: key for name, key in _definitions().items() if key is not None}
    out["reached"] = {name for name, key in defs.items() if key in entered}
    out["missed"] = sorted(set(defs) - out["reached"])
    return out


def test_every_function_is_entered(trace):
    assert [name for name in trace["missed"] if not _under(name, STAYING)] == []


def test_staying_names_exist_and_stay_unreached(trace):
    defined = _definitions()
    for name in STAYING:
        assert name in defined, f"{name} is gone: drop it from STAYING"
        assert name not in trace["built"] and not any(_under(r, [name]) for r in trace["reached"]), \
            f"a command reaches {name}: drop it from STAYING"


def test_all_lists_only_reached_names(trace):
    used = trace["reached"] | set(trace["built"]) | {name.rsplit(".", 1)[0] for name in trace["reached"]}
    for path in sorted(PKG.glob("*.py")):
        module = importlib.import_module(f"boxmagic.{path.stem}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
                # Data and exception classes (raised, never entered) are not checked.
                name = f"{path.stem}.{attr}"
                assert name in used or _under(name, STAYING), f"{name} is in __all__ but no command reaches it"


def test_benchmark_names_are_in_the_benchmark():
    # Once the benchmark stops calling a name, it has no reason left to stay.
    text = "".join((ROOT / "perfbench" / f).read_text(encoding="utf-8") for f in ("spans.py", "worker.py"))
    for name, reason in STAYING.items():
        if reason == BENCHMARK:
            assert re.search(re.escape(name) + r"\b", text), f"the benchmark no longer names {name}: drop it from STAYING"
