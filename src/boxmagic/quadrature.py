"""Deterministic product quadrature over the cycles and the verification suite.

Both cycles are parametrized through the unit-quaternion Hopf chart
(psi, theta, chi); the 4-cycle adds the scaling phase phi.  Periodic
dimensions (phi, psi, chi) use the trapezoid rule, the aperiodic theta
uses Gauss-Legendre, so smooth integrands converge spectrally.  Node
evaluation is embarrassingly parallel (capped by BOXMAGIC_THREADS) and
the reduction is a fixed-shape pairwise tree, so results are bit-stable
across runs and worker counts.

The verification checks implement the analytic identities at desk
scale: the cycle normalization integral, the Poisson-type reproducing
formula on the 3-sphere, the two-point collapse (generator) integral,
the single-point collapse of the quotient isomorphism, the
orthogonality relations of both pairings, and the conformal covariance
of the one-loop four-point integral.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hc import ComplexQuaternion, CyclePoint, GroupElement, conformal_act, domain_side
from .tbasis import BasisExpansion, TIndex, term_of_inverse_argument

__all__ = [
    "QuadratureSpec",
    "CheckResult",
    "SuiteReport",
    "DomainError",
    "integrate",
    "cycle_points",
    "poisson_eval",
    "lemma_zp_eval",
    "collapse_z1",
    "one_loop_eval",
    "normalization_check",
    "poisson_check",
    "lemma_zp_check",
    "collapse_check",
    "orthogonality_check",
    "conformal_check",
    "run_suite",
    "SUITES",
]

NODE_BUDGET = 2**24


class DomainError(ValueError):
    """A verification point sits on the wrong side of an integration cycle."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Product rule over one cycle chart.

    Gauss-Legendre nodes are used in the aperiodic theta dimension and
    equispaced trapezoid nodes in the periodic ones.
    """

    chart: str
    radius: float
    nodes_per_dim: int

    def __post_init__(self):
        if self.chart not in ("u2", "s3"):
            raise ValueError("chart must be 'u2' or 's3'")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.nodes_per_dim < 4:
            raise ValueError("need at least 4 nodes per dimension")
        dims = 4 if self.chart == "u2" else 3
        if self.nodes_per_dim**dims > NODE_BUDGET:
            raise ValueError("total node count exceeds the configured budget")


@lru_cache(maxsize=32)
def _grid(chart: str, radius: float, n: int):
    """Flattened chart arrays (z11, z12, z21, z22, weights)."""
    psi = np.arange(n) * (2.0 * np.pi / n)
    chi = np.arange(n) * (2.0 * np.pi / n)
    x, wgl = np.polynomial.legendre.leggauss(n)
    theta = 0.25 * np.pi * (x + 1.0)
    wth = wgl * 0.25 * np.pi
    R = radius
    if chart == "u2":
        phi = np.arange(n) * (np.pi / n)
        PHI, PSI, TH, CHI = np.meshgrid(phi, psi, theta, chi, indexing="ij")
        WTH = np.broadcast_to(wth[None, None, :, None], PHI.shape)
        c, s = np.cos(TH), np.sin(TH)
        e = np.exp(1j * PHI)
        z11 = R * c * e * np.exp(1j * PSI)
        z12 = R * s * e * np.exp(1j * CHI)
        z21 = -R * s * e * np.exp(-1j * CHI)
        z22 = R * c * e * np.exp(-1j * PSI)
        cell = (np.pi / n) * (2.0 * np.pi / n) ** 2
        w = -1j * R**4 * np.exp(4j * PHI) * c * s * WTH * cell
    else:
        PSI, TH, CHI = np.meshgrid(psi, theta, chi, indexing="ij")
        WTH = np.broadcast_to(wth[None, :, None], PSI.shape)
        c, s = np.cos(TH), np.sin(TH)
        z11 = R * c * np.exp(1j * PSI)
        z12 = R * s * np.exp(1j * CHI)
        z21 = -R * s * np.exp(-1j * CHI)
        z22 = R * c * np.exp(-1j * PSI)
        cell = (2.0 * np.pi / n) ** 2
        w = (R**3 * c * s * WTH * cell).astype(complex)
    out = tuple(a.ravel().copy() for a in (z11, z12, z21, z22, w))
    for a in out:
        a.setflags(write=False)
    return out


def cycle_points(spec: QuadratureSpec):
    """Chart nodes as CyclePoint records (weights include cell measures)."""
    z11, z12, z21, z22, w = _grid(spec.chart, spec.radius, spec.nodes_per_dim)
    for i in range(len(w)):
        yield CyclePoint(ComplexQuaternion(z11[i], z12[i], z21[i], z22[i]), complex(w[i]))


def _tree_sum(values: np.ndarray) -> complex:
    """Pairwise reduction with a shape fixed by the node count only."""
    n = 1
    while n < values.size:
        n *= 2
    buf = np.zeros(n, dtype=complex)
    buf[: values.size] = values
    while n > 1:
        half = n // 2
        buf[:half] += buf[half:n]
        n = half
    return complex(buf[0])


def _max_workers() -> int:
    try:
        return max(1, int(os.environ.get("BOXMAGIC_THREADS", "1")))
    except ValueError:
        return 1


def integrate(spec: QuadratureSpec, f) -> complex:
    """Weighted sum of f over the chart nodes.

    `f` receives the four entry arrays and must return an array of
    values; non-finite values abort with the offending node coordinates.
    """
    z11, z12, z21, z22, w = _grid(spec.chart, spec.radius, spec.nodes_per_dim)
    workers = _max_workers()
    if workers == 1:
        vals = np.asarray(f(z11, z12, z21, z22), dtype=complex)
        vals = np.broadcast_to(vals, w.shape)
    else:
        vals = np.empty(w.shape, dtype=complex)
        bounds = np.linspace(0, w.size, workers + 1, dtype=int)

        def work(i: int) -> None:
            lo, hi = bounds[i], bounds[i + 1]
            vals[lo:hi] = f(z11[lo:hi], z12[lo:hi], z21[lo:hi], z22[lo:hi])

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise FloatingPointError(
            f"non-finite integrand value at node Z = "
            f"[[{z11[i]}, {z12[i]}], [{z21[i]}, {z22[i]}]]"
        )
    return _tree_sum(vals * w)


def _norm_shift(z11, z12, z21, z22, P: ComplexQuaternion):
    """N(Z - P) on entry arrays."""
    return (z11 - P.z11) * (z22 - P.z22) - (z12 - P.z12) * (z21 - P.z21)


def _require_side(P: ComplexQuaternion, R: float, side: str, what: str) -> None:
    got = domain_side(P, R)
    if got != side:
        raise DomainError(f"{what} must lie on the '{side}' side of radius {R}, got '{got}'")


# ---------------------------------------------------------------------------
# Collapse-identity evaluations


def poisson_eval(phi: BasisExpansion, W: ComplexQuaternion, R: float,
                 nodes: int = 24) -> complex:
    """Reproducing integral (1/2 pi^2) Int_{S^3_R} (degt phi)(Z)/N(Z-W) dS/R.

    Equals phi(W) for harmonic phi with W strictly inside radius R.
    """
    _require_side(W, R, "plus", "evaluation point")
    spec = QuadratureSpec("s3", R, nodes)
    dphi = phi.degt()
    val = integrate(spec, lambda a, b, c, d: dphi.eval_entries(a, b, c, d) / _norm_shift(a, b, c, d, W))
    return val / (2.0 * np.pi**2 * R)


def collapse_z1(phi: BasisExpansion, W: ComplexQuaternion, R: float,
                nodes: int = 24) -> complex:
    """Single-point collapse (i/2 pi^3) Int (degt phi)(Z) / (N(Z) N(Z-W)) dV.

    The inverse of the quotient isomorphism: reproduces phi(W) for
    harmonic polynomial phi and W strictly inside radius R, for any R.
    """
    _require_side(W, R, "plus", "evaluation point")
    spec = QuadratureSpec("u2", R, nodes)
    dphi = phi.degt()
    val = integrate(
        spec,
        lambda a, b, c, d: dphi.eval_entries(a, b, c, d)
        / ((a * d - b * c) * _norm_shift(a, b, c, d, W)),
    )
    return val * 1j / (2.0 * np.pi**3)


def lemma_zp_eval(ij: str, k: int, W: ComplexQuaternion, Wp: ComplexQuaternion,
                  R: float, nodes: int = 20) -> complex:
    """Two-point collapse (i/2 pi^3) Int (z_ij)^k dV / (N(Z-W) N(Z-W')).

    Equals 1/(k+1) sum_p (w_ij)^p (w'_ij)^(k-p) for W, W' strictly
    inside radius R.
    """
    if ij not in ("z11", "z12", "z21", "z22"):
        raise ValueError("ij must name one of the four entries")
    _require_side(W, R, "plus", "first evaluation point")
    _require_side(Wp, R, "plus", "second evaluation point")
    spec = QuadratureSpec("u2", R, nodes)
    pos = {"z11": 0, "z12": 1, "z21": 2, "z22": 3}[ij]

    def f(a, b, c, d):
        entry = (a, b, c, d)[pos]
        return entry**k / (_norm_shift(a, b, c, d, W) * _norm_shift(a, b, c, d, Wp))

    return integrate(spec, f) * 1j / (2.0 * np.pi**3)


def zp_closed_form(ij: str, k: int, W: ComplexQuaternion, Wp: ComplexQuaternion) -> complex:
    pos = {"z11": "z11", "z12": "z12", "z21": "z21", "z22": "z22"}[ij]
    w = getattr(W, pos)
    wp = getattr(Wp, pos)
    return sum(w**p * wp ** (k - p) for p in range(k + 1)) / (k + 1)


def one_loop_eval(Z1: ComplexQuaternion, Z2: ComplexQuaternion,
                  W1: ComplexQuaternion, W2: ComplexQuaternion,
                  r: float, nodes: int = 20) -> complex:
    """One-loop four-point integral over the cycle of radius r.

    Requires Z1, Z2 strictly outside and W1, W2 strictly inside; any
    other configuration is a wrong-cycle placement and is refused.
    """
    _require_side(Z1, r, "minus", "Z1")
    _require_side(Z2, r, "minus", "Z2")
    _require_side(W1, r, "plus", "W1")
    _require_side(W2, r, "plus", "W2")
    spec = QuadratureSpec("u2", r, nodes)

    def f(a, b, c, d):
        val = 1.0
        for P in (Z1, Z2, W1, W2):
            val = val / _norm_shift(a, b, c, d, P)
        return val

    return integrate(spec, f) * 1j / (2.0 * np.pi**3)


# ---------------------------------------------------------------------------
# Verification checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    nodes: int
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def payload(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "nodes": self.nodes,
            "passed": self.passed,
            "details": self.details,
        }


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        return {
            "schema": "boxmagic.verify-report/1",
            "passed": self.passed,
            "checks": [c.payload() for c in self.checks],
        }


def _rng(seed: int = 20240) -> np.random.Generator:
    return np.random.default_rng(seed)


def _random_inside(rng: np.random.Generator, R: float, scale: float = 0.35) -> ComplexQuaternion:
    """Random point well inside radius R (margin far above 0.15 R)."""
    while True:
        m = scale * R * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))) / 2.0
        P = ComplexQuaternion.from_matrix(m)
        if domain_side(P, R) == "plus":
            sv = np.linalg.svd(m, compute_uv=False)
            if sv.max() <= 0.6 * R:
                return P


def normalization_check(radii=(0.8, 1.25), nodes: int = 32, tol: float = 1e-8) -> CheckResult:
    """Cycle normalization: Int dV / N(Z)^2 = -2 pi^3 i at every radius."""
    target = -2j * np.pi**3
    worst = 0.0
    values = {}
    for R in radii:
        spec = QuadratureSpec("u2", float(R), nodes)
        val = integrate(spec, lambda a, b, c, d: 1.0 / (a * d - b * c) ** 2)
        rel = abs(val - target) / abs(target)
        values[str(R)] = {"value": [val.real, val.imag], "rel_err": rel}
        worst = max(worst, rel)
    return CheckResult("normalization", worst, tol, nodes, {"target": [0.0, -2 * math.pi**3], "radii": values})


def poisson_check(R: float = 1.0, nodes: int = 24, tol: float = 1e-6,
                  samples: int = 5, seed: int = 20240) -> CheckResult:
    """Reproducing property on S^3_R for a spread of harmonic polynomials."""
    rng = _rng(seed)
    cases = {
        "1": BasisExpansion.one(),
        "z11": BasisExpansion.monomial("z11", 1),
        "z11^2": BasisExpansion.monomial("z11", 2),
        "t1_00": BasisExpansion({TIndex(2, 0, 0, 0): 1}, "H+"),
    }
    worst = 0.0
    details = {}
    for name, phi in cases.items():
        errs = []
        for _ in range(samples):
            W = _random_inside(rng, R)
            got = poisson_eval(phi, W, R, nodes)
            want = phi(W)
            errs.append(abs(got - want) / max(1.0, abs(want)))
        details[name] = max(errs)
        worst = max(worst, max(errs))
    return CheckResult("poisson", worst, tol, nodes, details)


def lemma_zp_check(R: float = 1.0, nodes: int = 20, tol: float = 1e-5,
                   k_max: int = 3, seed: int = 20240) -> CheckResult:
    """Two-point collapse against its closed form, k <= k_max, two entries."""
    rng = _rng(seed)
    W = _random_inside(rng, R)
    Wp = _random_inside(rng, R)
    worst = 0.0
    details = {}
    for ij in ("z11", "z12"):
        for k in range(k_max + 1):
            got = lemma_zp_eval(ij, k, W, Wp, R, nodes)
            want = zp_closed_form(ij, k, W, Wp)
            err = abs(got - want) / max(1.0, abs(want))
            details[f"{ij}^{k}"] = err
            worst = max(worst, err)
    return CheckResult("lemma-zp", worst, tol, nodes, details)


def collapse_check(R_pair=(0.8, 1.25), nodes: int = 24, tol: float = 1e-6,
                   r_indep_tol: float = 1e-8, k_max: int = 3, seed: int = 20240) -> CheckResult:
    """Single-point collapse: residual against phi(W) plus R-independence."""
    rng = _rng(seed)
    R1, R2 = float(R_pair[0]), float(R_pair[1])
    W = _random_inside(rng, min(R1, R2))
    cases = {f"z11^{k}": BasisExpansion.monomial("z11", k) for k in range(k_max + 1)}
    cases["t1_00"] = BasisExpansion({TIndex(2, 0, 0, 0): 1}, "H+")
    worst = 0.0
    worst_indep = 0.0
    details = {}
    for name, phi in cases.items():
        want = phi(W)
        got1 = collapse_z1(phi, W, R1, nodes)
        got2 = collapse_z1(phi, W, R2, nodes)
        err = max(abs(got1 - want), abs(got2 - want)) / max(1.0, abs(want))
        indep = abs(got1 - got2) / max(1.0, abs(want))
        details[name] = {"residual": err, "radius_independence": indep}
        worst = max(worst, err)
        worst_indep = max(worst_indep, indep)
    residual = max(worst, worst_indep * (tol / r_indep_tol))
    return CheckResult(
        "collapse", residual, tol, nodes,
        {"cases": details, "r_independence_worst": worst_indep, "r_independence_tol": r_indep_tol},
    )


def _basis_indices(two_l_max: int):
    for L in range(two_l_max + 1):
        for n in range(-L, L + 1, 2):
            for m in range(-L, L + 1, 2):
                yield (L, n, m)


def orthogonality_check(two_l_max: int = 3, R: float = 0.9, nodes_s3: int = 24,
                        nodes_u2: int = 16, tol: float = 1e-6) -> CheckResult:
    """Both orthogonality families against their exact Kronecker values.

    The harmonic pairing is integrated over S^3_R for all pairs of a
    degree-bounded element with an inverse-argument dual; the polynomial
    pairing over the 4-cycle additionally scans norm powers k, k' in
    {0, 1} and checks the 1/(2l+1) values with delta matching in k.
    """
    if two_l_max > 3:
        raise ValueError("orthogonality check is desk-scale: need 2l <= 3")
    for chart, n in (("s3", nodes_s3), ("u2", nodes_u2)):
        QuadratureSpec(chart, R, n)  # raises ValueError below 4 nodes or above NODE_BUDGET
    idxs = list(_basis_indices(two_l_max))

    # Harmonic pairing on the 3-sphere.
    a, b, c, d, w = _grid("s3", R, nodes_s3)
    prim = {}
    dual = {}
    dual_exact = {}
    for (L, n, m) in idxs:
        f1 = BasisExpansion({TIndex(L, n, m, 0): 1}, "H+")
        prim[(L, n, m)] = f1.degt().eval_entries(a, b, c, d)
        di, fac = term_of_inverse_argument(L, m, n, -1)
        f2 = BasisExpansion({di: fac}, "H-")
        dual[(L, n, m)] = f2.eval_entries(a, b, c, d)
        dual_exact[(L, n, m)] = f2
    worst = 0.0
    for i1 in idxs:
        for i2 in idxs:
            num = np.sum(w * prim[i1] * dual[i2]) / (2.0 * np.pi**2 * R)
            want = 1.0 if i1 == i2 else 0.0
            worst = max(worst, abs(num - want))
    h_worst = worst

    # Polynomial pairing on the 4-cycle.
    a, b, c, d, w = _grid("u2", R, nodes_u2)
    nz = a * d - b * c
    prim_u = {}
    dual_u = {}
    for (L, n, m) in idxs:
        base = BasisExpansion({TIndex(L, n, m, 0): 1}).eval_entries(a, b, c, d)
        for kk in (0, 1):
            prim_u[(L, n, m, kk)] = base * nz**kk
        for kk in (0, 1):
            di, fac = term_of_inverse_argument(L, m, n, -kk - 2)
            dual_u[(L, n, m, kk)] = BasisExpansion({di: fac}).eval_entries(a, b, c, d)
    worst = 0.0
    for (L1, n1, m1, k1), v1 in prim_u.items():
        for (L2, n2, m2, k2), v2 in dual_u.items():
            num = 1j / (2.0 * np.pi**3) * np.sum(w * v1 * v2)
            want = 1.0 / (L1 + 1) if (L1, n1, m1, k1) == (L2, n2, m2, k2) else 0.0
            worst = max(worst, abs(num - want))
    u_worst = worst

    return CheckResult(
        "orthogonality", max(h_worst, u_worst), tol, max(nodes_s3, nodes_u2),
        {"pairs_sphere": len(idxs) ** 2, "pairs_cycle": (2 * len(idxs)) ** 2,
         "sphere_worst": h_worst, "cycle_worst": u_worst, "radius": R},
    )


def _covariance_points(rng: np.random.Generator, r: float):
    Z1 = ComplexQuaternion.from_matrix(
        2.2 * r * np.eye(2) + 0.1 * r * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
    )
    Z2 = ComplexQuaternion.from_matrix(
        -2.4 * r * np.eye(2) + 0.1 * r * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
    )
    W1 = _random_inside(rng, r)
    W2 = _random_inside(rng, r)
    return Z1, Z2, W1, W2


def conformal_check(r: float = 1.0, nodes: int = 20, tol: float = 1e-4,
                    samples: int = 5, scale: float = 0.05, seed: int = 20240) -> CheckResult:
    """Conformal covariance of the one-loop integral under near-identity maps.

    For h with blocks (a, b, c, d) and inverse blocks (a', b', c', d'),
    the transformed integral must equal
    N(a'-Z1 c') N(c Z2+d) N(c W1+d) N(a'-W2 c') times the original.
    """
    from .hc import norm, random_near_identity

    rng = _rng(seed)
    Z1, Z2, W1, W2 = _covariance_points(rng, r)
    base = one_loop_eval(Z1, Z2, W1, W2, r, nodes)
    worst = 0.0
    details = []
    done = 0
    while done < samples:
        h = random_near_identity(rng, scale)
        pts = [conformal_act(h, P) for P in (Z1, Z2, W1, W2)]
        try:
            moved = one_loop_eval(pts[0], pts[1], pts[2], pts[3], r, nodes)
        except DomainError:
            continue  # the map pushed a point across the cycle; resample
        fac = (
            norm(h.ap - Z1 * h.cp)
            * norm(h.c * Z2 + h.d)
            * norm(h.c * W1 + h.d)
            * norm(h.ap - W2 * h.cp)
        )
        rel = abs(moved - fac * base) / abs(moved)
        details.append(rel)
        worst = max(worst, rel)
        done += 1
    return CheckResult("conformal", worst, tol, nodes, {"samples": details, "scale": scale})


SUITES = ("normalization", "poisson", "lemma-zp", "collapse", "orthogonality", "conformal")


def run_suite(name: str, radius: float | None = None, nodes: int | None = None,
              tol: float | None = None) -> SuiteReport:
    """Run one named check (or "all"), with optional flag overrides."""

    def kw(**defaults):
        out = dict(defaults)
        if nodes is not None:
            out["nodes"] = nodes
        if tol is not None:
            out["tol"] = tol
        return out

    checks: list[CheckResult] = []
    names = SUITES if name == "all" else (name,)
    for nm in names:
        if nm == "normalization":
            radii = (radius,) if radius is not None else (0.8, 1.25)
            checks.append(normalization_check(radii=radii, **kw(nodes=32, tol=1e-8)))
        elif nm == "poisson":
            checks.append(poisson_check(R=radius or 1.0, **kw(nodes=24, tol=1e-6)))
        elif nm == "lemma-zp":
            checks.append(lemma_zp_check(R=radius or 1.0, **kw(nodes=20, tol=1e-5)))
        elif nm == "collapse":
            pair = (radius, radius) if radius is not None else (0.8, 1.25)
            checks.append(collapse_check(R_pair=pair, **kw(nodes=24, tol=1e-6)))
        elif nm == "orthogonality":
            out = kw(tol=1e-6)
            out.pop("nodes", None)
            extra = {"nodes_s3": nodes, "nodes_u2": nodes} if nodes is not None else {}
            checks.append(orthogonality_check(two_l_max=3, R=radius or 0.9, **out, **extra))
        elif nm == "conformal":
            checks.append(conformal_check(r=radius or 1.0, **kw(nodes=20, tol=1e-4)))
        else:
            raise ValueError(f"unknown suite {nm!r}; choose from {SUITES + ('all',)}")
    return SuiteReport(tuple(checks))
