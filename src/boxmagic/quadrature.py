"""Deterministic product quadrature over the cycles and the verification suite.

Every cycle integral is one pass over the S^3_R grid: the Hopf chart
(psi, theta, chi) with the trapezoid rule in psi and chi and
Gauss-Legendre in theta, so smooth integrands converge spectrally.
U(2)_R is e^{i phi} S^3_R: its node (phi_k, q) is lam_k q with
lam_k = e^{i pi k/n}, and its weight is -i R lam_k^4 (pi/n) times that
of q (`_phases`).  Every row is homogeneous, of one degree d = 2l + 2k
(`_degree`, which both passes call), so f(lam q) = lam^d f(q): a
pole-free row's U(2)_R sum is its S^3 sum times a phase sum (`_gram`).
For a kernel row f(Z) / prod_P N(Z - P), N(lam q - P) = lam^2 N(q) -
lam B_P(q) + N(P) with B_P linear in q; so the powers of the entries
(`tbasis.EntryPowers`), every f and every B_P are built once per node
block, and the loop over the phases forms only denominators (`integrate`).
Both passes build the nodes block by block from n x n chart tables
(`_blocks`) and hold the values of one block of GRAM_BLOCK nodes, so their
memory does not grow with n^3 or with the number of blocks; a Gram pass
writes its rows into one preallocated buffer per side.  Each check makes
one such pass over all its integrands.
Every node sum is numpy's pairwise sum, or a Gram product that BLAS
splits by blocks of the result (`_gram`), added over node blocks in order,
and each kernel row's phase sums are reduced on their own, so the same
flags give the same bits on every run, whatever the BLAS thread count
and whatever other rows share the pass.

The verification checks implement the analytic identities at desk
scale: the cycle normalization integral, the Poisson-type reproducing
formula on the 3-sphere, the two-point collapse (generator) integral,
the single-point collapse of the quotient isomorphism, the
orthogonality relations of both pairings, and the conformal covariance
of the one-loop four-point integral.  Each takes only what `verify`
sets (its radius, its node counts, tol) and, if it draws random
points, their seed; the sizes of its cases are fixed and stated in
its docstring.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .hc import ComplexQuaternion, chart_s3, conformal_act, domain_side, norm, random_near_identity
from .tbasis import BasisExpansion, EntryPowers, TIndex, term_of_inverse_argument

__all__ = [
    "QuadratureSpec",
    "CheckResult",
    "DomainError",
    "integrate",
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

# Nodes of the S^3 grid that one pass sums over, on either cycle: n <= 64.
NODE_BUDGET = 2**18

# Grid nodes per block of a pass (`_blocks`): one row of values takes 64 kB,
# and the 60 prim and 60 dual rows of the cycle Gram pass 7.9 MB, at any n.
GRAM_BLOCK = 2**12


class DomainError(ValueError):
    """A verification point sits on the wrong side of an integration cycle."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Product rule over one cycle: n^3 nodes of S^3_R, times n phases on U(2)_R."""

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
        if self.nodes_per_dim**3 > NODE_BUDGET:
            raise ValueError("node count per pass exceeds the configured budget")


def _phases(chart: str, R: float, n: int, powers) -> tuple[np.ndarray, np.ndarray]:
    """Phases lam_k of a cycle over the S^3_R grid, and weight factors, one column per power m.

    On u2, lam_k = e^{i pi k/n} and the factor is -i R (pi/n) lam_k^m: a term of
    degree d at the u2 node lam_k q, with its weight, is lam_k^(d+4) -i R (pi/n)
    times its value and weight at the s3 node q.  The u2 density's R^4 is refused
    here, before an s3 pass can underflow N(Z)^-k.  On s3: lam = 1, factor 1.
    """
    m = np.asarray(powers, dtype=float)
    if chart == "s3":
        return np.ones(1, dtype=complex), np.ones((1, m.size), dtype=complex)
    try:
        R**4  # the u2 density's radius power; Python floats raise where numpy gives inf
    except OverflowError:
        raise OverflowError("a value of the u2 chart leaves the float range") from None
    phi = np.arange(n) * (np.pi / n)
    return np.exp(1j * phi), (-1j * R * np.pi / n) * np.exp(1j * np.multiply.outer(phi, m))


def _blocks(R: float, n: int):
    """The S^3_R product rule, in order, as (z11, z12, z21, z22, weights) blocks of GRAM_BLOCK nodes.

    Both cycles are integrated over it (U(2)_R adds `_phases`).  The node
    (psi_i, theta_j, chi_k) is number (i n + j) n + k.  The chart runs once
    over n x n tables, (psi, theta) for z11 and z22 and (chi, theta) for z12
    and z21, so exp, cos and sin run over n values per angle; each block
    gathers its nodes from the tables.  The weights are the chart density
    times the Gauss-Legendre theta weights and the cell measure.  An R^3
    that overflows, or is subnormal so the weights lose digits, is refused.
    """
    periodic = np.arange(n) * (2.0 * np.pi / n)
    x, wgl = np.polynomial.legendre.leggauss(n)
    theta = 0.25 * np.pi * (x + 1.0)
    wth = wgl * 0.25 * np.pi
    try:
        if R**3 < sys.float_info.min:  # a Python float raises where R^3 overflows
            raise OverflowError
        *tables, density = chart_s3(R, periodic[:, None], theta, periodic[:, None])
    except OverflowError:
        raise OverflowError("a value of the s3 chart leaves the float range") from None
    w = (density * wth * (2.0 * np.pi / n) ** 2).astype(complex)
    z11, z12, z21, z22 = (t.ravel() for t in tables)
    for start in range(0, n**3, GRAM_BLOCK):
        node = np.arange(start, min(start + GRAM_BLOCK, n**3))
        ij = node // n  # (psi_i, theta_j): i n + j
        j = ij % n
        kj = node % n * n + j  # (chi_k, theta_j): k n + j
        yield z11[ij], z12[kj], z21[kj], z22[ij], w[j]


def _degree(f: BasisExpansion) -> int:
    """The degree d = 2l + 2k of every term t^l_{n,m} N^k of a row; a row of two degrees raises ValueError."""
    (d,) = {idx.two_l + 2 * idx.k for idx in f.coeffs}
    return d


def integrate(spec: QuadratureSpec, rows) -> np.ndarray:
    """Weighted sums of f(Z) / prod_P N(Z - P) over the cycle of `spec`, one per (f, poles) in `rows`.

    A pole None stands for N(Z); each f must be homogeneous (`_degree`).  One
    S^3 pass serves every phase lam: f(lam q) = lam^d f(q), and N(lam q - P) =
    lam (lam N(q) - B_P(q) + N(P)/lam) with B_P(q) = q11 p22 + q22 p11 - q12 p21
    - q21 p12, so every f and B_P is evaluated once per node block (`_blocks`).
    Per phase, each pole set gets its denominator and one division of the
    weights by it, shared by all its rows.  Each node sum, and each row's
    sum over the phases, is numpy's pairwise sum, and the blocks are added in
    order, so the bits depend neither on the BLAS thread count nor on the
    other rows.  A non-finite sum aborts, naming the first non-finite value
    of its block by row and node Z = lam q.  Returns shape (len(rows),).
    """
    R, n = spec.radius, spec.nodes_per_dim
    degrees = [_degree(f) for f, _ in rows]
    lam, fac = _phases(spec.chart, R, n, [d + 4 for d in degrees])
    points = list(dict.fromkeys(P for _, poles in rows for P in poles if P is not None))
    coeffs = np.array([[P.z22, -P.z21, -P.z12, P.z11] for P in points], dtype=complex).reshape(-1, 4)
    NP = [norm(P) for P in points]

    sets = {}  # poles -> row numbers
    for r, (_, poles) in enumerate(rows):
        sets.setdefault(poles, []).append(r)
    # (pole indices, row numbers, sums per row and phase) per pole set
    passes = [([None if P is None else points.index(P) for P in poles], rs,
               np.zeros((len(rs), lam.size), dtype=complex)) for poles, rs in sets.items()]

    for a, b, c, d, w in _blocks(R, n):
        powers = EntryPowers(a, b, c, d)
        nq = powers.power("N", 1)
        # B_P(q) for every pole at once: a product that sums over the four entries only.
        B = coeffs @ np.array([a, b, c, d])
        # f at the block's nodes; a constant f stays a scalar.
        values = [[powers.value(rows[r][0]) for r in rs] for _, rs, _ in passes]
        # Node-sized buffers: fresh temporaries in the phase loop would page-fault each time.
        den, tmp = np.empty_like(nq), np.empty_like(nq)

        def over(top, lk, ln, idx):  # top / prod_P N(lam q - P), each factor lam (lam N(q) - B_P(q) + N(P)/lam)
            den.fill(lk ** len(idx))
            for i in idx:
                if i is not None:
                    np.add(np.subtract(ln, B[i], out=tmp), NP[i] / lk, out=tmp)
                np.multiply(den, ln if i is None else tmp, out=den)
            return np.divide(top, den, out=den)

        for k, lk in enumerate(lam):
            ln = lk * nq
            for (idx, _, sums), vals in zip(passes, values):
                wd = over(w, lk, ln, idx)
                sums[:, k] += [np.multiply(v, wd, out=tmp).sum() for v in vals]

        if not all(np.isfinite(sums).all() for *_, sums in passes):
            for lk in lam:  # name the block's first non-finite value, phase by phase
                bad = np.zeros((len(rows), a.size), dtype=complex)
                for (idx, rs, _), vals in zip(passes, values):
                    inv = over(1.0, lk, lk * nq, idx)
                    for r, v in zip(rs, vals):
                        bad[r] = lk ** degrees[r] * v * inv
                _require_finite(bad, lk * a, lk * b, lk * c, lk * d)
            raise FloatingPointError(f"a kernel sum at radius {R} overflows")

    total = np.empty(len(rows), dtype=complex)
    for _, rs, sums in passes:
        for r, s in zip(rs, sums):
            total[r] = (fac[:, r] * s).sum()
    if not np.isfinite(total).all():
        raise FloatingPointError(f"a kernel sum at radius {R} overflows")
    return total


def _require_finite(vals: np.ndarray, z11, z12, z21, z22) -> None:
    """Raise FloatingPointError naming the row and node of the first non-finite value."""
    bad = ~np.isfinite(vals)
    if bad.any():
        *row, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise FloatingPointError(
            f"non-finite value of integrand {int(row[0]) if row else 0} at node Z = "
            f"[[{z11[i]}, {z12[i]}], [{z21[i]}, {z22[i]}]]"
        )


def _require_side(P: ComplexQuaternion, R: float, side: str, what: str) -> None:
    got = domain_side(P, R)
    if got != side:
        raise DomainError(f"{what} must lie on the '{side}' side of radius {R}, got '{got}'")


def _kernel_pass(chart: str, R: float, nodes: int, rows) -> list[complex]:
    """Normalized integrals of f(Z) / prod_P N(Z - P), one per (f, poles) in `rows`.

    The measure is (i/2 pi^3) dV on U(2)_R and dS/(2 pi^2 R) on S^3_R; a pole
    None stands for N(Z) itself.  All rows share one S^3_R pass (`integrate`).
    """
    scale = 1j / (2.0 * np.pi**3) if chart == "u2" else 1.0 / (2.0 * np.pi**2 * R)
    return (integrate(QuadratureSpec(chart, R, nodes), rows) * scale).tolist()


# ---------------------------------------------------------------------------
# Closed forms and the one-loop integral


def zp_closed_form(ij: str, k: int, W: ComplexQuaternion, Wp: ComplexQuaternion) -> complex:
    """Closed form 1/(k+1) sum_p (w_ij)^p (w'_ij)^(k-p) of the two-point collapse.

    The collapse is (i/2 pi^3) Int (z_ij)^k dV / (N(Z-W) N(Z-W')) with W,
    W' strictly inside the cycle.
    """
    if ij not in ("z11", "z12", "z21", "z22"):
        raise ValueError("ij must name one of the four entries")
    w = getattr(W, ij)
    wp = getattr(Wp, ij)
    return sum(w**p * wp ** (k - p) for p in range(k + 1)) / (k + 1)


def _require_one_loop_sides(points, r: float, name: str = "{}") -> None:
    """Z1, Z2 strictly outside and W1, W2 strictly inside the cycle of radius r; `name` formats each label."""
    for P, side, what in zip(points, ("minus", "minus", "plus", "plus"), ("Z1", "Z2", "W1", "W2")):
        _require_side(P, r, side, name.format(what))


def one_loop_eval(Z1: ComplexQuaternion, Z2: ComplexQuaternion,
                  W1: ComplexQuaternion, W2: ComplexQuaternion,
                  r: float, nodes: int = 20) -> complex:
    """One-loop four-point integral over the cycle of radius r.

    Requires Z1, Z2 strictly outside and W1, W2 strictly inside; any
    other configuration is a wrong-cycle placement and is refused.
    """
    _require_one_loop_sides((Z1, Z2, W1, W2), r)
    return _kernel_pass("u2", r, nodes, [(BasisExpansion.one(), (Z1, Z2, W1, W2))])[0]


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


def _random_inside(rng: np.random.Generator, R: float) -> ComplexQuaternion:
    """Random point well inside radius R: largest singular value <= 0.6 R."""
    while True:
        m = 0.35 * R * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))) / 2.0
        if np.linalg.svd(m, compute_uv=False).max() <= 0.6 * R:
            return ComplexQuaternion.from_matrix(m)


def normalization_check(radii=(0.8, 1.25), nodes: int = 32, tol: float = 1e-8) -> CheckResult:
    """Cycle normalization: Int dV / N(Z)^2 = -2 pi^3 i at every radius."""
    if not radii:
        raise ValueError("normalization check needs at least one radius")
    target = -2j * np.pi**3
    worst = 0.0
    values = {}
    for R in radii:
        spec = QuadratureSpec("u2", float(R), nodes)
        val = complex(_gram(spec, [BasisExpansion({TIndex(0, 0, 0, -2): 1})], [BasisExpansion.one()])[0, 0])
        rel = abs(val - target) / abs(target)
        values[str(R)] = {"value": [val.real, val.imag], "rel_err": rel}
        worst = max(worst, rel)
    return CheckResult("normalization", worst, tol, nodes, {"target": [0.0, -2 * math.pi**3], "radii": values})


def poisson_check(R: float = 1.0, nodes: int = 24, tol: float = 1e-6, seed: int = 20240) -> CheckResult:
    """Reproducing property on S^3_R for a spread of harmonic polynomials, at five points W per case.

    A degree-d case's error is taken relative to its size R^d.
    """
    rng = np.random.default_rng(seed)
    cases = {
        "1": BasisExpansion.one(),
        "z11": BasisExpansion.monomial("z11", 1),
        "z11^2": BasisExpansion.monomial("z11", 2),
        "t1_00": BasisExpansion({TIndex(2, 0, 0, 0): 1}),
    }
    rows = [(name, phi, _random_inside(rng, R)) for name, phi in cases.items() for _ in range(5)]
    got = _kernel_pass("s3", R, nodes, [(phi.degt(), (W,)) for _, phi, W in rows])
    details = {}
    for (name, phi, W), g in zip(rows, got):
        details[name] = max(details.get(name, 0.0), abs(g - phi(W)) / R ** _degree(phi))
    return CheckResult("poisson", max(details.values()), tol, nodes, details)


def lemma_zp_check(R: float = 1.0, nodes: int = 20, tol: float = 1e-5, seed: int = 20240) -> CheckResult:
    """Two-point collapse against its closed form, k <= 3, two entries, each error relative to its size R^k."""
    rng = np.random.default_rng(seed)
    W = _random_inside(rng, R)
    Wp = _random_inside(rng, R)
    powers = [(ij, k) for ij in ("z11", "z12") for k in range(4)]
    vals = _kernel_pass("u2", R, nodes, [(BasisExpansion.monomial(ij, k), (W, Wp)) for ij, k in powers])
    details = {}
    for (ij, k), got in zip(powers, vals):
        details[f"{ij}^{k}"] = abs(got - zp_closed_form(ij, k, W, Wp)) / R**k
    return CheckResult("lemma-zp", max(details.values()), tol, nodes, details)


def collapse_check(radii=(0.8, 1.25), nodes: int = 24, tol: float = 1e-6, seed: int = 20240) -> CheckResult:
    """Single-point collapse: residual against phi(W) at every radius, for z11^k (k <= 3) and t^1_00.

    With two or more radii the largest difference between radii counts
    100 times, so it passes below tol / 100 (1e-8 at the default tol); with
    one it is reported as None.  A degree-d case's errors are taken relative
    to r^d, the size of phi(W) for W inside the smallest radius r.
    """
    indep_ratio = 100
    rng = np.random.default_rng(seed)
    radii = [float(R) for R in radii]
    W = _random_inside(rng, min(radii))
    cases = {f"z11^{k}": BasisExpansion.monomial("z11", k) for k in range(4)}
    cases["t1_00"] = BasisExpansion({TIndex(2, 0, 0, 0): 1})
    rows = [(phi.degt(), (None, W)) for phi in cases.values()]
    by_radius = [_kernel_pass("u2", R, nodes, rows) for R in radii]
    worst = 0.0
    worst_indep = 0.0 if len(radii) > 1 else None
    details = {}
    for row, (name, phi) in enumerate(cases.items()):
        want = phi(W)
        scale = min(radii) ** _degree(phi)
        got = [vals[row] for vals in by_radius]
        err = max(abs(g - want) for g in got) / scale
        indep = None
        if worst_indep is not None:
            indep = max(abs(a - b) for a, b in combinations(got, 2)) / scale
            worst_indep = max(worst_indep, indep)
        details[name] = {"residual": err, "radius_independence": indep}
        worst = max(worst, err)
    residual = worst if worst_indep is None else max(worst, indep_ratio * worst_indep)
    return CheckResult(
        "collapse", residual, tol, nodes,
        {"cases": details, "r_independence_worst": worst_indep, "r_independence_tol": tol / indep_ratio},
    )


def _basis_indices():
    """The (2l, 2n, 2m) of every t^l_{n,m} with 2l <= 3."""
    for L in range(4):
        for n in range(-L, L + 1, 2):
            for m in range(-L, L + 1, 2):
                yield (L, n, m)


def _dual(L: int, n: int, m: int, k: int) -> BasisExpansion:
    """The dual t^l_{m,n}(Z^-1) N^k of t^l_{n,m}, as a plain-index term."""
    di, fac = term_of_inverse_argument(L, m, n, k)
    return BasisExpansion({di: fac})


def _gram(spec: QuadratureSpec, prims, duals) -> np.ndarray:
    """Every pairing sum_nodes w * prim_i * dual_j over the cycle of `spec`, as one S^3_R pass.

    Each row must be homogeneous (`_degree`).  With the u2 nodes lam_k q
    and weights of `_phases`, the u2 sum of a pair of degrees d_i, d_j is
    its s3 sum times -i R (pi/n) sum_k lam_k^(d_i+d_j+4); on s3 that phase
    sum is 1.  The s3 sums are
    (P * w) @ D^T, added over node blocks in order.  OpenBLAS splits that
    product between threads by blocks of the result, not along the node
    sum; with one row or column numpy calls gemv or dot, which may, so
    those pairings are pairwise sums.  A non-finite sum aborts, naming a
    node where P * w or D is not finite if there is one.  A row's 1/N(Z)^e
    is R^(-2e) in size and can underflow without turning non-finite, so a
    finite pass at a radius where that is subnormal is refused too, as
    `_blocks` refuses a subnormal R^3.
    """
    R, n = spec.radius, spec.nodes_per_dim
    m = np.add.outer([_degree(f) for f in prims], [_degree(f) for f in duals]) + 4
    phase = _phases(spec.chart, R, n, m.ravel())[1].sum(axis=0).reshape(m.shape)
    # One (rows, block) buffer per side; each block writes its rows in place.
    bufs = [np.empty((len(fs), min(GRAM_BLOCK, n**3)), dtype=complex) for fs in (prims, duals)]
    gram = None
    for a, b, c, d, w in _blocks(R, n):
        powers = EntryPowers(a, b, c, d)
        prim, dual = (buf[:, :w.size] for buf in bufs)
        for rows, fs in ((prim, prims), (dual, duals)):
            for row, f in zip(rows, fs):
                row[...] = powers.value(f)  # a constant row (t^0 N^0) fills every node
        prim *= w
        part = prim @ dual.T if min(len(prim), len(dual)) > 1 else (prim[:, None] * dual).sum(axis=-1)
        gram = part if gram is None else gram + part
        if not np.isfinite(gram).all():
            for vals in (prim, dual):
                _require_finite(vals, a, b, c, d)
            raise FloatingPointError(f"a pairing sum at radius {R} overflows")
    e = max((-idx.k for f in (*prims, *duals) for idx in f.coeffs), default=0)
    if e > 0 and R > sys.float_info.min ** (-0.5 / e):
        raise FloatingPointError(f"a power 1/N(Z)^{e} of a pairing row underflows at radius {R}")
    return phase * gram


def _orthogonality_grams(R: float, nodes_s3: int, nodes_u2: int):
    """Gram matrices of both pairings, each with its exact diagonal and the size of each entry.

    Rows and columns follow `_basis_indices`; on the 4-cycle each index
    takes the norm powers k = 0, 1 in turn.  The exact values vanish off
    the diagonal.  A pair of degrees d_i, d_j scales as R^(d_i+d_j+2) on
    S^3_R (with dS/R) and as R^(d_i+d_j+4) on U(2)_R (with dV), so its
    rounding error is that size times a few ulps.
    """
    idxs = list(_basis_indices())

    def size(prims, duals, measure_degree):
        return R ** (np.add.outer([_degree(f) for f in prims], [_degree(f) for f in duals]) + measure_degree)

    # Harmonic pairing on the 3-sphere.
    prims = [BasisExpansion({TIndex(L, n, m, 0): 1}).degt() for (L, n, m) in idxs]
    duals = [_dual(L, n, m, -1) for (L, n, m) in idxs]
    sphere = (_gram(QuadratureSpec("s3", R, nodes_s3), prims, duals) / (2.0 * np.pi**2 * R),
              np.ones(len(idxs)), size(prims, duals, 2))

    # Polynomial pairing on the 4-cycle.
    prims = [BasisExpansion({TIndex(L, n, m, kk): 1}) for (L, n, m) in idxs for kk in (0, 1)]
    duals = [_dual(L, n, m, -kk - 2) for (L, n, m) in idxs for kk in (0, 1)]
    cycle = (1j / (2.0 * np.pi**3) * _gram(QuadratureSpec("u2", R, nodes_u2), prims, duals),
             np.repeat([1.0 / (L + 1) for (L, _, _) in idxs], 2), size(prims, duals, 4))
    return sphere, cycle


def orthogonality_check(R: float = 0.9, nodes_s3: int = 24, nodes_u2: int = 16, tol: float = 1e-6) -> CheckResult:
    """Both orthogonality families against their exact Kronecker values, for 2l <= 3.

    The harmonic pairing is integrated over S^3_R for all pairs of an
    element t^l_{n,m} with an inverse-argument dual; the polynomial
    pairing over the 4-cycle additionally scans norm powers k, k' in
    {0, 1} and checks the 1/(2l+1) values with delta matching in k.
    Each family is one Gram-matrix product over one S^3 grid.  Each
    entry's error is taken relative to its size R^D, so the check holds
    at every radius.
    """
    (gs, want_s, size_s), (gu, want_u, size_u) = _orthogonality_grams(R, nodes_s3, nodes_u2)
    h_worst = float((np.abs(gs - np.diag(want_s)) / size_s).max())
    u_worst = float((np.abs(gu - np.diag(want_u)) / size_u).max())
    return CheckResult(
        "orthogonality", max(h_worst, u_worst), tol, max(nodes_s3, nodes_u2),
        {"pairs_sphere": gs.size, "pairs_cycle": gu.size,
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


def conformal_check(r: float = 1.0, nodes: int = 20, tol: float = 1e-4, seed: int = 20240) -> CheckResult:
    """Conformal covariance of the one-loop integral under five near-identity maps of scale 0.05.

    For h with blocks (a, b, c, d) and inverse blocks (a', b', c', d'),
    the transformed integral must equal
    N(a'-Z1 c') N(c Z2+d) N(c W1+d) N(a'-W2 c') times the original.
    The maps are conjugated by the dilation Z -> rZ, so they move the
    points by the same relative amount at every radius.  A map that
    moves a point across the cycle is refused (DomainError naming the
    point), not redrawn; at this scale none of 20 000 seeds draws one.
    The maps are drawn first; the original and every moved point set
    are then integrated in one pass.
    """
    scale = 0.05
    rng = np.random.default_rng(seed)
    Z1, Z2, W1, W2 = points = _covariance_points(rng, r)
    _require_one_loop_sides(points, r)
    maps = []
    for _ in range(5):
        h = random_near_identity(rng, scale, r)
        moved = tuple(conformal_act(h, P) for P in points)
        _require_one_loop_sides(moved, r, "h({})")
        maps.append((h, moved))
    one = BasisExpansion.one()
    base, *moved_vals = _kernel_pass("u2", r, nodes, [(one, points)] + [(one, moved) for _, moved in maps])
    details = []
    for (h, _), moved in zip(maps, moved_vals):
        fac = (
            norm(h.ap - Z1 * h.cp)
            * norm(h.c * Z2 + h.d)
            * norm(h.c * W1 + h.d)
            * norm(h.ap - W2 * h.cp)
        )
        details.append(float(abs(moved - fac * base) / abs(moved)))
    return CheckResult("conformal", max(details), tol, nodes, {"samples": details, "scale": scale})


# Each suite's check, the argument that --radius sets ("radii" takes a
# tuple) and the arguments that --nodes sets.
_CHECKS = {
    "normalization": (normalization_check, "radii", ("nodes",)),
    "poisson": (poisson_check, "R", ("nodes",)),
    "lemma-zp": (lemma_zp_check, "R", ("nodes",)),
    "collapse": (collapse_check, "radii", ("nodes",)),
    "orthogonality": (orthogonality_check, "R", ("nodes_s3", "nodes_u2")),
    "conformal": (conformal_check, "r", ("nodes",)),
}
SUITES = tuple(_CHECKS)


def run_suite(name: str, radius: float | None = None, nodes: int | None = None,
              tol: float | None = None) -> tuple[CheckResult, ...]:
    """Run one named check (or "all"), in SUITES order; only the flags given are passed on."""
    if name != "all" and name not in _CHECKS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    checks = []
    for nm in SUITES if name == "all" else (name,):
        check, radius_arg, node_args = _CHECKS[nm]
        kwargs = {}
        if radius is not None:
            kwargs[radius_arg] = (radius,) if radius_arg == "radii" else radius
        if nodes is not None:
            kwargs.update(dict.fromkeys(node_args, nodes))
        if tol is not None:
            kwargs["tol"] = tol
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite values raise
                checks.append(check(**kwargs))
        except (ValueError, ArithmeticError) as exc:
            if name != "all":
                raise
            raise type(exc)(f"{nm}: {exc}") from exc
    return tuple(checks)
