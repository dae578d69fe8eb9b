"""Complexified quaternion arithmetic and the integration cycles.

A complexified quaternion is a 2x2 complex matrix Z with quadratic norm
N(Z) = det Z = z11*z22 - z12*z21.  Under the coordinate identification

    Z = [[z0 - i*z3, -i*z1 - z2],
         [-i*z1 + z2, z0 + i*z3]]

the norm equals (z0)^2 + (z1)^2 + (z2)^2 + (z3)^2.  The conformal group
acts by fractional linear transformations Z -> (aZ+b)(cZ+d)^-1.

This module also holds the one chart definition of each integration
cycle used by the verification suite, vectorised over numpy arrays of
angles (the quadrature grids are these charts at 1-D node arrays
placed on separate axes):

* U(2)_R, the set of R-scaled unitary matrices, carrying the holomorphic
  4-form dV = (1/4) dz11^dz12^dz21^dz22, oriented so that the integral
  of dV/N(Z)^2 equals -2*pi^3*i;
* S^3_R, the real quaternions of norm R^2, carrying the Euclidean
  surface measure dS (total 2*pi^2*R^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexQuaternion",
    "GroupElement",
    "norm",
    "inverse",
    "conformal_act",
    "domain_side",
    "in_domain",
    "chart_u2",
    "chart_s3",
    "random_near_identity",
    "BOUNDARY_TOL",
]

# Definiteness tolerance: an eigenvalue of ZZ* - R^2 of magnitude below
# BOUNDARY_TOL * R^2 marks a Shilov-boundary point.
BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class ComplexQuaternion:
    """A point of H (x) C, stored as the four entries of a 2x2 complex matrix."""

    z11: complex
    z12: complex
    z21: complex
    z22: complex

    @staticmethod
    def identity() -> "ComplexQuaternion":
        return ComplexQuaternion(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def zero() -> "ComplexQuaternion":
        return ComplexQuaternion(0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_coords(z0: complex, z1: complex, z2: complex, z3: complex) -> "ComplexQuaternion":
        """Build Z from quaternion coordinates (z0, z1, z2, z3)."""
        return ComplexQuaternion(
            z0 - 1j * z3, -1j * z1 - z2, -1j * z1 + z2, z0 + 1j * z3
        )

    def to_coords(self) -> tuple[complex, complex, complex, complex]:
        """Quaternion coordinates (z0, z1, z2, z3) of Z."""
        z0 = (self.z11 + self.z22) / 2
        z3 = (self.z22 - self.z11) / (2j)
        z1 = (self.z12 + self.z21) / (-2j)
        z2 = (self.z21 - self.z12) / 2
        return z0, z1, z2, z3

    @staticmethod
    def from_matrix(m) -> "ComplexQuaternion":
        return ComplexQuaternion(complex(m[0][0]), complex(m[0][1]), complex(m[1][0]), complex(m[1][1]))

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.z11, self.z12], [self.z21, self.z22]], dtype=complex)

    def __add__(self, other: "ComplexQuaternion") -> "ComplexQuaternion":
        return ComplexQuaternion(
            self.z11 + other.z11, self.z12 + other.z12,
            self.z21 + other.z21, self.z22 + other.z22,
        )

    def __sub__(self, other: "ComplexQuaternion") -> "ComplexQuaternion":
        return ComplexQuaternion(
            self.z11 - other.z11, self.z12 - other.z12,
            self.z21 - other.z21, self.z22 - other.z22,
        )

    def __mul__(self, other) -> "ComplexQuaternion":
        if isinstance(other, ComplexQuaternion):
            return ComplexQuaternion(
                self.z11 * other.z11 + self.z12 * other.z21,
                self.z11 * other.z12 + self.z12 * other.z22,
                self.z21 * other.z11 + self.z22 * other.z21,
                self.z21 * other.z12 + self.z22 * other.z22,
            )
        return self.scale(other)

    def __rmul__(self, other) -> "ComplexQuaternion":
        return self.scale(other)

    def __neg__(self) -> "ComplexQuaternion":
        return self.scale(-1.0)

    def scale(self, s: complex) -> "ComplexQuaternion":
        return ComplexQuaternion(s * self.z11, s * self.z12, s * self.z21, s * self.z22)

    def star(self) -> "ComplexQuaternion":
        """Conjugate transpose Z*."""
        return ComplexQuaternion(
            self.z11.conjugate(), self.z21.conjugate(),
            self.z12.conjugate(), self.z22.conjugate(),
        )


def norm(Z: ComplexQuaternion) -> complex:
    """Quadratic norm N(Z) = z11*z22 - z12*z21 (the determinant)."""
    return Z.z11 * Z.z22 - Z.z12 * Z.z21


def inverse(Z: ComplexQuaternion, tol: float = 1e-14) -> ComplexQuaternion:
    """Matrix inverse, N(Z)^-1 times the adjugate.  Raises on singular Z."""
    n = norm(Z)
    if abs(n) < tol:
        raise ZeroDivisionError(f"singular complexified quaternion, N(Z)={n}")
    return ComplexQuaternion(Z.z22 / n, -Z.z12 / n, -Z.z21 / n, Z.z11 / n)


class GroupElement:
    """A conformal transformation, a 2x2 block matrix h = [[a, b], [c, d]] over H (x) C.

    The blocks of h^-1 are cached as a', b', c', d'; they enter the second
    form of the fractional linear action and the covariance factors of the
    four-point integrals.
    """

    __slots__ = ("a", "b", "c", "d", "ap", "bp", "cp", "dp")

    def __init__(self, a: ComplexQuaternion, b: ComplexQuaternion,
                 c: ComplexQuaternion, d: ComplexQuaternion):
        self.a, self.b, self.c, self.d = a, b, c, d
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = a.as_matrix()
        m[:2, 2:] = b.as_matrix()
        m[2:, :2] = c.as_matrix()
        m[2:, 2:] = d.as_matrix()
        mi = np.linalg.inv(m)
        self.ap = ComplexQuaternion.from_matrix(mi[:2, :2])
        self.bp = ComplexQuaternion.from_matrix(mi[:2, 2:])
        self.cp = ComplexQuaternion.from_matrix(mi[2:, :2])
        self.dp = ComplexQuaternion.from_matrix(mi[2:, 2:])

    @staticmethod
    def identity() -> "GroupElement":
        one = ComplexQuaternion.identity()
        zero = ComplexQuaternion.zero()
        return GroupElement(one, zero, zero, one)

    @staticmethod
    def from_matrix(m: np.ndarray) -> "GroupElement":
        return GroupElement(
            ComplexQuaternion.from_matrix(m[:2, :2]),
            ComplexQuaternion.from_matrix(m[:2, 2:]),
            ComplexQuaternion.from_matrix(m[2:, :2]),
            ComplexQuaternion.from_matrix(m[2:, 2:]),
        )

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = self.a.as_matrix()
        m[:2, 2:] = self.b.as_matrix()
        m[2:, :2] = self.c.as_matrix()
        m[2:, 2:] = self.d.as_matrix()
        return m

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Group product self * other (acts as: first other, then self)."""
        return GroupElement.from_matrix(self.as_matrix() @ other.as_matrix())


def conformal_act(h: GroupElement, Z: ComplexQuaternion) -> ComplexQuaternion:
    """Fractional linear action Z -> (aZ + b)(cZ + d)^-1."""
    return (h.a * Z + h.b) * inverse(h.c * Z + h.d)


def conformal_act_alt(h: GroupElement, Z: ComplexQuaternion) -> ComplexQuaternion:
    """Equivalent left-quotient form (a' - Z c')^-1 (-b' + Z d')."""
    return inverse(h.ap - Z * h.cp) * (Z * h.dp - h.bp)


def domain_side(Z: ComplexQuaternion, R: float) -> str:
    """Position of Z relative to the Shilov boundary U(2)_R.

    Returns "plus" when ZZ* < R^2 (inside), "minus" when ZZ* > R^2
    (outside), "boundary" when an eigenvalue of ZZ* - R^2 is within
    tolerance of zero, and "indefinite" otherwise.
    """
    if R <= 0:
        raise ValueError("radius must be positive")
    zz = Z.as_matrix() @ Z.as_matrix().conj().T
    eigs = np.linalg.eigvalsh(zz) - R * R
    scale = R * R
    if np.any(np.abs(eigs) < BOUNDARY_TOL * scale):
        return "boundary"
    if np.all(eigs < 0):
        return "plus"
    if np.all(eigs > 0):
        return "minus"
    return "indefinite"


def in_domain(Z: ComplexQuaternion, R: float, sign: str) -> bool:
    """True iff Z lies strictly inside (sign="plus") or outside (sign="minus") U(2)_R."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    return domain_side(Z, R) == sign


def chart_u2(R: float, phi, psi, theta, chi):
    """Chart of U(2)_R at angles (phi, psi, theta, chi); numpy-broadcasting.

    Returns (z11, z12, z21, z22, density) for the points
    R * e^{i phi} * q(psi, theta, chi), with q the unit quaternion
    [[cos(theta) e^{i psi}, sin(theta) e^{i chi}],
     [-sin(theta) e^{-i chi}, cos(theta) e^{-i psi}]];
    ranges phi in [0, pi), psi, chi in [0, 2 pi), theta in [0, pi/2].
    The double cover (phi, q) ~ (phi + pi, -q) is handled by the halved
    phi range.  The density

        -i * R^4 * e^{4 i phi} * cos(theta) * sin(theta)

    is the closed-form Jacobian of dV = (1/4) dz11^dz12^dz21^dz22 in this
    chart, with the global sign calibrated so that integrating
    density / N(Z)^2 over the chart yields -2*pi^3*i.

    Only the angle inputs pass through exp, cos and sin; the entries are
    products of these factors, so 1-D node arrays on separate axes give
    the whole product grid by broadcasting.
    """
    c, s = np.cos(theta), np.sin(theta)
    e = np.exp(1j * phi)
    z11 = R * c * e * np.exp(1j * psi)
    z12 = R * s * e * np.exp(1j * chi)
    z21 = -R * s * e * np.exp(-1j * chi)
    z22 = R * c * e * np.exp(-1j * psi)
    density = -1j * R**4 * np.exp(4j * phi) * c * s
    return z11, z12, z21, z22, density


def chart_s3(R: float, psi, theta, chi):
    """Chart of S^3_R (real quaternion coordinates) at Hopf angles; numpy-broadcasting.

    Returns (z11, z12, z21, z22, density): the points R * q(psi, theta, chi)
    of `chart_u2` at phi = 0 and the surface density R^3 cos(theta) sin(theta),
    whose integral over the full chart is 2*pi^2*R^3.
    """
    c, s = np.cos(theta), np.sin(theta)
    z11 = R * c * np.exp(1j * psi)
    z12 = R * s * np.exp(1j * chi)
    z21 = -R * s * np.exp(-1j * chi)
    z22 = R * c * np.exp(-1j * psi)
    density = R**3 * c * s
    return z11, z12, z21, z22, density


def random_near_identity(rng: np.random.Generator, scale: float) -> GroupElement:
    """Random conformal transformation with ||h - 1|| about `scale` (max-entry)."""
    m = np.eye(4, dtype=complex) + scale * (
        rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    ) / 2.0
    return GroupElement.from_matrix(m)
