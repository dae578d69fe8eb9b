"""Complexified quaternion arithmetic and the integration cycles.

A complexified quaternion is a 2x2 complex matrix Z with quadratic norm
N(Z) = det Z = z11*z22 - z12*z21.  Under the coordinate identification

    Z = [[z0 - i*z3, -i*z1 - z2],
         [-i*z1 + z2, z0 + i*z3]]

the norm equals (z0)^2 + (z1)^2 + (z2)^2 + (z3)^2.  The conformal group
acts by fractional linear transformations Z -> (aZ+b)(cZ+d)^-1.  Here
is the arithmetic that the verification checks use: +, - and * of
points, norm, inverse, that action, and which side of U(2)_R a point is on.

This module also holds the one chart definition of the integration
cycles, `chart_s3`, vectorised over numpy arrays of angles: S^3_R, the
real quaternions of norm R^2, with the surface measure dS (total
2*pi^2*R^3).  U(2)_R, the R-scaled unitary matrices, is e^{i phi} S^3_R
with phi in [0, pi) (the double cover (phi, q) ~ (phi + pi, -q) is
halved); its holomorphic 4-form dV = (1/4) dz11^dz12^dz21^dz22 is
-i R e^{4 i phi} dphi dS there, oriented so that the integral of
dV/N(Z)^2 is -2*pi^3*i.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexQuaternion",
    "GroupElement",
    "norm",
    "inverse",
    "conformal_act",
    "domain_side",
    "chart_s3",
    "random_matrix",
    "random_near_identity",
    "BOUNDARY_TOL",
]

# Definiteness tolerance: an eigenvalue of (Z/R)(Z/R)* - 1 of magnitude
# below BOUNDARY_TOL marks a Shilov-boundary point.
BOUNDARY_TOL = 1e-10

_SINGULAR_TOL = 1e-14  # `inverse` refuses Z with |N(Z)| below this


@dataclass(frozen=True)
class ComplexQuaternion:
    """A point of H (x) C, stored as the four entries of a 2x2 complex matrix."""

    z11: complex
    z12: complex
    z21: complex
    z22: complex

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

    def __mul__(self, other: "ComplexQuaternion") -> "ComplexQuaternion":
        return ComplexQuaternion(
            self.z11 * other.z11 + self.z12 * other.z21,
            self.z11 * other.z12 + self.z12 * other.z22,
            self.z21 * other.z11 + self.z22 * other.z21,
            self.z21 * other.z12 + self.z22 * other.z22,
        )


def norm(Z: ComplexQuaternion) -> complex:
    """Quadratic norm N(Z) = z11*z22 - z12*z21 (the determinant)."""
    return Z.z11 * Z.z22 - Z.z12 * Z.z21


def inverse(Z: ComplexQuaternion) -> ComplexQuaternion:
    """Matrix inverse, N(Z)^-1 times the adjugate.  Raises on singular Z."""
    n = norm(Z)
    if abs(n) < _SINGULAR_TOL:
        raise ZeroDivisionError(f"singular complexified quaternion, N(Z)={n}")
    return ComplexQuaternion(Z.z22 / n, -Z.z12 / n, -Z.z21 / n, Z.z11 / n)


class GroupElement:
    """A conformal transformation h = [[a, b], [c, d]]: a 4x4 complex matrix in 2x2 blocks.

    The blocks of h^-1 are cached as a', b', c', d'; they enter the
    covariance factors of the four-point integrals.
    """

    __slots__ = ("a", "b", "c", "d", "ap", "bp", "cp", "dp")

    def __init__(self, m: np.ndarray):
        self.a, self.b, self.c, self.d = _blocks(m)
        self.ap, self.bp, self.cp, self.dp = _blocks(np.linalg.inv(m))


def _blocks(m: np.ndarray) -> tuple[ComplexQuaternion, ...]:
    """The 2x2 blocks of a 4x4 matrix, row by row."""
    return tuple(ComplexQuaternion.from_matrix(m[r:r + 2, c:c + 2]) for r in (0, 2) for c in (0, 2))


def conformal_act(h: GroupElement, Z: ComplexQuaternion) -> ComplexQuaternion:
    """Fractional linear action Z -> (aZ + b)(cZ + d)^-1."""
    return (h.a * Z + h.b) * inverse(h.c * Z + h.d)


def domain_side(Z: ComplexQuaternion, R: float) -> str:
    """Position of Z relative to the Shilov boundary U(2)_R.

    Returns "plus" when ZZ* < R^2 (inside), "minus" when ZZ* > R^2
    (outside), "boundary" when an eigenvalue of ZZ* - R^2 is within
    tolerance of zero, and "indefinite" otherwise.  The eigenvalues are
    those of (Z/R)(Z/R)* - 1, so the answer does not depend on the scale
    of Z and R, also where Z Z* or R^2 would leave the float range.
    """
    if R <= 0:
        raise ValueError("radius must be positive")
    m = Z.as_matrix() / R
    eigs = np.linalg.eigvalsh(m @ m.conj().T) - 1.0
    if np.any(np.abs(eigs) < BOUNDARY_TOL):
        return "boundary"
    if np.all(eigs < 0):
        return "plus"
    if np.all(eigs > 0):
        return "minus"
    return "indefinite"


def chart_s3(R: float, psi, theta, chi):
    """Chart of S^3_R (real quaternion coordinates) at Hopf angles; numpy-broadcasting.

    Returns (z11, z12, z21, z22, density) for the points R * q(psi, theta, chi),
    with q the unit quaternion
    [[cos(theta) e^{i psi}, sin(theta) e^{i chi}],
     [-sin(theta) e^{-i chi}, cos(theta) e^{-i psi}]];
    ranges psi, chi in [0, 2 pi), theta in [0, pi/2].  The surface density
    R^3 cos(theta) sin(theta) integrates to 2*pi^2*R^3 over the chart.
    """
    c, s = np.cos(theta), np.sin(theta)
    z11 = R * c * np.exp(1j * psi)
    z12 = R * s * np.exp(1j * chi)
    z21 = -R * s * np.exp(-1j * chi)
    z22 = R * c * np.exp(-1j * psi)
    density = R**3 * c * s
    return z11, z12, z21, z22, density


def random_matrix(rng: random.Random, n: int) -> np.ndarray:
    """n x n complex matrix of entries x + iy, x and y uniform on [-1, 1], drawn entry by entry, row by row."""
    return np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)])


def random_near_identity(rng: random.Random, scale: float, radius: float = 1.0) -> GroupElement:
    """Random h with ||h - 1|| about `scale` (max-entry), conjugated by Z -> radius Z
    (b times radius, c over radius): it moves points near U(2)_radius by a relative `scale`."""
    m = np.eye(4, dtype=complex) + scale * random_matrix(rng, 4) / 2.0
    m[:2, 2:] *= radius
    m[2:, :2] /= radius
    return GroupElement(m)
