"""Single-qubit circuit algebra in closed form.

The input state cos(theta/2)|0> + sin(theta/2)|1> passes through the
neuron Rz(gamma)Ry(beta)Rz(alpha) and is measured against a projector
pair at Bloch angle omega with eigenvalues +1/-1. The expectation value
and its five partial derivatives are trigonometric expressions in the
five angles. The test suite checks them against explicit 2x2 matrix
products (tests/oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AngleSet",
    "expectation_closed_form",
    "expectation_gradient",
    "expectation_batch",
    "gradient_batch",
]


def _require_finite(**angles: float) -> None:
    for name, value in angles.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AngleSet:
    """The five circuit angles for one evaluation: three neuron rotations,
    the input-state polar angle and the observable projector angle."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    theta: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        _require_finite(alpha=self.alpha, beta=self.beta, gamma=self.gamma,
                        theta=self.theta, omega=self.omega)


def expectation_batch(alpha, beta, gamma, theta, omega):
    """Closed-form expectation, vectorized over numpy-broadcastable angles.

    Evaluates, with all phases zero,

        y = cos(b) cos(t) cos(w) - cos(a) sin(b) sin(t) cos(w)
            - sin(b) cos(g) cos(t) sin(w) + sin(a) sin(g) sin(t) sin(w)
            - cos(a) cos(b) cos(g) sin(t) sin(w)
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    ct, st = np.cos(theta), np.sin(theta)
    cw, sw = np.cos(omega), np.sin(omega)
    return (cb * ct * cw
            - ca * sb * st * cw
            - sb * cg * ct * sw
            + sa * sg * st * sw
            - ca * cb * cg * st * sw)


def expectation_closed_form(angles: AngleSet) -> float:
    """Closed-form expectation of one angle set (phases zero).

    Reduces to cos(b)cos(t) - cos(a)sin(b)sin(t) at omega = 0 and to
    cos(b) when theta = omega = 0.
    """
    return float(expectation_batch(angles.alpha, angles.beta, angles.gamma,
                                   angles.theta, angles.omega))


def gradient_batch(alpha, beta, gamma, theta, omega):
    """Analytic partial derivatives of the closed-form expectation with
    respect to (alpha, beta, gamma, theta, omega), vectorized.

    Returns a 5-tuple of arrays broadcast to the common input shape.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    ct, st = np.cos(theta), np.sin(theta)
    cw, sw = np.cos(omega), np.sin(omega)
    d_alpha = sa * sb * st * cw + ca * sg * st * sw + sa * cb * cg * st * sw
    d_beta = (-sb * ct * cw - ca * cb * st * cw
              - cb * cg * ct * sw + ca * sb * cg * st * sw)
    d_gamma = sb * sg * ct * sw + sa * cg * st * sw + ca * cb * sg * st * sw
    d_theta = (-cb * st * cw - ca * sb * ct * cw
               + sb * cg * st * sw + sa * sg * ct * sw - ca * cb * cg * ct * sw)
    d_omega = (-cb * ct * sw + ca * sb * st * sw
               - sb * cg * ct * cw + sa * sg * st * cw - ca * cb * cg * st * cw)
    return d_alpha, d_beta, d_gamma, d_theta, d_omega


def expectation_gradient(angles: AngleSet) -> np.ndarray:
    """Gradient of the closed-form expectation for one angle set, as the
    5-vector (d/d alpha, d/d beta, d/d gamma, d/d theta, d/d omega)."""
    parts = gradient_batch(angles.alpha, angles.beta, angles.gamma,
                           angles.theta, angles.omega)
    return np.array([float(p) for p in parts])
