"""The five-angle single-qubit neuron as a Bloch-vector chain.

The input state cos(theta/2)|0> + sin(theta/2)|1> has Bloch vector
n = (sin theta, 0, cos theta). The neuron Rz(gamma)Ry(beta)Rz(alpha)
turns it about z, y and z, and the projector pair at Bloch angle omega
with eigenvalues +1/-1 reads the result against m = (-sin omega, 0,
cos omega) (Nielsen & Chuang, section 4.2):

    y = m . Rz(gamma) Ry(beta) Rz(alpha) n

n and m are the z axis turned about y by theta and by -omega, so all
five angles are rotations of one chain. The forward pass carries n
through Rz(alpha), Ry(beta) and Rz(gamma). The reverse pass pulls m back
through the same rotations. Each partial derivative is the pulled-back
m dotted with the rotation axis crossed with the forward vector at that
angle. Every (cos, sin) pair comes from the tangent of the half angle
(_cos_and_sin), the rule the reduced trainer and its prediction use too.
The test suite checks the value and the partials against explicit 2x2
matrix products (tests/oracle.py).
"""

from __future__ import annotations

import numpy as np

__all__ = ["expectation_batch", "gradient_batch"]


def _rz(c, s, v):
    """Turn Bloch vector v about z by the angle with cosine c, sine s."""
    x, y, z = v
    return c * x - s * y, s * x + c * y, z


def _ry(c, s, v):
    """Turn Bloch vector v about y by the angle with cosine c, sine s."""
    x, y, z = v
    return c * x + s * z, y, c * z - s * x


def _dz(m, v):
    """m . (z x v): the rate of change of m . v as v turns about z."""
    return m[1] * v[0] - m[0] * v[1]


def _dy(m, v):
    """m . (y x v): the rate of change of m . v as v turns about y."""
    return m[0] * v[2] - m[2] * v[0]


def _cos_and_sin(half, out=None):
    """cos and sin of 2 half from t = tan(half): with r = 2 / (1 + t^2),
    cos = r - 1 and sin = t r (numpy vectorises float64 tan but not sin
    and cos). In place: half ends up holding sin, cos goes to `out`."""
    t = np.tan(half, out=half)
    r = np.square(t, out=np.empty_like(t) if out is None else out)
    r += 1.0
    np.divide(2.0, r, out=r)
    t *= r
    r -= 1.0
    return r, t


def _forward(alpha, beta, gamma, theta, omega):
    """The expectation, plus what the reverse pass needs: each rotation's
    (cos, sin), the input and observable vectors, and the Bloch vector
    after each rotation."""
    trig = list(zip(*_cos_and_sin(0.5 * np.array(np.broadcast_arrays(alpha, beta, gamma)))))
    (ct, co), (st, so) = _cos_and_sin(0.5 * np.array(np.broadcast_arrays(theta, omega)))
    n, m = (st, 0.0, ct), (-so, 0.0, co)
    v1 = _rz(*trig[0], n)
    v2 = _ry(*trig[1], v1)
    v3 = _rz(*trig[2], v2)
    return m[0] * v3[0] + m[2] * v3[2], (trig, n, m, v1, v2, v3)


def expectation_batch(alpha, beta, gamma, theta, omega):
    """Expectation value, vectorized over numpy-broadcastable angles."""
    return _forward(alpha, beta, gamma, theta, omega)[0]


def gradient_batch(alpha, beta, gamma, theta, omega):
    """Expectation value and its partial derivatives with respect to
    (alpha, beta, gamma, theta, omega), vectorized over numpy-broadcastable
    angles: `(value, (d_alpha, d_beta, d_gamma, d_theta, d_omega))`."""
    value, ((za, yb, zg), n, m, v1, v2, v3) = _forward(alpha, beta, gamma, theta, omega)
    m2 = _rz(zg[0], -zg[1], m)
    m1 = _ry(yb[0], -yb[1], m2)
    m0 = _rz(za[0], -za[1], m1)
    return value, (_dz(m1, v1), _dy(m2, v2), _dz(m, v3), _dy(m0, n), _dy(m, v3))
