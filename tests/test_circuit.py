"""Circuit algebra: gates, neurons, observables, expectations, gradients."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from sqnn.circuit import _cos_and_sin, expectation_batch, gradient_batch

from oracle import (AngleSet, Observable, QubitState, central_differences,
                    effective_neuron, expectation_matrix, neuron_matrix, rotation_gate)

I2 = np.eye(2, dtype=complex)


def matmul2(a, b):
    """Element-wise 2x2 complex multiply, independent of numpy's matmul."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[i, j] = a[i, 0] * b[0, j] + a[i, 1] * b[1, j]
    return out


def random_angles(rng, n):
    return rng.uniform(-2 * np.pi, 2 * np.pi, size=(n, 5))


class TestRotationGate:
    def test_z_zero_is_identity(self):
        np.testing.assert_allclose(rotation_gate("z", 0.0), I2, atol=1e-15)

    def test_y_pi(self):
        np.testing.assert_allclose(rotation_gate("y", np.pi),
                                   np.array([[0, -1], [1, 0]]), atol=1e-15)

    def test_x_random_is_unitary(self):
        rng = np.random.default_rng(7)
        for angle in rng.uniform(-10, 10, 50):
            g = rotation_gate("x", angle)
            np.testing.assert_allclose(matmul2(g.conj().T, g), I2, atol=1e-12)

    def test_all_axes_unitary(self):
        rng = np.random.default_rng(8)
        for axis in "xyz":
            for angle in rng.uniform(-10, 10, 20):
                g = rotation_gate(axis, angle)
                np.testing.assert_allclose(g.conj().T @ g, I2, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            rotation_gate("w", 1.0)

    def test_nonfinite_angle(self):
        with pytest.raises(ValueError, match="finite"):
            rotation_gate("x", float("nan"))

    def test_multiplication_associative(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            a, b, c = (rotation_gate(ax, ang) for ax, ang in
                       zip("xyz", rng.uniform(-5, 5, 3)))
            left = matmul2(matmul2(a, b), c)
            right = matmul2(a, matmul2(b, c))
            np.testing.assert_allclose(left, right, atol=1e-12)


class TestNeuronMatrix:
    def test_zeros_is_identity(self):
        np.testing.assert_allclose(neuron_matrix(0, 0, 0), I2, atol=1e-15)

    def test_pure_ry(self):
        beta = 1.234
        np.testing.assert_allclose(neuron_matrix(0, beta, 0),
                                   rotation_gate("y", beta), atol=1e-15)

    def test_matches_elementwise_product(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            alpha, beta, gamma = rng.uniform(-7, 7, 3)
            expected = matmul2(rotation_gate("z", gamma),
                               matmul2(rotation_gate("y", beta),
                                       rotation_gate("z", alpha)))
            np.testing.assert_allclose(neuron_matrix(alpha, beta, gamma),
                                       expected, atol=1e-12)

    def test_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = neuron_matrix(*rng.uniform(-7, 7, 3))
            np.testing.assert_allclose(n.conj().T @ n, I2, atol=1e-12)


class TestEffectiveNeuron:
    def test_single(self):
        triple = (0.2, -1.0, 0.5)
        np.testing.assert_allclose(effective_neuron([triple]),
                                   neuron_matrix(*triple), atol=1e-15)

    def test_ry_angles_sum(self):
        b1, b2 = 0.7, -2.1
        np.testing.assert_allclose(effective_neuron([(0, b1, 0), (0, b2, 0)]),
                                   rotation_gate("y", b1 + b2), atol=1e-12)

    def test_three_random_vs_fold(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            triples = [tuple(rng.uniform(-5, 5, 3)) for _ in range(3)]
            acc = I2
            for t in triples:
                acc = matmul2(neuron_matrix(*t), acc)
            np.testing.assert_allclose(effective_neuron(triples), acc, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            effective_neuron([])


class TestObservable:
    def test_projector_algebra(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            obs = Observable(omega=rng.uniform(-7, 7), varphi=rng.uniform(-7, 7))
            p1 = obs.projector_p1()
            p0 = obs.projector_p0()
            np.testing.assert_allclose(p1 @ p1, p1, atol=1e-12)
            np.testing.assert_allclose(p1.conj().T, p1, atol=1e-12)
            np.testing.assert_allclose(p0 @ p1, np.zeros((2, 2)), atol=1e-12)
            u = obs.basis_change()
            np.testing.assert_allclose(u.conj().T @ u, I2, atol=1e-12)

    def test_basis_change_diagonalizes(self):
        # The columns of the basis-change unitary are the projector
        # eigenvectors, so conjugation diagonalizes P1.
        obs = Observable(omega=0.9, varphi=-1.4)
        u = obs.basis_change()
        diag = u.conj().T @ obs.projector_p1() @ u
        np.testing.assert_allclose(diag, np.diag([1, 0]).astype(complex), atol=1e-12)


class TestExpectation:
    def test_identity_circuit(self):
        assert expectation_matrix(AngleSet()) == pytest.approx(1.0, abs=1e-12)

    def test_ry_pi_flips(self):
        a = AngleSet(beta=np.pi)
        assert expectation_matrix(a) == pytest.approx(-1.0, abs=1e-12)
        assert expectation_batch(*astuple(a)) == pytest.approx(-1.0, abs=1e-12)

    def test_omega_zero_reduction(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            alpha, beta, theta = rng.uniform(-7, 7, 3)
            expected = math.cos(beta) * math.cos(theta) - \
                math.cos(alpha) * math.sin(beta) * math.sin(theta)
            assert expectation_batch(alpha, beta, 0.0, theta, 0.0) == \
                pytest.approx(expected, abs=1e-12)

    def test_theta_omega_zero_is_cos_beta(self):
        rng = np.random.default_rng(15)
        for beta in rng.uniform(-7, 7, 100):
            alpha, gamma = rng.uniform(-7, 7), rng.uniform(-7, 7)
            assert expectation_batch(alpha, beta, gamma, 0.0, 0.0) == \
                pytest.approx(math.cos(beta), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(17)
        for row in random_angles(rng, 2000):
            assert abs(expectation_batch(*row)) <= 1.0 + 1e-12

    def test_two_pi_periodic(self):
        rng = np.random.default_rng(18)
        fields = ("alpha", "beta", "gamma", "theta", "omega")
        for row in random_angles(rng, 200):
            a = AngleSet(*row)
            base = expectation_batch(*row)
            for name in fields:
                shifted = replace(a, **{name: getattr(a, name) + 2 * np.pi})
                assert expectation_batch(*astuple(shifted)) == pytest.approx(base, abs=1e-10)
                assert expectation_matrix(shifted) == pytest.approx(base, abs=1e-10)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(19)
        for row in random_angles(rng, 100):
            a = AngleSet(*row)
            delta = rng.uniform(0, 2 * np.pi)
            state = QubitState(theta=a.theta)
            obs = Observable(omega=a.omega)
            phased = np.exp(1j * delta) * neuron_matrix(a.alpha, a.beta, a.gamma)
            amp = obs.basis_change() @ phased @ state.amplitudes()
            y = obs.lambda0 * abs(amp[0]) ** 2 + obs.lambda1 * abs(amp[1]) ** 2
            assert y == pytest.approx(expectation_matrix(a), abs=1e-12)

    def test_matrix_path_with_phases(self):
        # With nonzero state/projector phases the matrix path follows the
        # general five-term form in (alpha + phi) and (gamma - varphi).
        rng = np.random.default_rng(20)
        for _ in range(200):
            al, be, ga, th, om, ph, vph = rng.uniform(-2 * np.pi, 2 * np.pi, 7)
            got = expectation_matrix(AngleSet(al, be, ga, th, om),
                                     state=QubitState(theta=th, phi=ph),
                                     obs=Observable(omega=om, varphi=vph))
            expected = (math.cos(be) * math.cos(th) * math.cos(om)
                        - math.sin(be) * math.sin(th) * math.cos(om) * math.cos(al + ph)
                        - math.sin(be) * math.cos(th) * math.sin(om) * math.cos(ga - vph)
                        + math.sin(th) * math.sin(om) * math.sin(al + ph) * math.sin(ga - vph)
                        - math.cos(be) * math.sin(th) * math.sin(om) * math.cos(al + ph)
                        * math.cos(ga - vph))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_custom_eigenvalues_enter_linearly(self):
        # Eigenvalues are stored, not baked into the formula.
        a = AngleSet(alpha=0.3, beta=0.9, gamma=-0.2, theta=0.5, omega=1.1)
        obs = Observable(omega=a.omega, lambda0=2.0, lambda1=0.5)
        default = expectation_matrix(a)
        p1 = (1 - default) / 2  # from lambda0*p0 + lambda1*p1 with +1/-1
        assert expectation_matrix(a, obs=obs) == pytest.approx(
            2.0 * (1 - p1) + 0.5 * p1, abs=1e-12)

    def test_state_unit_norm(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            s = QubitState(theta=rng.uniform(-7, 7), phi=rng.uniform(-7, 7))
            assert np.linalg.norm(s.amplitudes()) == pytest.approx(1.0, abs=1e-12)


class TestGradient:
    def test_zero_angles_zero_gradient(self):
        np.testing.assert_allclose(gradient_batch(0.0, 0.0, 0.0, 0.0, 0.0)[1],
                                   np.zeros(5), atol=1e-15)

    def test_gamma_derivative_vanishes_at_omega_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            alpha, beta, gamma, theta = rng.uniform(-7, 7, 4)
            assert gradient_batch(alpha, beta, gamma, theta, 0.0)[1][2] == \
                pytest.approx(0.0, abs=1e-15)


BETAS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestReducedIdentity:
    """With alpha = gamma = theta = omega = 0 the five-angle kernels are
    exactly the cos(beta) and -sin(beta) of the package's one half-angle
    rule, the reduced network's value and derivative as its trainer and
    its prediction compute them, bit for bit."""

    @given(BETAS)
    def test_scalar(self, beta):
        cos, sin = _cos_and_sin(np.array(0.5 * beta))
        assert expectation_batch(0, beta, 0, 0, 0) == cos
        assert gradient_batch(0, beta, 0, 0, 0)[1][1] == -sin

    @given(st.lists(BETAS, min_size=1, max_size=64))
    def test_array(self, betas):
        beta = np.array(betas)
        cos, sin = _cos_and_sin(0.5 * beta)
        assert np.array_equal(expectation_batch(0.0, beta, 0.0, 0.0, 0.0), cos)
        assert np.array_equal(gradient_batch(0.0, beta, 0.0, 0.0, 0.0)[1][1], -sin)


ANGLES = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def matrix_path(angles):
    return expectation_matrix(AngleSet(*angles))


def assert_kernels_match_oracle(args):
    value, partials = gradient_batch(*args)
    assert np.array_equal(expectation_batch(*args), value)
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    assert np.shape(value) == shape
    assert all(np.shape(d) == shape for d in partials)
    for index in np.ndindex(shape):
        angles = [float(np.broadcast_to(a, shape)[index]) for a in args]
        assert abs(value[index] - matrix_path(angles)) <= 1e-12
        for d, want in zip(partials, central_differences(matrix_path, angles)):
            assert abs(d[index] - want) <= 1e-7


class TestKernelsAgainstOracle:
    """Value and all five partials, elementwise, against the matrix path
    and its central differences over the whole angle domain."""

    @given(st.tuples(ANGLES, ANGLES, ANGLES, ANGLES, ANGLES))
    def test_scalar(self, angles):
        assert_kernels_match_oracle(angles)

    @given(mutually_broadcastable_shapes(num_shapes=5, max_dims=2, max_side=3)
           .flatmap(lambda shapes: st.tuples(*(arrays(float, s, elements=ANGLES)
                                               for s in shapes.input_shapes))))
    def test_broadcast(self, args):
        assert_kernels_match_oracle(args)
