"""SVD, pseudoinverse and minimum-norm least squares."""

import contextlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sqnn
from sqnn import datasets, linalg, training
from sqnn.linalg import NumericFailure, default_rcond, lls_solve, svd

from conftest import FakeThreads, fake_gelsd, fake_gesdd, fake_openblas
from oracle import pinv


def gauss_solve(a, b):
    """Gaussian elimination with partial pivoting, independent of numpy's
    solvers. Expects a square nonsingular system."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def require_openblas():
    if linalg._openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS with every routine of linalg._ROUTINES")


class TestSvd:
    def test_identity(self):
        u, s, v = svd(np.eye(3))
        np.testing.assert_allclose(s, np.ones(3), atol=1e-14)

    def test_diagonal_with_zero(self):
        _, s, _ = svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(s, [3.0, 0.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(20, 7))
            u, s, v = svd(a)
            recon = u @ np.diag(s) @ v.T
            rel = np.linalg.norm(recon - a) / np.linalg.norm(a)
            assert rel <= 1e-8
            np.testing.assert_allclose(u.T @ u, np.eye(7), atol=1e-10)
            np.testing.assert_allclose(v.T @ v, np.eye(7), atol=1e-10)
            assert np.all(np.diff(s) <= 1e-14)
            assert np.all(s >= 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            svd(np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize("shape", [(60, 7), (7, 60), (30, 30)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_is_left_unchanged(self, shape, order):
        a = np.asarray(np.random.default_rng(9).normal(size=shape), order=order)
        before = a.copy()
        svd(a)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (300, 40), (64, 50),
                                       (40, 40), (50, 64), (40, 300)])
    def test_agrees_with_numpy_and_is_orthonormal(self, shape):
        a = np.random.default_rng(10).normal(size=shape)
        u, s, v = svd(a)
        u0, s0, vt0 = np.linalg.svd(a, full_matrices=False)
        k = min(shape)
        assert u.shape == (shape[0], k) and s.shape == (k,) and v.shape == (shape[1], k)
        np.testing.assert_allclose(s, s0, rtol=0, atol=1e-13 * s0[0])
        assert np.all(np.diff(s) <= 0)
        np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-13)
        np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-13)
        np.testing.assert_allclose((u * s) @ v.T, a, atol=1e-13 * s0[0])
        # the singular values are distinct, so each vector is numpy's up to sign
        np.testing.assert_allclose(np.abs(np.sum(u * u0, axis=0)), 1.0, atol=1e-10)
        np.testing.assert_allclose(np.abs(np.sum(v * vt0.T, axis=0)), 1.0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(60, 7), (7, 60), (30, 30)])
    def test_overwrite_factorizes_in_place_bit_for_bit(self, shape):
        require_openblas()
        a = np.asfortranarray(np.random.default_rng(11).normal(size=shape))
        copied = svd(a)
        u, s, v = svd(a, overwrite_a=True)
        # dgesdd writes U (tall or square) or V.T (wide) over a
        assert np.shares_memory(u if shape[0] >= shape[1] else v, a)
        for got, want in zip((u, s, v), copied):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["C-ordered", "read-only", "integer"])
    def test_overwrite_leaves_other_inputs_unchanged(self, kind):
        a = np.random.default_rng(12).normal(size=(40, 6))
        if kind == "C-ordered":
            a = np.ascontiguousarray(a)
        elif kind == "read-only":
            a = np.asfortranarray(a)
            a.flags.writeable = False
        else:
            a = np.asfortranarray(np.rint(10 * a).astype(np.int64))
        before = a.copy()
        u, s, v = svd(a, overwrite_a=True)
        assert np.array_equal(a, before)
        for got, want in zip((u, s, v), svd(a)):
            assert np.array_equal(got, want)

    def test_overwrite_on_the_fallback_gives_the_same_result(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        a = np.asfortranarray(np.random.default_rng(13).normal(size=(40, 6)))
        before = a.copy()
        u, s, v = svd(a, overwrite_a=True)
        assert np.array_equal(a, before)
        for got, want in zip((u, s, v), svd(a)):
            assert np.array_equal(got, want)

    def test_overwrite_still_rejects_nonfinite_entries_first(self):
        a = np.asfortranarray(np.random.default_rng(14).normal(size=(20, 4)))
        a[3, 2] = np.nan
        before = a.copy()
        with pytest.raises(ValueError, match="finite"):
            svd(a, overwrite_a=True)
        assert np.array_equal(a, before, equal_nan=True)

    def test_invalid_lapack_argument_is_a_runtime_error(self, monkeypatch):
        lib = fake_openblas(gesdd=fake_gesdd(info=-5))
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        with pytest.raises(RuntimeError, match="argument 5") as caught:
            svd(np.eye(3))
        assert not isinstance(caught.value, NumericFailure)

    def test_peak_memory_stays_near_one_copy(self):
        # np.linalg.svd holds its working copy, its own U and the returned
        # U at once, about three times the matrix; svd needs about one copy
        require_openblas()
        script = (
            "import resource, numpy as np\n"
            "from sqnn.linalg import svd\n"
            "a = np.random.default_rng(0).normal(size=(20000, 200))\n"
            "svd(a[:2000])\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "svd(a)\n"
            "grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "print(grew * 1024 / a.nbytes)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(sqnn.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert float(out.stdout) < 1.5


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-12)

    def test_rank_deficient_diagonal(self):
        np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])),
                                   np.diag([0.5, 0.0]), atol=1e-12)

    def test_left_inverse_full_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(10, 4))
            np.testing.assert_allclose(pinv(a) @ a, np.eye(4), atol=1e-8)

    def test_penrose_conditions(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = rng.integers(2, 51)
            m = rng.integers(1, 21)
            a = rng.normal(size=(n, m))
            if rng.uniform() < 0.3 and m > 1:  # force rank deficiency
                a[:, -1] = a[:, 0]
            ap = pinv(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.max(np.abs(a @ ap @ a - a)) <= 1e-8 * scale
            assert np.max(np.abs(ap @ a @ ap - ap)) <= 1e-8 * scale
            np.testing.assert_allclose(a @ ap, (a @ ap).T, atol=1e-8)
            np.testing.assert_allclose(ap @ a, (ap @ a).T, atol=1e-8)

    def test_negative_rcond_rejected(self):
        with pytest.raises(ValueError, match="rcond"):
            pinv(np.eye(2), rcond=-1.0)
        with pytest.raises(ValueError, match="rcond"):
            lls_solve(np.eye(2), np.ones(2), rcond=-1.0)

    def test_default_rcond(self):
        assert default_rcond((100, 30)) == pytest.approx(100 * np.finfo(float).eps)


class TestLlsSolve:
    def test_mean_of_targets(self):
        s = lls_solve(np.array([[1.0], [1.0]]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(s, [3.0], atol=1e-12)

    def test_zero_rhs_gives_zero(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 3))
        np.testing.assert_allclose(lls_solve(a, np.zeros(6)), np.zeros(3), atol=1e-14)

    def test_matches_gaussian_elimination(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n, m = rng.integers(5, 40), rng.integers(1, 5)
            a = rng.normal(size=(n, m)) + np.eye(n, m)
            y = rng.normal(size=n)
            s = lls_solve(a, y)
            expected = gauss_solve(a.T @ a, a.T @ y)
            np.testing.assert_allclose(s, expected, atol=1e-8)

    def test_normal_equation_optimality(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, m = rng.integers(2, 60), rng.integers(1, 20)
            a = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            s = lls_solve(a, y)
            lhs = np.max(np.abs(a.T @ (a @ s - y)))
            assert lhs <= 1e-6 * (1 + np.max(np.abs(a.T @ y)))

    def test_no_perturbation_improves_residual(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        s = lls_solve(a, y)
        base = np.linalg.norm(a @ s - y)
        for _ in range(100):
            delta = rng.normal(size=6) * rng.choice([1e-3, 1e-1, 1.0])
            assert np.linalg.norm(a @ (s + delta) - y) >= base - 1e-12

    def test_direct_route_matches_normal_equation_route(self):
        rng = np.random.default_rng(7)
        tried = 0
        while tried < 20:
            n, m = rng.integers(8, 50), rng.integers(1, 8)
            a = rng.normal(size=(n, m))
            sv = np.linalg.svd(a, compute_uv=False)
            if sv[-1] <= 0 or sv[0] / sv[-1] > 1e6:
                continue  # conditioning guard
            tried += 1
            y = rng.normal(size=n)
            direct = lls_solve(a, y)
            via_normal = pinv(a.T @ a) @ a.T @ y
            np.testing.assert_allclose(direct, via_normal, atol=1e-6)

    def test_keeps_a_singular_value_just_above_the_default_threshold(self):
        # s_min sits 1e3 times above the default threshold eps * max(m, n)
        # * s_max (written out, so the pin holds the value), so the solve
        # reaches a right-hand side along its left singular vector; a
        # threshold 1e6 times larger drops it
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        s_min = 1e3 * np.finfo(float).eps * 6
        a = u @ np.diag([1.0, 0.5, s_min]) @ v.T
        x = lls_solve(a, u[:, 2])
        assert np.linalg.norm(a @ x - u[:, 2]) < 1e-2
        np.testing.assert_allclose(x, v[:, 2] / s_min, rtol=1e-2)

    def test_minimum_norm_on_rank_deficient(self):
        # duplicated column: solution must split weight evenly
        a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([2.0, 4.0, 6.0])
        s = lls_solve(a, y)
        np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-10)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            lls_solve(np.eye(3), np.ones(4))

    @pytest.mark.parametrize("rcond", [np.nan, np.inf])
    def test_non_finite_rcond_is_rejected(self, rcond):
        # a nan or infinite threshold would truncate every singular value
        with pytest.raises(ValueError, match=f"rcond must be non-negative and finite, got {rcond}"):
            lls_solve(np.eye(2), np.ones(2), rcond=rcond)

    @pytest.mark.parametrize("matrix, rows, match", [
        (np.array([[1.0, np.nan], [0.0, 1.0]]), 2, "non-finite"),
        (np.array([[1.0, 0.0], [np.inf, 1.0]]), 2, "non-finite"),
        (np.ones(2), 2, "2-D"),
        (np.float64(1.0), 1, "2-D"),
        (np.ones((0, 2)), 0, "non-empty"),
        (np.ones((2, 0)), 2, "non-empty"),
    ])
    def test_bad_matrix_rejected(self, matrix, rows, match):
        with pytest.raises(ValueError, match=match):
            lls_solve(matrix, np.ones(rows))

    def test_one_svd_of_the_callers_matrix(self, monkeypatch):
        # the solve factorizes the matrix it was given, once and whole,
        # and by default does not hand it over for overwriting
        calls = []

        def spy(a, *, overwrite_a):
            calls.append((a, overwrite_a))
            return svd(a, overwrite_a=overwrite_a)

        monkeypatch.setattr(linalg, "svd", spy)
        a = np.asfortranarray(np.random.default_rng(8).normal(size=(40, 6)))
        lls_solve(a, np.ones(40))
        ((called, overwrite),) = calls
        assert called is a and overwrite is False

    def test_default_flag_leaves_x_unchanged(self):
        x = np.asfortranarray(np.random.default_rng(15).normal(size=(40, 6)))
        before = x.copy()
        lls_solve(x, np.ones(40))
        assert np.array_equal(x, before)


class Factorized(Exception):
    """Raised by a stand-in for linalg.svd with the matrix it was given."""


def tall(shape, seed=16):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.normal(size=shape)), rng.normal(size=shape[0])


class Rows:
    """A row source over the matrix a, of the kind lls_train passes:
    np.asarray builds it whole, and fill copies rows start:start + len(out)
    into out. fills records the (start, rows) of each fill."""

    def __init__(self, a):
        self.a, self.shape, self.fills = a, a.shape, []

    def __array__(self, *_):
        return np.array(self.a, order="F")

    def fill(self, start, out):
        self.fills.append((start, len(out)))
        out[...] = self.a[start:start + len(out)]
        return out


def spied_openblas(calls):
    """fake_openblas with the real geqrt, gelsd and trtrs, each call recorded
    in calls as (short name, m, n) for geqrt and gelsd and (short name, n,
    nrhs) for trtrs."""
    real = linalg._openblas()

    def spy(short, dims):
        routine = getattr(real, f"scipy_LAPACKE_d{short}_work64_")

        def call(*args):
            calls.append((short, *args[dims]))
            return routine(*args)
        return call

    return fake_openblas(geqrt=spy("geqrt", slice(1, 3)), gelsd=spy("gelsd", slice(1, 3)),
                         trtrs=spy("trtrs", slice(4, 6)))


def back_substitution(n):
    """The dtrtrs calls of a tall solve whose R passes the guard: the leading
    k x k triangle of R on each 64-column slice j:k of the identity, then R
    itself on the right-hand side."""
    return ([("trtrs", min(n, j + 64), min(64, n - j)) for j in range(0, n, 64)]
            + [("trtrs", n, 1)])


class TestLargeRoute:
    """A design of more than _ONE_THREAD_MAX_CELLS cells is solved by LAPACK's
    least-squares driver dgelsd. A tall one (m >= int(1.6 n), where dgelsd
    would QR first) is QR-factorized by dgeqrt, and R is back-substituted by
    dtrtrs where ||R||_F ||R^-1||_F rcond <= 2**-10, else solved by dgelsd."""

    @pytest.fixture(autouse=True)
    def needs_the_library(self):
        require_openblas()

    @pytest.mark.parametrize("shape, routines", [
        ((1000, 1000), None), ((20000, 41), None),
        ((1500, 1000), [("gelsd", 1500, 1000)] * 2),  # the workspace query, then the solve
        ((3000, 400), [("geqrt", 3000, 400)] + back_substitution(400)),
        # n = 800: int(1.6 n) = 1280 rows is dgelsd's own QR crossover (MNTHR)
        ((1280, 800), [("geqrt", 1280, 800)] + back_substitution(800)),
        ((1279, 800), [("gelsd", 1279, 800)] * 2)],
        ids=["square-svd", "narrow-svd", "wide-dgelsd", "tall-dgeqrt", "crossover-dgeqrt",
             "below-crossover-dgelsd"])
    def test_the_cell_limit_decides(self, monkeypatch, shape, routines):
        calls = []

        def stop(a, *, overwrite_a):
            raise Factorized(a)

        lib = spied_openblas(calls)
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        monkeypatch.setattr(linalg, "svd", stop)
        x, y = tall(shape)
        if routines:
            lls_solve(x, y)
            assert calls == routines
        else:
            with pytest.raises(Factorized) as caught:
                lls_solve(x, y)
            assert caught.value.args[0] is x and calls == []

    @pytest.mark.parametrize("shape", [(3000, 400), (1500, 1000)], ids=["tall", "wide"])
    def test_coefficients_match_the_direct_route(self, monkeypatch, shape):
        # under a higher cell limit the same design goes to svd (dgesdd)
        x, y = tall(shape)
        driver = lls_solve(x, y)
        monkeypatch.setattr(linalg, "_ONE_THREAD_MAX_CELLS", 10 * x.size)
        direct = lls_solve(x, y)
        assert np.max(np.abs(driver - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("shape, repeated", [((3000, 400), 1), ((2000, 600), 100)])
    def test_rank_deficient_gives_the_minimum_norm_solution(self, shape, repeated):
        # the last `repeated` columns repeat the first ones
        x, y = tall(shape)
        x[:, -repeated:] = x[:, :repeated]
        np.testing.assert_allclose(lls_solve(x, y), pinv(x) @ y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scales", [(1e150,), (1e-150,), (1e150, 1e-150)],
                             ids=["1e150", "1e-150", "both"])
    def test_extreme_column_scales_match_lstsq(self, scales):
        # columns scaled in turn by each of scales: X.T @ X overflows at 1e150 and
        # nears underflow at 1e-150; with both, cond(X) is about 1e300 and the
        # 1e-150 columns are truncated
        x, y = tall((3000, 400))
        x *= np.resize(scales, 400)
        expected = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(lls_solve(x, y), expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_nonfinite_x_is_rejected_before_any_factorization(self, overwrite):
        x, y = tall((3000, 400))
        x[1234, 56] = np.inf
        before = x.copy()
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            lls_solve(x, y, overwrite_x=overwrite)
        assert np.array_equal(x, before)

    def test_default_flag_leaves_x_and_y_unchanged(self):
        x, y = tall((3000, 400))
        before = x.copy(), y.copy()
        lls_solve(x, y)
        assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])

    def test_overwrite_factorizes_in_place_without_a_copy(self):
        # dgeqrt writes over x itself. The right-hand side, T, the n x 64
        # identity slices of the guard and the workspaces come to about 0.04
        # of x here; the copy route peaks at about 1.04 of x
        x, y = tall((3000, 400))
        before_x = x.copy()
        expected = lls_solve(x, y)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = lls_solve(x, y, overwrite_x=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < x.nbytes
        assert peak - before < 0.25 * x.nbytes
        assert not np.array_equal(x, before_x)
        assert np.array_equal(got, expected)

    def test_without_the_library_the_whole_matrix_is_factorized(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        x, y = tall((3000, 400))
        u, s, v = svd(x)
        assert np.array_equal(lls_solve(x, y), v @ ((u.T @ y) / s))

    @pytest.mark.parametrize("shape, fills", [
        ((3000, 400), [(0, 3000)]), ((1500, 1000), []), ((500, 400), [])],
        ids=["tall-one-block", "wide-dgelsd", "small-svd"])
    def test_a_row_source_in_one_block_matches_the_ndarray_bit_for_bit(self, shape, fills):
        # 1.2M cells is one block of at most _BLOCK_CELLS = 2**22; off the
        # tall route the source is built whole and takes the ndarray's route
        x, y = tall(shape)
        rows = Rows(x)
        assert np.array_equal(lls_solve(rows, y), lls_solve(x, y))
        assert rows.fills == fills

    # 3,000 x 400 in blocks of at most 440,000 cells (1,100 rows): 3 blocks,
    # balanced to 1,000 rows each, each but the first stacked under the 400 x 400 R
    BLOCK_CELLS, BLOCKS = 440_000, [(0, 1000), (1000, 1000), (2000, 1000)]

    def test_a_blocked_row_source_matches_the_ndarray_within_rounding(self, monkeypatch):
        # Rounding bound, as in test_properties: sqrt(m) * eps * cond(X) * max|S|.
        # Over seeds 0-14 of this shape the worst difference stayed 4.9 times below it.
        x, y = tall((3000, 400))
        expected = lls_solve(x, y)
        real, stacked = linalg._openblas(), []

        def geqrt(*args):
            stacked.append(args[1])
            return real.scipy_LAPACKE_dgeqrt_work64_(*args)

        lib = fake_openblas(geqrt=geqrt)
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        monkeypatch.setattr(linalg, "_BLOCK_CELLS", self.BLOCK_CELLS)
        rows = Rows(x)
        got = lls_solve(rows, y)
        assert rows.fills == self.BLOCKS and stacked == [1000, 1400, 1400]
        bound = np.sqrt(3000) * np.finfo(float).eps * np.linalg.cond(x) * np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= bound

    @pytest.mark.parametrize("blocked", [False, True], ids=["ndarray", "row-source-3-blocks"])
    def test_back_substitution_matches_the_dgelsd_route_within_rounding(self, monkeypatch,
                                                                        blocked):
        # A guard that always fails forces dgelsd. Bound as below; over seeds
        # 0-14 of this shape the worst difference of the ndarray stayed 6.9
        # times below it.
        monkeypatch.setattr(linalg, "_BLOCK_CELLS", self.BLOCK_CELLS)
        x, y = tall((3000, 400))
        design, calls = Rows(x) if blocked else x, []
        with monkeypatch.context() as forced:
            forced.setattr(linalg, "_back_substituted", lambda *args: False)
            expected = lls_solve(design, y)
        lib = spied_openblas(calls)
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        got = lls_solve(design, y)
        assert calls == [("geqrt", rows, 400) for rows in ([1000, 1400, 1400] if blocked
                                                           else [3000])] + back_substitution(400)
        bound = np.sqrt(3000) * np.finfo(float).eps * np.linalg.cond(x) * np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= bound

    @pytest.mark.parametrize("factor", [1e3, 1e-3], ids=["just-above-kept", "just-below-truncated"])
    def test_a_singular_value_near_the_default_threshold_reaches_dgelsd(self, monkeypatch,
                                                                      factor):
        # TestLlsSolve's case on the large route, at a scale (s_max = 1e9) where
        # dropping ||R||_F from the guard would pass it: s_min = factor * rcond
        # * s_max puts ||R||_F ||R^-1||_F rcond above 1 / factor >= 1e-3 > 2**-10,
        # so dgelsd solves R, and keeps s_min only above the threshold; the
        # bound from R's diagonal fails first below it, the slices of R^-1 above
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(rng.normal(size=(3000, 400)))
        v, _ = np.linalg.qr(rng.normal(size=(400, 400)))
        s = 1e9 * np.r_[np.linspace(1.0, 0.5, 399), factor * np.finfo(float).eps * 3000]
        x = np.asfortranarray(u @ np.diag(s) @ v.T)
        calls = []
        lib = spied_openblas(calls)
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        got = lls_solve(x, u[:, 0] + u[:, -1])
        guard = calls[1:-2]  # the slices of R^-1 taken before the guard failed
        assert calls == [("geqrt", 3000, 400)] + guard + [("gelsd", 400, 400)] * 2
        assert guard == back_substitution(400)[:len(guard)] and bool(guard) == (factor > 1)
        assert len(guard) < 8
        kept = v[:, 0] / s[0] + (v[:, -1] / s[-1] if factor > 1 else 0.0)
        np.testing.assert_allclose(got, kept, rtol=1e-2, atol=1e-2 * np.max(np.abs(kept)))

    @pytest.mark.parametrize("column", [200, 399], ids=["zero-column", "repeated-last-column"])
    def test_a_rank_deficient_r_reaches_dgelsd_without_dtrtrs(self, monkeypatch, column):
        # A column in the span of the ones before it (a zero one, or a repeat
        # of column 0, last, as the dependent DCT columns of an image set with
        # an always-zero border) leaves r_ii at 0 or at rounding level, so
        # the bound from R's diagonal fails the guard before any dtrtrs call,
        # and dgelsd returns the minimum-norm solution
        x, y = tall((3000, 400))
        x[:, column] = x[:, 0] if column == 399 else 0.0
        calls = []
        lib = spied_openblas(calls)
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        got = lls_solve(x, y)
        assert calls == [("geqrt", 3000, 400)] + [("gelsd", 400, 400)] * 2
        np.testing.assert_allclose(got, pinv(x) @ y, rtol=0, atol=1e-12)

    def test_the_guard_takes_its_norms_apart_so_their_product_cannot_overflow(self,
                                                                              monkeypatch):
        # ||R||_F = ||R^-1||_F ~ 1e78, so the product of their squares (1e312)
        # is past the largest double, while ||R||_F ||R^-1||_F rcond ~ 1e-14
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(3000, 400)))
        d = np.r_[1e78, 1e-78, np.linspace(1.0, 2.0, 398)]
        x, y = np.asfortranarray(q * d), rng.normal(size=3000)
        calls = []
        lib = spied_openblas(calls)
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        got = lls_solve(x, y, rcond=1e-170)
        assert calls == [("geqrt", 3000, 400)] + back_substitution(400)
        np.testing.assert_allclose(got, (q.T @ y) / d, rtol=1e-9)

    def test_a_non_finite_cell_in_the_last_block_is_rejected(self, monkeypatch):
        monkeypatch.setattr(linalg, "_BLOCK_CELLS", self.BLOCK_CELLS)
        x, y = tall((3000, 400))
        x[2999, 7] = np.nan
        rows = Rows(x)
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            lls_solve(rows, y, overwrite_x=True)
        assert rows.fills == self.BLOCKS

    def test_a_blocked_solve_that_does_not_converge_raises(self, monkeypatch):
        # the repeated column fails the guard, so R reaches dgelsd
        lib = fake_openblas(gelsd=fake_gelsd(info=1))
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        monkeypatch.setattr(linalg, "_BLOCK_CELLS", self.BLOCK_CELLS)
        x, y = tall((3000, 400))
        x[:, -1] = x[:, 0]
        rows = Rows(x)
        with pytest.raises(NumericFailure, match=r"^SVD did not converge \(dgelsd info 1\)$"):
            lls_solve(rows, y)
        assert rows.fills == self.BLOCKS


def test_a_large_solve_that_does_not_converge_raises(monkeypatch):
    # needs no OpenBLAS: a wide design calls only dgelsd, here a stand-in
    lib = fake_openblas(gelsd=fake_gelsd(info=1))
    monkeypatch.setattr(linalg, "_openblas", lambda: lib)
    x, y = tall((1500, 1000))
    with pytest.raises(NumericFailure, match=r"^SVD did not converge \(dgelsd info 1\)$"):
        lls_solve(x, y)


class TestAllOrNothing:
    """_openblas binds every routine of _ROUTINES or none: one missing symbol
    sends every solve to the fallback."""

    @staticmethod
    @contextlib.contextmanager
    def missing(name):
        """_ROUTINES with `name` replaced by a symbol no library has."""
        routines = dict(linalg._ROUTINES)
        routines["scipy_no_such_routine64_"] = routines.pop(name)
        linalg._openblas.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "_ROUTINES", routines)
                yield
        finally:
            linalg._openblas.cache_clear()

    @pytest.mark.parametrize("name", sorted(linalg._ROUTINES))
    def test_one_missing_routine_leaves_no_library(self, name):
        with self.missing(name):
            assert linalg._openblas() is None

    @pytest.mark.parametrize("shape", [(200, 7), (3000, 400)], ids=["small", "large"])
    def test_solves_still_match_lstsq(self, shape):
        x, y = tall(shape)
        with self.missing("scipy_LAPACKE_dgelsd_work64_"):
            got = lls_solve(x, y)
        expected = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))


class TestThreadGuard:
    @pytest.fixture
    def fake(self, monkeypatch):
        """The thread count of a stand-in library with the real LAPACK routines."""
        fake = FakeThreads()
        lib = fake_openblas(fake)
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        return fake

    @pytest.fixture
    def seen(self, monkeypatch, fake):
        """Thread counts in force at each call of the dgesdd routine."""
        counts = []
        lib = fake_openblas(fake, gesdd=fake_gesdd(during=lambda: counts.append(fake.count)))
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        return counts

    @pytest.fixture
    def seen_on_the_fallback(self, monkeypatch, fake):
        """Thread counts in force while np.linalg.svd ran, with no library."""
        counts, factorize = [], np.linalg.svd

        def recording(*args, **kwargs):
            counts.append(fake.count)
            return factorize(*args, **kwargs)

        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        monkeypatch.setattr(np.linalg, "svd", recording)
        return counts

    def test_small_matrix_runs_on_one_thread_and_restores_the_count(self, fake, seen):
        svd(np.random.default_rng(0).normal(size=(512, 31)))
        assert seen == [1, 1]  # the workspace query and the factorization
        assert fake.sets == [1, 4] and fake.count == 4

    def test_small_matrix_on_the_fallback_leaves_the_count_untouched(self, fake,
                                                                      seen_on_the_fallback):
        svd(np.random.default_rng(0).normal(size=(512, 31)))
        assert seen_on_the_fallback == [4]
        assert fake.sets == [] and fake.count == 4

    @pytest.mark.parametrize("shape, one_thread", [
        ((1000, 1000), True), ((1000, 1001), False), ((12665, 785), False)])
    def test_the_cell_limit_decides(self, fake, shape, one_thread):
        with linalg._threads_for(shape):
            inside = fake.count
        assert inside == (1 if one_thread else 4)
        assert fake.sets == ([1, 4] if one_thread else [])

    def test_a_raising_factorization_still_restores_the_count(self, monkeypatch, fake):
        def on_one_thread():
            assert fake.count == 1

        lib = fake_openblas(fake, gesdd=fake_gesdd(info=3, during=on_one_thread))
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        with pytest.raises(NumericFailure, match="did not converge"):
            svd(np.eye(3))
        assert fake.sets == [1, 4] and fake.count == 4

    def test_a_raising_fallback_factorization_leaves_the_count_untouched(self, monkeypatch,
                                                                         fake):
        def fail(*args, **kwargs):
            assert fake.count == 4
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericFailure, match="did not converge"):
            svd(np.eye(3))
        assert fake.sets == [] and fake.count == 4

    def test_without_the_library_svd_runs_unchanged(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        a = np.random.default_rng(1).normal(size=(40, 6))
        u, s, v = svd(a)
        u0, s0, vt0 = np.linalg.svd(a, full_matrices=False)
        assert np.array_equal(u, u0) and np.array_equal(s, s0) and np.array_equal(v, vt0.T)

    def test_real_library_count_is_restored_after_a_solve(self):
        require_openblas()
        get = linalg._openblas().scipy_openblas_get_num_threads64_
        before = get()
        rng = np.random.default_rng(2)
        lls_solve(rng.normal(size=(512, 31)), rng.normal(size=512))
        assert get() == before


def test_wdbc_coefficients_match_an_unguarded_solve(monkeypatch, data_dir):
    """The thread count changes only the order of LAPACK's sums, so the
    one-thread fits match fits at the default count to rounding, which
    grows with the condition number (about 3e9 at K=10, where the worst
    fold differs by 1e-8 of its largest coefficient)."""
    from conftest import require_dataset
    require_dataset("wdbc", data_dir)
    data = datasets.load_csv(data_dir / "wdbc.data", target_column=1, has_header=False,
                             drop_cols=(0,), label_map={"M": 1, "B": -1},
                             scale_targets=False)
    plan = datasets.kfold_plan(data.n, k=10, seed=0, labels=data.targets)
    for K in (1, 2, 3, 4, 10):
        config = training.LlsConfig(K=K, epsilon=1e-16)
        for fold in range(plan.k):
            train, _ = datasets.split(data, plan, fold)
            guarded = training.lls_train(train, config).beta.flat()
            with monkeypatch.context() as m:
                m.setattr(linalg, "_threads_for", lambda shape: contextlib.nullcontext())
                plain = training.lls_train(train, config).beta.flat()
            assert np.max(np.abs(guarded - plain)) <= 1e-8 * np.max(np.abs(plain)), (K, fold)
