import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hballs.calculus import (
    JACOBIAN_STEP_FACTOR,
    WirtingerData,
    fd_partials,
    lambda_bounds_wirtinger,
    operator_norm,
    real_jacobian_from_wirtinger,
    wirtinger_fd_many,
)
from hballs.errors import HballsError, NonFiniteResult, StepTooLarge


def square_plus_conj(pts):
    """f(z) = z^2 + conj(z); u = x^2 + x - y^2, v = 2xy - y."""
    z = np.asarray(pts)[:, 0]
    return z ** 2 + np.conj(z)


def wirtinger_from_jacobian(J):
    """Reference conversion of real Jacobians (..., 2k, 2n) to Wirtinger
    data, in the expressions the finite-difference engine uses."""
    ux, uy, vx, vy = J[..., 0::2, 0::2], J[..., 0::2, 1::2], J[..., 1::2, 0::2], J[..., 1::2, 1::2]
    return WirtingerData(0.5 * (ux + vy + 1j * (vx - uy)), 0.5 * (ux - vy + 1j * (vx + uy)))


def lambda_bounds(J):
    """(Lambda, lambda) of real Jacobians, through their Wirtinger data."""
    return lambda_bounds_wirtinger(wirtinger_from_jacobian(J))


class TestWirtingerFromReal:
    # the engine's differences of these maps at 0 are exact
    def test_example_function_at_zero(self):
        # u = x^2 + x - y^2, v = 2xy - y: hand partials at 0
        ux, uy, vx, vy = 1.0, 0.0, 0.0, -1.0
        data = wirtinger_fd_many(square_plus_conj, [[0j]])[0]
        assert abs(data.fz[0, 0]) + abs(data.fzbar[0, 0]) == pytest.approx(1.0, abs=1e-15)
        assert np.hypot(ux, uy) + np.hypot(vx, vy) == pytest.approx(2.0, abs=1e-15)

    def test_identity_function(self):
        # f(z) = z: u = x, v = y
        data = wirtinger_fd_many(lambda pts: pts, [[0j]])[0]
        assert data.fz[0, 0] == pytest.approx(1.0)
        assert data.fzbar[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_round_trip_with_jacobian(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        data = WirtingerData(a, b)
        back = wirtinger_from_jacobian(real_jacobian_from_wirtinger(data))
        np.testing.assert_allclose(back.fz, data.fz, atol=1e-15)
        np.testing.assert_allclose(back.fzbar, data.fzbar, atol=1e-15)


def fd_jacobian(f, z):
    """The real Jacobian of f at one point from the finite-difference engine."""
    return real_jacobian_from_wirtinger(wirtinger_fd_many(f, [z])[0])


class TestJacobianReal:
    def test_identity_map(self):
        jac = fd_jacobian(lambda pts: pts, np.zeros(2, dtype=complex))
        np.testing.assert_allclose(jac, np.eye(4), atol=1e-10)

    def test_example_jacobian_and_det(self):
        jac = fd_jacobian(square_plus_conj, np.zeros(1, dtype=complex))
        np.testing.assert_allclose(jac, [[1.0, 0.0], [0.0, -1.0]], atol=1e-10)
        assert np.linalg.det(jac) == pytest.approx(-1.0, rel=1e-9)

    def test_two_path_consistency(self):
        # Wirtinger data and real Jacobian against the hand derivatives of
        # z^2 + conj(z): f_z = 2z, f_zbar = 1; u_x = 2x + 1, u_y = -2y,
        # v_x = 2y, v_y = 2x - 1
        rng = np.random.default_rng(22)
        for _ in range(10):
            z = 0.3 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
            data = wirtinger_fd_many(square_plus_conj, [z])[0]
            np.testing.assert_allclose(data.fz, [[2.0 * z[0]]], atol=1e-9)
            np.testing.assert_allclose(data.fzbar, [[1.0]], atol=1e-9)
            x, y = z[0].real, z[0].imag
            np.testing.assert_allclose(fd_jacobian(square_plus_conj, z),
                                       [[2 * x + 1, -2 * y], [2 * y, 2 * x - 1]], atol=1e-9)

    def test_det_invariant_under_round_trip(self):
        rng = np.random.default_rng(23)
        z = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))

        def f(pts):
            w = np.asarray(pts)
            return np.stack([w[:, 0] ** 2 + np.conj(w[:, 1]), w[:, 1] + 0.3 * w[:, 0]], axis=1)

        jac = fd_jacobian(f, z)
        round_trip = real_jacobian_from_wirtinger(wirtinger_from_jacobian(jac))
        assert np.linalg.det(round_trip) == pytest.approx(np.linalg.det(jac), rel=1e-9)

    def test_step_guard(self):
        # h = JACOBIAN_STEP_FACTOR * (1 - |z|) stays inside the ball at |z| < 1
        for point in (1.0, 1.5j):
            with pytest.raises(StepTooLarge):
                wirtinger_fd_many(lambda pts: pts, np.array([[point]]))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-14)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-14)

    def test_dominates_sampled_directions(self):
        rng = np.random.default_rng(24)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        norm = operator_norm(A)
        theta = rng.standard_normal((10000, 3)) + 1j * rng.standard_normal((10000, 3))
        theta /= np.linalg.norm(theta, axis=1)[:, None]
        assert np.all(np.linalg.norm(theta @ A.T, axis=1) <= norm + 1e-12)


class TestLambdaBounds:
    def test_identity(self):
        assert lambda_bounds(np.eye(4)) == (1.0, 1.0)

    def test_diagonal(self):
        big, small = lambda_bounds(np.diag([2.0, 0.5]))
        assert big == pytest.approx(2.0)
        assert small == pytest.approx(0.5)

    def test_brute_force_oracle(self):
        # max/min of |J theta| over 1e5 sampled directions, within 1e-3
        rng = np.random.default_rng(25)
        for n in (1, 2):
            J = rng.standard_normal((2 * n, 2 * n)) / np.sqrt(2 * n)
            big, small = lambda_bounds(J)
            theta = rng.standard_normal((100000, 2 * n))
            theta /= np.linalg.norm(theta, axis=1)[:, None]
            mapped = np.linalg.norm(theta @ J.T, axis=1)
            assert abs(big - mapped.max()) <= 1e-3
            assert abs(small - mapped.min()) <= 1e-3
            assert mapped.max() <= big + 1e-12
            assert mapped.min() >= small - 1e-12

    def test_planar_closed_form(self):
        # n = 1 scalars: (|a| + |b|, ||a| - |b||)
        rng = np.random.default_rng(26)
        for _ in range(20):
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            big, small = lambda_bounds_wirtinger(WirtingerData([[a]], [[b]]))
            assert big == pytest.approx(abs(a) + abs(b), rel=1e-12)
            assert small == pytest.approx(abs(abs(a) - abs(b)), abs=1e-12)

    def test_holomorphic_identity(self):
        big, small = lambda_bounds_wirtinger(WirtingerData(np.eye(2), np.zeros((2, 2))))
        assert (big, small) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_complex_direction_oracle(self):
        # agree with discretized max/min over 1e5 complex unit theta; the
        # sampled search resolves ~3e-4 on a well-conditioned instance
        rng = np.random.default_rng(7)
        n = 2
        A = np.eye(n) + 0.25 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        B = 0.25 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        big, small = lambda_bounds_wirtinger(WirtingerData(A, B))
        theta = rng.standard_normal((100000, 2 * n))
        theta /= np.linalg.norm(theta, axis=1)[:, None]
        thc = theta[:, :n] + 1j * theta[:, n:]
        vals = np.linalg.norm(thc @ A.T + np.conj(thc) @ B.T, axis=1)
        assert abs(big - vals.max()) <= 1e-3
        assert abs(small - vals.min()) <= 1e-3
        # the SVD values must dominate every sampled direction
        assert vals.max() <= big + 1e-12
        assert vals.min() >= small - 1e-12

    def test_scalar_data_at_n2_has_lambda_zero(self):
        # k < n: the 2 x 4 real Jacobian has a kernel, so min |J theta| is 0,
        # not J's last (second) singular value
        data = WirtingerData([[1.0, 0.5j]], [[0.2, 0.0]])
        big, small = lambda_bounds_wirtinger(data)
        assert small == 0.0
        J = real_jacobian_from_wirtinger(data)
        assert big == pytest.approx(np.linalg.svd(J, compute_uv=False)[0], rel=1e-15)
        kernel = np.linalg.svd(J)[2][-1]          # a real unit direction J maps to ~0
        assert np.linalg.norm(J @ kernel) <= 1e-15
        batch_big, batch_small = lambda_bounds_wirtinger(WirtingerData(
            np.stack([data.fz, 2.0 * data.fz]), np.stack([data.fzbar, data.fzbar])))
        assert np.array_equal(batch_small, [0.0, 0.0]) and batch_big[0] == big


class TestValidation:
    def test_wirtinger_shape_check(self):
        with pytest.raises(ValueError):
            WirtingerData(np.ones((2, 2)), np.ones((1, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteResult):
            WirtingerData(np.array([[np.nan]]), np.array([[0.0]]))

    def test_non_finite_results_are_numerical_failures(self):
        # not a ValueError, which the command line reports as a config error
        assert issubclass(NonFiniteResult, HballsError)
        assert not issubclass(NonFiniteResult, ValueError)
        with pytest.raises(NonFiniteResult, match="Wirtinger data must be finite"):
            WirtingerData(np.array([[np.inf]]), np.array([[0.0]]))

    def test_batched_fd_refuses_non_finite_values(self):
        def blows_up(pts):
            return np.where(np.abs(np.asarray(pts)[:, 0]) > 0.3, np.nan, 1.0) + 0j

        with pytest.raises(NonFiniteResult, match="Wirtinger data must be finite"):
            wirtinger_fd_many(blows_up, np.array([[0.1 + 0j], [0.5 + 0j]]))


# ---------------------------------------------------------------------------
# batched finite differences
# ---------------------------------------------------------------------------

def reference_wirtinger_fd(f, z, step):
    """The per-point stencil and Jacobian assembly the batched path replaced."""
    n = z.size
    offsets = []
    for k in range(n):
        for unit in (1.0, 1j):
            for s in (step, -step, step / 2.0, -step / 2.0):
                e = np.zeros(n, dtype=complex)
                e[k] = unit * s
                offsets.append(e)
    offsets.append(np.zeros(n, dtype=complex))
    values = np.asarray(f(z[None, :] + np.asarray(offsets)), dtype=complex)[:-1]
    v = values.reshape(n, 2, 4, *values.shape[1:])
    d_h = (v[:, :, 0] - v[:, :, 1]) / (2.0 * step)
    d_h2 = (v[:, :, 2] - v[:, :, 3]) / step
    partials = np.atleast_2d(((4.0 * d_h2 - d_h) / 3.0).reshape(2 * n, *values.shape[1:]).T)
    J = np.empty((2 * partials.shape[0], 2 * n))
    J[0::2, :] = partials.real
    J[1::2, :] = partials.imag
    return wirtinger_from_jacobian(J)


def scalar_map(pts):
    """A non-holomorphic scalar map: z_1^2 conj(z_n) + 3 z_n + exp(|z|^2)."""
    pts = np.asarray(pts)
    return (pts[:, 0] ** 2 * np.conj(pts[:, -1]) + 3.0 * pts[:, -1]
            + np.exp(np.sum(np.abs(pts) ** 2, axis=1)))


def vector_map(pts):
    """Three components, one of them the scalar map."""
    pts = np.asarray(pts)
    return np.stack([scalar_map(pts), np.conj(pts[:, 0]) * pts[:, -1], np.sin(pts[:, 0])], axis=1)


def fd_bits(data):
    return np.concatenate([np.ascontiguousarray(data.fz).view(np.uint8).ravel(),
                           np.ascontiguousarray(data.fzbar).view(np.uint8).ravel()])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([scalar_map, vector_map]))
def test_fd_many_rows_equal_per_point_fd_bit_for_bit(n, count, seed, f):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, (count, 2 * n))
    pts = raw[:, :n] + 1j * raw[:, n:]
    pts *= (0.9 * rng.random(count) / np.linalg.norm(pts, axis=1))[:, None]
    pts[0] = 0.0                          # the origin, where offsets meet signed zeros
    if count > 1:
        pts[1, 0] = complex(-0.0, pts[1, 0].imag)
    steps = JACOBIAN_STEP_FACTOR * (1.0 - np.linalg.norm(pts, axis=1))
    rows = wirtinger_fd_many(f, pts)
    assert rows.fz.shape == rows.fzbar.shape == (count, 1 if f is scalar_map else 3, n)
    for p, (z, step) in enumerate(zip(pts, steps)):
        row = rows[p]
        assert np.array_equal(fd_bits(row), fd_bits(wirtinger_fd_many(f, [z])[0]))
        assert np.array_equal(fd_bits(row), fd_bits(reference_wirtinger_fd(f, z, step)))


def jacobian_route_fd(f, points):
    """The engine's former route: partials, then real Jacobians (P, 2k, 2n),
    then Wirtinger data."""
    steps = JACOBIAN_STEP_FACTOR * (1.0 - np.linalg.norm(points, axis=1))
    partials = fd_partials(f, points, steps)                # (P, 2n, k)
    J = np.empty((len(points), 2 * partials.shape[2], partials.shape[1]))
    J[:, 0::2, :] = partials.real.transpose(0, 2, 1)
    J[:, 1::2, :] = partials.imag.transpose(0, 2, 1)
    return wirtinger_from_jacobian(J)


def pair_map(pts):
    """Two components of the vector map."""
    return vector_map(pts)[:, :2]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 20), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([scalar_map, pair_map]))
def test_fd_many_equals_the_jacobian_route_bit_for_bit(n, count, seed, f):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, (count, 2 * n))
    pts = raw[:, :n] + 1j * raw[:, n:]
    pts *= (0.9 * rng.random(count) / np.linalg.norm(pts, axis=1))[:, None]
    data = wirtinger_fd_many(f, pts)
    assert data.out_dim == (1 if f is scalar_map else 2)
    assert np.array_equal(fd_bits(data), fd_bits(jacobian_route_fd(f, pts)))


# |z| summed as a dot product and row-wise differ in the last bit here
UNEQUAL_NORM_POINT = np.array([-0.34448560736453776 + 0.2940982074271315j,
                               0.2232125278517505 + 0.07598053721664844j])


@pytest.mark.parametrize("f", [scalar_map, vector_map])
def test_default_step_fd_equals_one_row_batch_where_norms_differ(f):
    # the step is taken from the row-wise |z|, alone and in a batch
    z = UNEQUAL_NORM_POINT
    assert float(np.linalg.norm(z)) != np.linalg.norm(z[None, :], axis=1)[0]
    batch = np.stack([0.5 * z, z, -z])
    step = JACOBIAN_STEP_FACTOR * (1.0 - np.linalg.norm(z[None, :], axis=1)[0])
    one_row = fd_bits(wirtinger_fd_many(f, [z])[0])
    assert np.array_equal(one_row, fd_bits(wirtinger_fd_many(f, batch)[1]))
    assert np.array_equal(one_row, fd_bits(reference_wirtinger_fd(f, z, step)))


def test_fd_many_refuses_a_stencil_leaving_the_ball():
    with pytest.raises(StepTooLarge):
        wirtinger_fd_many(scalar_map, np.array([[0.2 + 0j], [1.0 + 0j]]))


def reference_real_gradient_fd(f, a, step):
    """The per-point real gradient lemma21 used before the shared engine."""
    m = a.size
    pts = []
    for i in range(m):
        for s in (step, -step, step / 2.0, -step / 2.0):
            e = np.zeros(m)
            e[i] = s
            pts.append(a + e)
    vals = np.asarray(f(np.asarray(pts)), dtype=float).reshape(m, 4)
    d_h = (vals[:, 0] - vals[:, 1]) / (2.0 * step)
    d_h2 = (vals[:, 2] - vals[:, 3]) / step
    return (4.0 * d_h2 - d_h) / 3.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1), st.floats(1e-7, 1e-2))
def test_real_gradient_equals_reference_bit_for_bit(m, seed, step):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, m)
    a[rng.integers(m)] = -0.0             # a signed zero the stencil moves off
    coef = rng.normal(size=m)

    def f(pts):
        pts = np.asarray(pts)
        return np.sin(pts @ coef) + pts[:, 0] ** 3 - np.exp(pts[:, -1])

    grad = fd_partials(f, a[None, :], np.array([step]))[0, :, 0]
    assert grad.dtype == np.float64
    expected = reference_real_gradient_fd(f, a, step)
    assert np.array_equal(grad.view(np.uint8), expected.view(np.uint8))


# ---------------------------------------------------------------------------
# batched conversions
# ---------------------------------------------------------------------------

@st.composite
def wirtinger_batches(draw):
    """(f_z, f_zbar) batches (P, k, n), k, n <= 3, entries of any sign and scale."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    entries = st.floats(-1e6, 1e6)
    a, b = (draw(arrays(np.float64, (2,) + shape, elements=entries)) for _ in range(2))
    return a[0] + 1j * a[1], b[0] + 1j * b[1]


def bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


@settings(max_examples=200, deadline=None)
@given(wirtinger_batches())
def test_batched_round_trip_equals_per_matrix_conversions(case):
    a, b = case
    data = WirtingerData(a, b)
    jac = real_jacobian_from_wirtinger(data)
    back = wirtinger_from_jacobian(jac)
    big, small = lambda_bounds_wirtinger(data)
    assert jac.shape == (len(a), 2 * a.shape[1], 2 * a.shape[2])
    for p in range(len(a)):
        # every row of a batched conversion is that matrix converted alone
        one = real_jacobian_from_wirtinger(WirtingerData(a[p], b[p]))
        assert np.array_equal(bits(jac[p]), bits(one))
        one_back = wirtinger_from_jacobian(one)
        assert np.array_equal(bits(back.fz[p]), bits(one_back.fz))
        assert np.array_equal(bits(back.fzbar[p]), bits(one_back.fzbar))
        # and one stacked SVD is one SVD per matrix
        one_big, one_small = lambda_bounds_wirtinger(WirtingerData(a[p], b[p]))
        assert np.array_equal(bits(big[p]), bits(one_big))
        assert np.array_equal(bits(small[p]), bits(one_small))
    # The round trip rounds (a + b) and (a - b), then their half sum: each
    # real part comes back within 1 ulp of |Re a| + |Re b| (imaginary parts
    # likewise); the worst over 20000 random batches, entries scaled by
    # 1e-6 to 1e6, was 0.5 ulp.
    for got, want in ((back.fz, a), (back.fzbar, b)):
        for part in (np.real, np.imag):
            ulp = np.spacing(np.abs(part(a)) + np.abs(part(b)))
            assert np.all(np.abs(part(got) - part(want)) <= ulp)
