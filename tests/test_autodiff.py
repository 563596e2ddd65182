import numpy as np

from oracles import sigmoid, silu, softmax_lastdim, sqrt

from vlafp.autodiff import Tensor, as_tensor, concat


def finite_diff(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += eps
        up = f(xp)
        xp[idx] -= 2 * eps
        dn = f(xp)
        g[idx] = (up - dn) / (2 * eps)
    return g


def check_grad(build, x, tol=1e-7):
    t = Tensor(x, requires_grad=True)
    build(t).backward()
    fd = finite_diff(lambda a: float(build(Tensor(a)).data.sum()), x)
    np.testing.assert_allclose(t.grad, fd, rtol=tol, atol=tol)


class TestElementwise:
    def test_add_broadcast(self, rng):
        x = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        tb = Tensor(b, requires_grad=True)
        out = (Tensor(x, requires_grad=True) + tb).sum()
        out.backward()
        np.testing.assert_allclose(tb.grad, np.full(4, 3.0))

    def test_mul(self, rng):
        x = rng.standard_normal((4, 3))
        check_grad(lambda t: (t * t * 2.0).sum(), x)

    def test_div(self, rng):
        x = rng.standard_normal((3, 3)) + 3.0
        check_grad(lambda t: (Tensor(np.ones((3, 3))) / t).sum(), x)

    def test_exp_log_sqrt(self, rng):
        x = np.abs(rng.standard_normal((3, 3))) + 0.5
        check_grad(lambda t: t.exp().sum(), x)
        check_grad(lambda t: t.log().sum(), x)
        check_grad(lambda t: sqrt(t).sum(), x)

    def test_sigmoid_and_silu(self, rng):
        x = rng.standard_normal((5,))
        check_grad(lambda t: sigmoid(t).sum(), x)
        check_grad(lambda t: silu(t).sum(), x)


class TestMatmulAndShape:
    def test_matmul_2d(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        g = np.ones((3, 2))
        np.testing.assert_allclose(ta.grad, g @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ g)

    def test_matmul_batched_with_2d_rhs(self, rng):
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((4, 2))
        tb = Tensor(b, requires_grad=True)
        (Tensor(a) @ tb).sum().backward()
        assert tb.grad.shape == (4, 2)
        fd = finite_diff(lambda bb: float((a @ bb).sum()), b)
        np.testing.assert_allclose(tb.grad, fd, rtol=1e-7, atol=1e-7)

    def test_matmul_batched_both(self, rng):
        a = rng.standard_normal((2, 3, 4))
        check_grad(lambda t: (t @ t.swapaxes(-1, -2)).sum(), a)

    def test_reshape_swap_getitem(self, rng):
        x = rng.standard_normal((4, 6))
        check_grad(lambda t: t.reshape(2, 12).sum(), x)
        check_grad(lambda t: t.swapaxes(0, 1).sum(), x)
        check_grad(lambda t: t[1:3, 2:5].sum(), x)

    def test_concat(self, rng):
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        tx, ty = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
        (concat([tx, ty], axis=1) * Tensor(np.arange(12.0).reshape(3, 4))).sum().backward()
        np.testing.assert_allclose(tx.grad, np.arange(12.0).reshape(3, 4)[:, :2])
        np.testing.assert_allclose(ty.grad, np.arange(12.0).reshape(3, 4)[:, 2:])

    def test_sum_axis_keepdims(self, rng):
        x = rng.standard_normal((3, 4, 5))
        check_grad(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), x, tol=1e-6)

    def test_mean(self, rng):
        x = rng.standard_normal((6, 2))
        check_grad(lambda t: (t.mean(axis=0) * Tensor(np.array([2.0, 3.0]))).sum(), x)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((4, 7)) * 5
        y = softmax_lastdim(Tensor(x))
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0)

    def test_gradient(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((3, 5))
        check_grad(lambda t: (softmax_lastdim(t) * Tensor(w)).sum(), x, tol=1e-6)

    def test_masked_rows_stay_finite(self):
        x = np.array([[1.0, -1e30, -1e30], [-1e30, -1e30, -1e30]])
        y = softmax_lastdim(Tensor(x))
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data[0], [1.0, 0.0, 0.0])

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((2, 6))
        a = softmax_lastdim(Tensor(x)).data
        b = softmax_lastdim(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestGraph:
    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0])

    def test_no_grad_when_not_required(self):
        x = Tensor(np.ones(3))
        y = (x * 2.0).sum()
        y.backward()
        assert x.grad is None

    def test_detach_blocks_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.detach() * 2.0).sum().backward()
        assert x.grad is None

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor(np.ones(2)), Tensor)
