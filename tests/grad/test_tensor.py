"""Unit tests for the autograd Tensor core."""

import numpy as np
import pytest

from repro import grad as G
from repro.grad import Tensor

from ..helpers import check_gradients, rng


class TestTensorBasics:
    def test_creation_defaults(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert not t.requires_grad
        assert t.grad is None

    def test_requires_grad_flag(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * 3.0).detach()
        assert not b.requires_grad
        c = b * 2.0
        assert not c.requires_grad

    def test_item_and_len(self):
        t = Tensor([[1.0, 2.0]])
        assert len(t) == 1
        assert Tensor([5.0]).item() == 5.0

    def test_copy_is_independent(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a.copy()
        b.data[0] = 99.0
        assert a.data[0] == 1.0

    def test_default_dtype_switch(self):
        with G.default_dtype("float32"):
            assert Tensor([1.0]).dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_default_dtype_rejects_int(self):
        with pytest.raises(ValueError):
            G.set_default_dtype("int32")


class TestArithmetic:
    def test_add_backward(self):
        check_gradients(lambda ts: G.sum(ts[0] + ts[1]),
                        [rng(0).normal(size=(3, 4)), rng(1).normal(size=(3, 4))])

    def test_mul_backward(self):
        check_gradients(lambda ts: G.sum(ts[0] * ts[1]),
                        [rng(0).normal(size=(3, 4)), rng(1).normal(size=(3, 4))])

    def test_div_backward(self):
        check_gradients(lambda ts: G.sum(ts[0] / ts[1]),
                        [rng(0).normal(size=(3,)), rng(1).normal(size=(3,)) + 3.0])

    def test_sub_and_neg(self):
        check_gradients(lambda ts: G.sum(-ts[0] - ts[1] * 2.0),
                        [rng(0).normal(size=(4,)), rng(1).normal(size=(4,))])

    def test_pow_backward(self):
        check_gradients(lambda ts: G.sum(ts[0] ** 3),
                        [rng(0).normal(size=(5,))])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_radd_rmul_scalars(self):
        a = Tensor([2.0], requires_grad=True)
        out = 3.0 + a * 2.0
        G.sum(out).backward()
        assert a.grad[0] == pytest.approx(2.0)

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        out = G.sum(1.0 - a) + G.sum(4.0 / a)
        out.backward()
        assert a.grad[0] == pytest.approx(-1.0 - 4.0 / 4.0)

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng(1).normal(size=(4,)), requires_grad=True)
        G.sum(a + b).backward()
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_broadcast_mul_keepdim_axis(self):
        a = Tensor(rng(0).normal(size=(2, 3, 4)), requires_grad=True)
        s = Tensor(rng(1).normal(size=(2, 1, 4)), requires_grad=True)
        G.sum(a * s).backward()
        assert s.grad.shape == (2, 1, 4)

    def test_matmul_backward_2d(self):
        check_gradients(lambda ts: G.sum(ts[0] @ ts[1]),
                        [rng(0).normal(size=(3, 4)), rng(1).normal(size=(4, 5))])

    def test_matmul_backward_batched(self):
        check_gradients(lambda ts: G.sum((ts[0] @ ts[1]) ** 2),
                        [rng(0).normal(size=(2, 3, 4)), rng(1).normal(size=(2, 4, 5))])

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]) @ Tensor([[1.0], [2.0]])

    def test_comparison_returns_bool_arrays(self):
        a = Tensor([1.0, 2.0, 3.0])
        assert (a > 1.5).tolist() == [False, True, True]
        assert (a <= 2.0).tolist() == [True, True, False]
        assert (a < Tensor([2.0, 2.0, 2.0])).tolist() == [True, False, False]
        assert (a >= 3.0).tolist() == [False, False, True]


class TestBackwardMechanics:
    def test_diamond_reuse_accumulates(self):
        u = Tensor(rng(0).normal(size=(3,)), requires_grad=True)
        v = u * u + u * 3.0
        G.sum(v).backward()
        np.testing.assert_allclose(u.grad, 2 * u.data + 3.0)

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor([1.0], requires_grad=True)
        for _ in range(2):
            (a * 2.0).backward()
        assert a.grad[0] == pytest.approx(4.0)

    def test_zero_grad_resets(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).backward()
        a.zero_grad()
        assert a.grad is None

    def test_backward_with_seed_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with G.no_grad():
            b = a * 2.0
        assert not b.requires_grad
        assert b._backward is None

    def test_is_grad_enabled(self):
        assert G.is_grad_enabled()
        with G.no_grad():
            assert not G.is_grad_enabled()

    def test_custom_op_routes_gradients(self):
        x = Tensor([1.0, -2.0], requires_grad=True)

        def backward(grad, send):
            send(x, grad * 7.0)

        out = G.custom_op((x,), x.data * 2, backward)
        G.sum(out).backward()
        np.testing.assert_allclose(x.grad, [7.0, 7.0])

    def test_long_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(2000):
            x = x + 1.0
        G.sum(x).backward()
        assert a.grad[0] == pytest.approx(1.0)


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        g = rng(0).normal(size=(3, 4))
        assert G.unbroadcast(g, (3, 4)) is g

    def test_leading_dims_summed(self):
        g = np.ones((5, 3, 4))
        out = G.unbroadcast(g, (3, 4))
        np.testing.assert_allclose(out, np.full((3, 4), 5.0))

    def test_size_one_dims_summed(self):
        g = np.ones((3, 4))
        out = G.unbroadcast(g, (3, 1))
        np.testing.assert_allclose(out, np.full((3, 1), 4.0))


class TestThreadSafety:
    """Grad mode and dtype overrides must be safe across threads.

    The serving layer runs no_grad forwards on scheduler/worker threads
    concurrently with training on the main thread; with process-global
    save/restore, two interleaved no_grad blocks could leave gradients
    switched off for the whole process (training silently stops
    learning — the bug that motivated thread-local grad mode).
    """

    def test_no_grad_is_thread_local(self):
        import threading

        seen = {}

        def worker():
            with G.no_grad():
                seen["inside_worker"] = G.is_grad_enabled()
                barrier.wait()   # main thread checks while we hold no_grad
                barrier.wait()
            seen["after_worker"] = G.is_grad_enabled()

        barrier = threading.Barrier(2)
        thread = threading.Thread(target=worker)
        thread.start()
        barrier.wait()
        # The worker's no_grad must not leak into this thread.
        assert G.is_grad_enabled()
        barrier.wait()
        thread.join()
        assert seen["inside_worker"] is False
        assert seen["after_worker"] is True
        assert G.is_grad_enabled()

    def test_interleaved_no_grad_cannot_disable_grad_forever(self):
        import threading

        stop = threading.Event()

        def churn():
            while not stop.is_set():
                with G.no_grad():
                    pass

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                with G.no_grad():
                    assert not G.is_grad_enabled()
                assert G.is_grad_enabled()
        finally:
            stop.set()
            for t in threads:
                t.join()
        x = Tensor([1.0], requires_grad=True)
        assert (x * 2.0).requires_grad  # graph construction still works

    def test_thread_default_dtype_is_isolated(self):
        import threading

        results = {}

        def worker():
            with G.thread_default_dtype("float32"):
                results["worker"] = Tensor([1.0]).dtype
                barrier.wait()   # main thread creates a tensor meanwhile
                barrier.wait()
            results["worker_after"] = Tensor([1.0]).dtype

        barrier = threading.Barrier(2)
        thread = threading.Thread(target=worker)
        thread.start()
        barrier.wait()
        results["main"] = Tensor([1.0]).dtype
        barrier.wait()
        thread.join()
        assert results["worker"] == np.float32
        assert results["main"] == np.float64
        assert results["worker_after"] == np.float64

    def test_thread_default_dtype_nests(self):
        with G.thread_default_dtype("float32"):
            with G.thread_default_dtype("float64"):
                assert Tensor([1.0]).dtype == np.float64
            assert Tensor([1.0]).dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64
        with pytest.raises(ValueError):
            with G.thread_default_dtype("int32"):
                pass

    def test_thread_default_dtype_none_overrides_nothing(self):
        with G.thread_default_dtype("float32"):
            with G.thread_default_dtype(None):
                assert Tensor([1.0]).dtype == np.float32
        with G.thread_default_dtype(None):
            assert Tensor([1.0]).dtype == np.float64
