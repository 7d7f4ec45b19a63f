"""Generalized GSDDMM: forward/backward parity against unfused chains.

The contract under test is docs/kernels.md: every (op, target) combination
produces original-edge-order outputs equal to the obvious unfused
gather/elementwise composition, with gradients to match, in one forward
launch and one backward launch.
"""

import numpy as np
import pytest

from repro.tensor import CSRGraph, Tensor, gsddmm, gsddmm_dot, index_rows, ops


def random_graph(rng, n_src=7, n_dst=6, n_edges=18):
    src = rng.integers(0, n_src, size=n_edges)
    dst = rng.integers(0, n_dst, size=n_edges)
    return src, dst, CSRGraph.from_edge_index(src, dst, n_src, n_dst)


def feats(rng, n, d):
    # Offset away from zero so div stays well-conditioned.
    return (rng.normal(0.0, 1.0, size=(n, d)) + 3.0).astype(np.float32)


ELEMENTWISE = ("add", "sub", "mul", "div")


class TestForwardParity:
    @pytest.mark.parametrize("op", ELEMENTWISE)
    def test_u_op_v_matches_unfused_gather_chain(self, rng, op):
        src, dst, g = random_graph(rng)
        a, b = Tensor(feats(rng, 7, 4)), Tensor(feats(rng, 6, 4))
        fused = gsddmm(g, op, a, b)
        unfused = getattr(ops, op)(
            index_rows(a, src), index_rows(b, dst)
        )
        np.testing.assert_array_equal(fused.data, unfused.data)

    def test_dot_matches_unfused_chain(self, rng):
        src, dst, g = random_graph(rng)
        a, b = Tensor(feats(rng, 7, 4)), Tensor(feats(rng, 6, 4))
        fused = gsddmm(g, "dot", a, b)
        unfused = ops.mul(index_rows(a, src), index_rows(b, dst)).sum(axis=-1)
        np.testing.assert_allclose(fused.data, unfused.data, rtol=1e-6)

    def test_dot_shorthand(self, rng):
        src, dst, g = random_graph(rng)
        a, b = Tensor(feats(rng, 7, 4)), Tensor(feats(rng, 6, 4))
        np.testing.assert_array_equal(
            gsddmm_dot(g, a, b).data, gsddmm(g, "dot", a, b).data
        )

    def test_copy_lhs_gathers_source_rows(self, rng):
        src, _, g = random_graph(rng)
        a = Tensor(feats(rng, 7, 4))
        np.testing.assert_array_equal(
            gsddmm(g, "copy_lhs", a).data, a.data[src]
        )

    def test_edge_target_operand(self, rng):
        src, _, g = random_graph(rng)
        a = Tensor(feats(rng, 7, 4))
        e = Tensor(feats(rng, 18, 4))
        out = gsddmm(g, "add", a, e, lhs_target="u", rhs_target="e")
        np.testing.assert_array_equal(out.data, a.data[src] + e.data)

    def test_output_is_original_edge_order(self, rng):
        # A graph whose CSR order differs from edge order: descending dst.
        src = np.array([0, 1, 2]); dst = np.array([2, 1, 0])
        g = CSRGraph.from_edge_index(src, dst, 3, 3)
        a = Tensor(np.diag([1.0, 2.0, 3.0]).astype(np.float32))
        out = gsddmm(g, "copy_lhs", a)
        np.testing.assert_array_equal(out.data, a.data[src])


class TestBackwardParity:
    @pytest.mark.parametrize("op", ELEMENTWISE + ("dot",))
    def test_gradients_match_unfused_chain(self, rng, op):
        src, dst, g = random_graph(rng)
        a1 = Tensor(feats(rng, 7, 4), requires_grad=True)
        b1 = Tensor(feats(rng, 6, 4), requires_grad=True)
        a2 = Tensor(np.array(a1.data), requires_grad=True)
        b2 = Tensor(np.array(b1.data), requires_grad=True)

        gsddmm(g, op, a1, b1).sum().backward()
        u, v = index_rows(a2, src), index_rows(b2, dst)
        unfused = (
            ops.mul(u, v).sum(axis=-1) if op == "dot" else getattr(ops, op)(u, v)
        )
        unfused.sum().backward()

        np.testing.assert_allclose(a1.grad, a2.grad, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(b1.grad, b2.grad, rtol=1e-5, atol=1e-5)

    def test_edge_target_gradient_is_identity_scatter(self, rng):
        src, _, g = random_graph(rng)
        a = Tensor(feats(rng, 7, 4))
        e = Tensor(feats(rng, 18, 4), requires_grad=True)
        gsddmm(g, "mul", a, e, rhs_target="e").sum().backward()
        np.testing.assert_allclose(e.grad, a.data[src], rtol=1e-6)


class TestLaunchesAndNaming:
    def test_single_forward_and_backward_launch(self, rng, fresh_device):
        _, _, g = random_graph(rng)
        a = Tensor(feats(rng, 7, 4), requires_grad=True)
        b = Tensor(feats(rng, 6, 4), requires_grad=True)
        fresh_device.profiler.enabled = True
        out = gsddmm(g, "add", a, b)
        names = [r.name for r in fresh_device.profiler.records]
        assert names == ["gsddmm_add"]
        out.sum().backward()
        names = [r.name for r in fresh_device.profiler.records]
        assert names.count("gsddmm_add_backward") == 1


class TestValidation:
    def test_rejects_unknown_op(self, rng):
        _, _, g = random_graph(rng)
        a = Tensor(feats(rng, 7, 4))
        with pytest.raises(ValueError, match="op"):
            gsddmm(g, "pow", a, a)

    def test_rejects_unknown_target(self, rng):
        _, _, g = random_graph(rng)
        a = Tensor(feats(rng, 7, 4))
        with pytest.raises(ValueError, match="target"):
            gsddmm(g, "add", a, a, lhs_target="w")

    def test_rejects_row_mismatch(self, rng):
        _, _, g = random_graph(rng)
        with pytest.raises(ValueError):
            gsddmm(g, "add", Tensor(feats(rng, 3, 4)), Tensor(feats(rng, 6, 4)))

    def test_copy_lhs_rejects_rhs(self, rng):
        _, _, g = random_graph(rng)
        a = Tensor(feats(rng, 7, 4))
        with pytest.raises(ValueError):
            gsddmm(g, "copy_lhs", a, a)
