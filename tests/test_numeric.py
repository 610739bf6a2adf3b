"""Dense math: softmax, cross-entropy, pooling, contextualizers, gradients.

Reference values were computed independently at 50-digit precision and
are frozen here as literals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsner import autodiff as ad
from lsner.autodiff import Tensor
from lsner.corpus import LabelTaxonomy
from lsner.encoders import build_vocabulary
from lsner.matcher import init_model
from lsner.numeric import (ParamGroup, apply_contextualizer, check_gradients,
                           contextualizer_shapes, pool_rows, sinusoidal_positions,
                           softmax_rows, token_cross_entropy)

# softmax([1, 2, 3]), 50-digit reference
SOFTMAX_123 = [0.090030573170380457998, 0.24472847105479765247,
               0.66524095577482188953]
# mean CE of logits [[2,1,0],[0,0,0]] with gold [0, 2]
CE_TWO_ROWS = 0.75310912655624499794
# CE of logits [1,2,3] with gold 1
CE_123_GOLD1 = 1.4076059644443803045


class TestSoftmax:
    def test_reference_row(self):
        out = softmax_rows(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out[0], SOFTMAX_123, rtol=1e-14)

    def test_uniform_row(self):
        out = softmax_rows(np.zeros((2, 4)))
        np.testing.assert_allclose(out, 0.25)

    def test_huge_values_stay_finite(self):
        out = softmax_rows(np.array([[1000.0, 1000.0, 999.0]]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            softmax_rows(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            softmax_rows(np.array([[np.inf, 0.0]]))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_and_normalization(self, row, shift):
        m = np.array([row])
        a = softmax_rows(m)
        b = softmax_rows(m + shift)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(a.sum(), 1.0, rtol=1e-12)
        assert (a >= 0).all()


class TestCrossEntropy:
    def test_reference_values(self):
        logits = Tensor(np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        assert float(token_cross_entropy(logits, [0, 2]).data) == pytest.approx(
            CE_TWO_ROWS, rel=1e-14)
        assert float(token_cross_entropy(Tensor(np.array([[1.0, 2.0, 3.0]])), [1]).data) == \
            pytest.approx(CE_123_GOLD1, rel=1e-14)

    def test_uniform_logits_give_log_n(self):
        for n in (2, 5, 9):
            loss = token_cross_entropy(Tensor(np.zeros((4, n))), [0, 1, 0, n - 1])
            assert float(loss.data) == pytest.approx(np.log(n), rel=1e-14)

    def test_tensor_matches_array(self):
        logits = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        t = token_cross_entropy(Tensor(logits.copy()), [0, 2])
        assert float(t.data) == pytest.approx(CE_TWO_ROWS, rel=1e-12)

    def test_gold_validation(self):
        logits = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="does not match"):
            token_cross_entropy(logits, [0])
        with pytest.raises(ValueError, match="out of range"):
            token_cross_entropy(logits, [0, 3])
        with pytest.raises(ValueError, match="out of range"):
            token_cross_entropy(logits, [-1, 0])


class TestPooling:
    M = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 2.0]])

    def test_strategies(self):
        m = Tensor(self.M.copy())
        np.testing.assert_allclose(pool_rows(m, "max").data, [3.0, 5.0])
        np.testing.assert_allclose(pool_rows(m, "mean").data, [2.0, 3.0])
        np.testing.assert_allclose(pool_rows(m, "first").data, [1.0, 5.0])

    def test_tensor_matches_array(self):
        expected = {"max": self.M.max(axis=0), "mean": self.M.mean(axis=0), "first": self.M[0]}
        for strategy, want in expected.items():
            np.testing.assert_allclose(pool_rows(Tensor(self.M.copy()), strategy).data, want)

    def test_max_ties_route_gradient_to_first_row(self):
        t = Tensor(np.array([[2.0, 1.0], [2.0, 3.0], [0.0, 3.0]]))
        ad.sum_all(pool_rows(t, "max")).backward()
        np.testing.assert_allclose(t.grad, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown pool"):
            pool_rows(Tensor(self.M.copy()), "median")
        with pytest.raises(ValueError, match="zero rows"):
            pool_rows(Tensor(np.zeros((0, 2))), "mean")


class TestSinusoidalPositions:
    def test_first_row_is_zero_one_pattern(self):
        table = sinusoidal_positions(4, 6)
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1])

    def test_known_entry(self):
        table = sinusoidal_positions(3, 4)
        assert table[1, 0] == pytest.approx(np.sin(1.0))
        assert table[1, 1] == pytest.approx(np.cos(1.0))
        assert table[2, 2] == pytest.approx(np.sin(2.0 / 100.0))

    def test_cached_table_is_readonly(self):
        table = sinusoidal_positions(5, 8)
        with pytest.raises(ValueError):
            table[0, 0] = 9.0


def fresh_ctx_params(kind, dim, seed):
    """The token contextualizer parameters of a freshly initialized model."""
    model = init_model(build_vocabulary([]), LabelTaxonomy([]), dim=dim, seed=seed,
                       token_ctx=kind)
    return model.token_params.ctx_params


class TestContextualizers:
    def test_identity_returns_input(self):
        x = np.arange(6.0).reshape(3, 2)
        out = apply_contextualizer(Tensor(x), {}, "identity", window=2).data
        np.testing.assert_array_equal(out, x)

    def test_window_mixer_matches_manual_replay(self):
        rng = np.random.default_rng(11)
        d, t, w = 4, 5, 2
        params = fresh_ctx_params("window-mixer", d, seed=11)
        x = rng.normal(size=(t, d))
        out = apply_contextualizer(Tensor(x), params, "window-mixer", window=w).data

        mix = params["mix"].values
        expected = np.zeros((t, d))
        for i in range(t):
            left = x[max(0, i - w):i].sum(axis=0) / w
            right = x[i + 1:i + 1 + w].sum(axis=0) / w
            expected[i] = np.concatenate([x[i], left, right]) @ mix
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_window_mixer_is_identity_at_init_for_lone_token(self):
        # the token block starts as the identity map, so with no neighbors
        # the input passes through unchanged
        rng = np.random.default_rng(0)
        params = fresh_ctx_params("window-mixer", 6, seed=0)
        x = rng.normal(size=(1, 6))
        np.testing.assert_allclose(
            apply_contextualizer(Tensor(x), params, "window-mixer", window=2).data, x,
            rtol=1e-12)

    def test_self_attention_matches_manual_replay(self):
        rng = np.random.default_rng(7)
        d, t = 6, 4
        params = fresh_ctx_params("self-attention", d, seed=7)
        x = rng.normal(size=(t, d))
        out = apply_contextualizer(Tensor(x), params, "self-attention", window=2).data

        pos = x + sinusoidal_positions(t, d)
        q = pos @ params["wq"].values
        k = pos @ params["wk"].values
        v = pos @ params["wv"].values
        scores = q @ k.T / np.sqrt(d)
        scores -= scores.max(axis=1, keepdims=True)
        attn = np.exp(scores)
        attn /= attn.sum(axis=1, keepdims=True)
        expected = x + attn @ v @ params["wo"].values
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown contextualizer"):
            apply_contextualizer(Tensor(np.zeros((2, 2))), {}, "lstm", window=2)
        with pytest.raises(ValueError, match="unknown contextualizer"):
            contextualizer_shapes("lstm", 4)


class TestGradientCheck:
    def test_quadratic_gradients_are_exact(self):
        rng = np.random.default_rng(5)
        w = ParamGroup("w", Tensor(rng.normal(size=(3, 3))))
        x = rng.normal(size=(2, 3))

        def loss():
            h = ad.matmul(Tensor(x), w.tensor)
            return ad.sum_all(ad.mul(h, h))

        worst = check_gradients(loss, [w], eps=1e-5)
        assert worst < 1e-8

    def test_composite_ops_pass(self):
        # exercises take_rows (a repeated row, two gathers from one table),
        # concat_cols, softmax, stack/mean/first rows
        rng = np.random.default_rng(9)
        emb = ParamGroup("emb", Tensor(rng.normal(size=(5, 4))))
        proj = ParamGroup("proj", Tensor(rng.normal(size=(8, 4))))

        def loss():
            rows = ad.take_rows(emb.tensor, [0, 2, 2, 4])
            again = ad.take_rows(emb.tensor, [4, 1, 3, 4])
            both = ad.concat_cols([rows, again])
            h = ad.matmul(both, proj.tensor)
            lab = ad.stack_rows([ad.mean_rows(h), ad.first_row(h),
                                 ad.max_rows(h)])
            logits = ad.matmul(h, ad.transpose(lab))
            return ad.cross_entropy_rows(logits, [0, 1, 2, 1])

        worst = check_gradients(loss, [emb, proj], eps=1e-6, rng=rng)
        assert worst < 1e-6

    @pytest.mark.parametrize("reads", [
        [[3, 1, 3, 3, 0]], [[2, 0, 5]], ["max", "max"], ["first", "first"]],
        ids=["repeated-rows", "distinct-rows", "max-twice", "first-twice"])
    @pytest.mark.parametrize("prior", [False, True], ids=["no-grad", "nonzero-grad"])
    def test_take_rows_backward_matches_dense_reference(self, reads, prior):
        # each read of the table (a row gather, or max or first pooling) is
        # checked bitwise against a dense buffer of the table's shape added
        # into the gradient in backward order
        rng = np.random.default_rng(4)
        table = Tensor(rng.normal(size=(6, 8)))
        # a larger prior makes the order of additions show in the last bits
        start = rng.normal(size=(6, 8)) * 10
        if prior:
            table.grad = start.copy()
        ops = {"max": ad.max_rows, "first": ad.first_row}
        outs = [ops[r](table) if isinstance(r, str) else ad.take_rows(table, r)
                for r in reads]
        gs = [rng.normal(size=out.shape) for out in outs]
        losses = [ad.sum_all(ad.mul(out, Tensor(g))) for out, g in zip(outs, gs)]
        total = losses[0] if len(losses) == 1 else ad.add(*losses)
        total.backward()

        expected = start.copy() if prior else np.zeros_like(table.data)
        cols = np.arange(table.data.shape[1])
        for r, g in zip(reads, gs):
            buf = np.zeros_like(table.data)
            if r == "max":
                buf[np.argmax(table.data, axis=0), cols] = g
            elif r == "first":
                buf[0] = g
            else:
                np.add.at(buf, r, g)
            expected += buf
        np.testing.assert_array_equal(table.grad, expected)

    def test_rejects_nonpositive_eps(self):
        w = ParamGroup("w", Tensor(np.ones((1, 1))))
        with pytest.raises(ValueError, match="eps"):
            check_gradients(lambda: ad.sum_all(w.tensor), [w], eps=0.0)
