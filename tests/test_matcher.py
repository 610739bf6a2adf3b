"""Scoring, prediction, two-stage training, optimizer and label caching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsner import autodiff as ad
from lsner import matcher
from lsner.corpus import LabelTaxonomy, Sentence, rename_taxonomy
from lsner.encoders import build_vocabulary
from lsner.matcher import (ADAM_BLOCK_VALUES, ADAM_LIVE_FRACTION, Adam,
                           TrainingConfig, build_label_cache, gold_indices, init_model,
                           label_matrix, predict_tags, score_tokens,
                           sentence_loss, taxonomy_hash, train_stage,
                           run_two_stage)
from lsner.numeric import ParamGroup
from lsner.autodiff import Tensor


def param_bytes(model):
    return b"".join(g.values.tobytes() for g in model.param_groups())


# Dense reference kernels: every gradient starts as zeros, every gather
# builds a full-table buffer, and Adam makes a new array per expression.
# The shipped kernels must reproduce their results bit for bit.

def dense_accum(t, g, fresh=False):  # always zeros first, so `fresh` is moot
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def dense_take_rows(a, idx):
    idx = np.asarray(idx, dtype=np.intp)

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        dense_accum(a, buf)

    return Tensor(a.data[idx], (a,), bwd)


def dense_adam_update(data, m, v, grad, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update in textbook expression order; returns new m and v."""
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    data -= lr * mhat / (np.sqrt(vhat) + eps)
    return m, v


def dense_adam_step(opt):
    opt.t += 1
    for i, g in enumerate(opt.groups):
        if g.grad is not None:
            opt.m[i], opt.v[i] = dense_adam_update(
                g.tensor.data, opt.m[i], opt.v[i], g.grad, opt.t, opt.lr,
                opt.b1, opt.b2, opt.eps)


def live_row_reads(rows):
    """One read of table 0 or 1 in a step: a gather (rows may repeat), one
    row read twice whose gradients cancel, or a whole-table read through
    `_accum`."""
    row = st.integers(0, rows - 1)
    table = st.integers(0, 1)
    return st.one_of(
        st.tuples(st.just("gather"), table, st.lists(row, min_size=1, max_size=8)),
        st.tuples(st.just("gather"), table, row.map(lambda r: [r])),
        st.tuples(st.just("cancel"), table, row.map(lambda r: [r, r])),
        st.tuples(st.just("accum"), table, st.just(None)))


@st.composite
def live_row_cases(draw):
    """Tables of 1-300 rows and 1-64 columns, tied or not, some rows -0.0,
    and up to 6 steps of 0-4 reads each (an empty step gives no gradient)."""
    rows = draw(st.integers(1, 300))
    dim = draw(st.integers(1, 64))
    tied = draw(st.booleans())
    negative_zero_rows = draw(st.lists(st.integers(0, rows - 1), max_size=4))
    steps = draw(st.lists(st.lists(live_row_reads(rows), max_size=4),
                          min_size=1, max_size=6))
    return rows, dim, tied, negative_zero_rows, steps, draw(st.integers(0, 2 ** 16))


def _live_row_loss(tables, reads, draws):
    """Sum of each read's values times fixed weights, so every gradient is
    the weights themselves."""
    loss = None
    for (kind, which, idx), w in zip(reads, draws):
        x = tables[which] if kind == "accum" else ad.take_rows(tables[which], idx)
        term = ad.sum_all(ad.mul(x, Tensor(w)))
        loss = term if loss is None else ad.add(loss, term)
    return loss


class TestScoring:
    def test_dot_product_oracle(self):
        e = np.array([[1.0, 2.0], [0.0, -1.0]])
        b = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(
            score_tokens(Tensor(e), Tensor(b)).data, [[3.0, 2.0, 6.0], [-1.0, 0.0, -3.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            score_tokens(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_tensor_path_matches(self):
        rng = np.random.default_rng(0)
        e, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        np.testing.assert_allclose(score_tokens(Tensor(e.copy()),
                                                Tensor(b.copy())).data,
                                   e @ b.T)


class TestPrediction:
    def test_all_zero_scores_predict_lowest_index(self, tiny_dataset):
        # zero embeddings tie every label; "other" has index 0 and wins
        vocab = build_vocabulary(tiny_dataset.sentences,
                                 extra_tokens=["begin", "inside", "other",
                                               "person", "location"])
        m = init_model(vocab, tiny_dataset.taxonomy, dim=4, seed=0,
                       token_ctx="identity", caps_feature=False,
                       static_table=np.zeros((len(vocab), 4)))
        for s in tiny_dataset.sentences:
            assert predict_tags(m, s) == ["O"] * len(s)

    def test_uniform_scores_loss_is_log_label_count(self, tiny_dataset):
        vocab = build_vocabulary(tiny_dataset.sentences,
                                 extra_tokens=["begin", "inside", "other",
                                               "person", "location"])
        m = init_model(vocab, tiny_dataset.taxonomy, dim=4, seed=0,
                       token_ctx="identity", caps_feature=False,
                       static_table=np.zeros((len(vocab), 4)))
        loss = sentence_loss(m, tiny_dataset.sentences[0], label_matrix(m))
        n_tagging = 2 * tiny_dataset.taxonomy.n_labels - 1
        assert float(loss.data) == pytest.approx(np.log(n_tagging), rel=1e-12)

    def test_gold_indices(self, small_model):
        s = Sentence(["a", "b", "c"], ["B-PER", "I-LOC", "O"])
        assert gold_indices(s, small_model.tag_labels) == [1, 4, 0]


class TestAdam:
    # a group taller than one block whose rows do not fill the last block
    TALL = (2 * (ADAM_BLOCK_VALUES // 3) + 5, 3)

    @pytest.mark.parametrize("shape", [(1, 2), TALL], ids=["1x2", "multi-block"])
    def test_matches_reference_updates(self, shape):
        rng = np.random.default_rng(0)
        g = ParamGroup("w", Tensor(rng.normal(size=shape)))
        opt = Adam([g], lr=0.1)
        ref = g.values.copy()
        m = v = np.zeros(shape)
        for t in range(1, 4):
            grad = rng.normal(size=shape) * t
            g.tensor.grad = grad.copy()
            opt.step()
            m, v = dense_adam_update(ref, m, v, grad, t, lr=0.1)
            np.testing.assert_array_equal(g.values, ref)

    def test_skips_groups_without_gradients(self):
        g = ParamGroup("w", Tensor(np.ones((1, 1))))
        before = g.values.copy()
        Adam([g]).step()
        np.testing.assert_array_equal(g.values, before)

    @given(live_row_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_live_rows_match_dense_reference_bitwise(self, case):
        # blocks of 64 values: the drawn tables span several blocks, and only
        # those of at most one block start out fully live
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcher, "ADAM_BLOCK_VALUES", 64)
            self.check_live_rows_against_reference(*case)

    def check_live_rows_against_reference(self, rows, dim, tied, negative_zero_rows,
                                          steps, seed):
        rng = np.random.default_rng(seed)
        init = [rng.normal(size=(rows, dim)) for _ in range(2)]
        for table in init:
            table[negative_zero_rows] = -0.0

        def optimizer():
            tensors = [Tensor(init[0].copy())]
            tensors.append(tensors[0] if tied else Tensor(init[1].copy()))
            groups = [ParamGroup(f"t{i}", t)
                      for i, t in enumerate(tensors[:1] if tied else tensors)]
            return tensors, Adam(groups, lr=0.05)

        (shipped_tables, shipped), (ref_tables, ref) = optimizer(), optimizer()
        weights = np.random.default_rng(seed + 1)
        # None once fully live
        expected = [None if rows * dim <= 64 else set() for _ in shipped.groups]
        for reads in steps:
            draws = []
            for kind, _, idx in reads:
                w = weights.normal(size=(rows, dim) if kind == "accum" else (len(idx), dim))
                if kind == "cancel":
                    w[1] = -w[0]
                draws.append(w)
            for tables, opt in ((shipped_tables, shipped), (ref_tables, ref)):
                opt.zero_grad()
                if reads:
                    _live_row_loss(tables, reads, draws).backward()
            for i, g in enumerate(shipped.groups):
                touched = [(kind, idx) for kind, which, idx in reads
                           if shipped_tables[which] is g.tensor]
                if expected[i] is None or not touched:
                    continue
                if any(kind == "accum" for kind, _ in touched):
                    expected[i] = None
                    continue
                expected[i].update(r for _, idx in touched for r in idx)
                if len(expected[i]) >= ADAM_LIVE_FRACTION * rows:
                    expected[i] = None
            shipped.step()
            dense_adam_step(ref)
            for i, g in enumerate(shipped.groups):
                assert g.values.tobytes() == ref.groups[i].values.tobytes()
                assert shipped.m[i].tobytes() == ref.m[i].tobytes()
                assert shipped.v[i].tobytes() == ref.v[i].tobytes()
                live = shipped.live[i]
                if expected[i] is None:
                    assert live is None
                else:
                    assert live is not None
                    assert set(np.flatnonzero(live).tolist()) == expected[i]


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(finetune_epochs=-1)

    @pytest.mark.parametrize("scheme, message", [
        ("contextual:NOPE", "unknown contextual sub-scheme 'NOPE'"),
        ("bagofwords", "unknown label scheme 'bagofwords'")])
    def test_unknown_scheme_rejected_at_construction(self, scheme, message):
        with pytest.raises(ValueError, match=message):
            TrainingConfig(scheme=scheme)


class TestTrainStage:
    def test_zero_epochs_leave_parameters_untouched(self, tiny_dataset, small_model):
        before = param_bytes(small_model)
        trace = train_stage(small_model, tiny_dataset,
                            TrainingConfig(finetune_epochs=0))
        assert trace == []
        assert param_bytes(small_model) == before

    def test_rerun_from_same_state_is_bit_identical(self, tiny_dataset):
        def fresh():
            vocab = build_vocabulary(tiny_dataset.sentences,
                                     extra_tokens=["begin", "inside", "other",
                                                   "person", "location"])
            return init_model(vocab, tiny_dataset.taxonomy, dim=8, seed=7)

        results = []
        for _ in range(2):
            m = fresh()
            train_stage(m, tiny_dataset, TrainingConfig(finetune_epochs=3, seed=1))
            results.append(param_bytes(m))
        assert results[0] == results[1]

    @pytest.mark.parametrize("unused_tokens", [0, 2000], ids=["dense", "live-rows"])
    def test_kernels_match_dense_reference_bitwise(self, tiny_dataset, monkeypatch,
                                                   unused_tokens):
        # at dim 32 a gradient copied in Fortran order changes BLAS results;
        # tokens no sentence uses keep the embedding's live rows below the
        # crossover, so the optimizer takes its gather-and-scatter path
        def train():
            vocab = build_vocabulary(tiny_dataset.sentences,
                                     extra_tokens=["begin", "inside", "other",
                                                   "person", "location"] +
                                     [f"unused{i}" for i in range(unused_tokens)])
            m = init_model(vocab, tiny_dataset.taxonomy, dim=32, seed=5,
                           token_ctx="self-attention", tie_embeddings=True,
                           caps_feature=True)
            trace = train_stage(m, tiny_dataset, TrainingConfig(
                finetune_epochs=20, batch_size=2, seed=2))
            return param_bytes(m), trace

        made = []

        class RecordingAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(matcher, "Adam", RecordingAdam)
        shipped = train()
        (opt,) = made
        assert opt.groups[0].name == "embedding"
        live = opt.live[0]
        if unused_tokens:
            assert 0 < live.sum() < ADAM_LIVE_FRACTION * len(live)
        else:
            assert live is None
        monkeypatch.setattr(ad, "_accum", dense_accum)
        monkeypatch.setattr(ad, "take_rows", dense_take_rows)
        monkeypatch.setattr(Adam, "step", dense_adam_step)
        assert train() == shipped

    def test_loss_decreases(self, tiny_dataset):
        vocab = build_vocabulary(tiny_dataset.sentences,
                                 extra_tokens=["begin", "inside", "other",
                                               "person", "location"])
        m = init_model(vocab, tiny_dataset.taxonomy, dim=8, seed=2,
                       token_ctx="identity")
        trace = train_stage(m, tiny_dataset, TrainingConfig(finetune_epochs=30))
        assert trace[-1] < trace[0]

    def test_empty_dataset_rejected(self, small_model, two_type_taxonomy):
        from lsner.corpus import Dataset
        empty = Dataset.__new__(Dataset)
        empty.name, empty.sentences, empty.taxonomy = "e", [], two_type_taxonomy
        with pytest.raises(ValueError, match="empty"):
            train_stage(small_model, empty, TrainingConfig())

    def test_gradients_reach_both_encoders(self, tiny_dataset):
        # untied tables: both must move during a training step
        vocab = build_vocabulary(tiny_dataset.sentences,
                                 extra_tokens=["begin", "inside", "other",
                                               "person", "location"])
        m = init_model(vocab, tiny_dataset.taxonomy, dim=8, seed=0,
                       token_ctx="identity", tie_embeddings=False)
        tok_before = m.token_params.embedding.values.copy()
        lab_before = m.label_params.embedding.values.copy()
        train_stage(m, tiny_dataset, TrainingConfig(finetune_epochs=1))
        assert not np.array_equal(m.token_params.embedding.values, tok_before)
        assert not np.array_equal(m.label_params.embedding.values, lab_before)


class TestTwoStage:
    def test_only_label_list_changes_at_boundary(self, tiny_dataset):
        from lsner.corpus import Dataset
        vocab = build_vocabulary(tiny_dataset.sentences,
                                 extra_tokens=["begin", "inside", "other",
                                               "person", "location", "city"])
        source_tax = LabelTaxonomy([("PER", "person")])
        source = Dataset("src", [s for s in tiny_dataset.sentences
                                 if all(t == "O" or t.endswith("PER") for t in s.tags)],
                         source_tax, role="source")
        m = init_model(vocab, source_tax, dim=8, seed=1, token_ctx="identity")
        cfg = TrainingConfig(prefinetune_epochs=2, finetune_epochs=0)
        train_stage(m, source, cfg, stage="prefinetune")
        after_stage1 = param_bytes(m)
        m.set_taxonomy(tiny_dataset.taxonomy)
        # swapping the taxonomy rebuilds tagging labels but keeps weights
        assert param_bytes(m) == after_stage1
        assert [l.text for l in m.tag_labels] == \
            ["other", "begin person", "inside person",
             "begin location", "inside location"]

    def test_run_two_stage_returns_both_traces(self, tiny_dataset):
        vocab = build_vocabulary(tiny_dataset.sentences,
                                 extra_tokens=["begin", "inside", "other",
                                               "person", "location"])
        m = init_model(vocab, tiny_dataset.taxonomy, dim=8, seed=1,
                       token_ctx="identity")
        cfg = TrainingConfig(prefinetune_epochs=2, finetune_epochs=3)
        traces = run_two_stage(m, tiny_dataset, tiny_dataset, cfg)
        assert len(traces["prefinetune"]) == 2
        assert len(traces["finetune"]) == 3

    def test_skips_prefinetune_without_source(self, tiny_dataset, small_model):
        traces = run_two_stage(small_model, None, tiny_dataset,
                               TrainingConfig(finetune_epochs=1))
        assert set(traces) == {"finetune"}


class TestLabelCache:
    def test_cached_predictions_match_recomputed(self, tiny_dataset, small_model):
        cache = build_label_cache(small_model)
        assert cache.matrix.shape[0] == 2 * tiny_dataset.taxonomy.n_labels - 1
        for s in tiny_dataset.sentences:
            assert predict_tags(small_model, s, cache=cache) == \
                predict_tags(small_model, s)

    def test_stale_cache_rejected(self, small_model):
        cache = build_label_cache(small_model)
        renamed = rename_taxonomy(small_model.taxonomy, "meaningless")
        small_model.set_taxonomy(renamed)
        with pytest.raises(ValueError, match="cache"):
            predict_tags(small_model, Sentence(["a"], ["O"]), cache=cache)

    def test_digest_follows_set_taxonomy(self, small_model):
        sentence = Sentence(["a"], ["O"])
        original = small_model.taxonomy
        old = build_label_cache(small_model)
        assert old.taxonomy_hash == taxonomy_hash(original)
        small_model.set_taxonomy(rename_taxonomy(original, "meaningless"))
        with pytest.raises(ValueError, match="cache"):
            predict_tags(small_model, sentence, cache=old)
        new = build_label_cache(small_model)
        assert new.taxonomy_hash == taxonomy_hash(small_model.taxonomy)
        predict_tags(small_model, sentence, cache=new)
        small_model.set_taxonomy(original)
        predict_tags(small_model, sentence, cache=old)
        with pytest.raises(ValueError, match="cache"):
            predict_tags(small_model, sentence, cache=new)

    def test_taxonomy_hash_tracks_naming(self, two_type_taxonomy):
        h1 = taxonomy_hash(two_type_taxonomy)
        assert h1 == taxonomy_hash(LabelTaxonomy(list(two_type_taxonomy.types)))
        assert h1 != taxonomy_hash(rename_taxonomy(two_type_taxonomy, "meaningless"))


class TestModelState:
    def test_tied_embeddings_share_one_group(self, small_model):
        names = [g.name for g in small_model.param_groups()]
        assert names.count("embedding") == 1
        assert small_model.tied

    def test_untied_models_have_two_tables(self, tiny_dataset):
        vocab = build_vocabulary(tiny_dataset.sentences)
        m = init_model(vocab, tiny_dataset.taxonomy, dim=4, seed=0,
                       tie_embeddings=False)
        names = [g.name for g in m.param_groups()]
        assert "embedding" in names and "label_embedding" in names
        assert not m.tied

    def test_label_pool_defaults(self, tiny_dataset):
        vocab = build_vocabulary(tiny_dataset.sentences)
        static = init_model(vocab, tiny_dataset.taxonomy, dim=4,
                            label_ctx="identity")
        learned = init_model(vocab, tiny_dataset.taxonomy, dim=4,
                             label_ctx="self-attention")
        assert static.label_params.pool == "max"
        assert learned.label_params.pool == "first"

    def test_static_table_shape_checked(self, tiny_dataset):
        vocab = build_vocabulary(tiny_dataset.sentences)
        with pytest.raises(ValueError, match="static table"):
            init_model(vocab, tiny_dataset.taxonomy, dim=4,
                       static_table=np.zeros((3, 4)))
