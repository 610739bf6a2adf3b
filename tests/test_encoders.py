"""Token and label encoders, vocabulary, contextual label inputs."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsner.corpus import LabelTaxonomy, Sentence, expand_tag_labels
from lsner.encoders import (CONTEXT_BUDGET, CONTEXTUAL_SCHEMES, MASK_TOKEN, PAD_TOKEN,
                            UNK_TOKEN, Vocabulary, build_contextual_label_inputs,
                            build_vocabulary, case_index, contextual_sub, encode_labels,
                            encode_tokens, load_static_vectors,
                            select_label_contexts, static_table)
from lsner.matcher import init_model


# special tokens, case variants and repeats, so both dedupe steps are hit
WORDS = [PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, "<UNK>", "<Pad>", "a", "A", "b", "B", "bee", "c"]


class TestVocabulary:
    def test_specials_come_first(self):
        vocab = build_vocabulary([Sentence(["Hello", "world"], ["O", "O"])])
        assert vocab.tokens[:3] == [PAD_TOKEN, UNK_TOKEN, MASK_TOKEN]
        assert "hello" in vocab.index  # lowercased by default

    def test_min_freq(self):
        sents = [Sentence(["a", "a", "b"], ["O", "O", "O"])]
        vocab = build_vocabulary(sents, min_freq=2)
        assert "a" in vocab.index and "b" not in vocab.index

    def test_unknown_maps_to_unk(self):
        vocab = build_vocabulary([Sentence(["a"], ["O"])])
        assert vocab.lookup("zzz") == vocab.index[UNK_TOKEN]

    def test_extra_tokens_appended_once(self):
        sents = [Sentence(["person"], ["O"])]
        vocab = build_vocabulary(sents, extra_tokens=["person", "begin"])
        assert vocab.tokens.count("person") == 1
        assert "begin" in vocab.index

    def test_requires_unk(self):
        with pytest.raises(ValueError, match="vocabulary has no <unk> token"):
            Vocabulary(["a", "b"])

    @given(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6), max_size=8),
           st.lists(st.sampled_from(WORDS), max_size=6), st.integers(1, 3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_two_pass_oracle(self, token_lists, extras, min_freq):
        sents = [Sentence(toks, ["O"] * len(toks)) for toks in token_lists]
        assert build_vocabulary(sents, min_freq, extras).tokens == \
            _two_pass_vocabulary(sents, min_freq, extras)


def _two_pass_vocabulary(sentences, min_freq, extra_tokens):
    """The token list of the earlier two-pass builder, kept as the oracle."""
    counts = Counter()
    for s in sentences:
        for tok in s.tokens:
            counts[tok.lower()] += 1
    tokens = [PAD_TOKEN, UNK_TOKEN, MASK_TOKEN]
    for tok, c in counts.items():
        if c >= min_freq:
            tokens.append(tok)
    for tok in extra_tokens:
        tok = tok.lower()
        if tok not in tokens[3:] and tok not in (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN):
            tokens.append(tok)
    seen = set()
    uniq = []
    for tok in tokens:
        if tok not in seen:
            seen.add(tok)
            uniq.append(tok)
    return uniq


class TestCaseFeature:
    @pytest.mark.parametrize("token,expected", [
        ("hello", 0), ("123", 0), ("-", 0),
        ("Hello", 1), ("EU", 2), ("McDonald", 3), ("iPhone", 3)])
    def test_classes(self, token, expected):
        assert case_index(token) == expected


class TestLabelScheme:
    def test_parse_name(self):
        assert contextual_sub("name") is None

    def test_parse_contextual(self):
        assert contextual_sub("contextual:BIOTAG_COLON_MASK") == "BIOTAG_COLON_MASK"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown contextual sub-scheme 'NOPE'"):
            contextual_sub("contextual:NOPE")
        with pytest.raises(ValueError, match="unknown label scheme 'bagofwords'"):
            contextual_sub("bagofwords")


class TestTokenEncoder:
    def test_identity_encoder_returns_embedding_rows(self, small_model):
        m = small_model
        sent = Sentence(["john", "lives"], ["O", "O"])
        out = encode_tokens(sent, m.token_params, m.vocab)
        rows = m.token_params.embedding.values[
            [m.vocab.lookup("john"), m.vocab.lookup("lives")]]
        np.testing.assert_array_equal(out.data, rows)

    def test_caps_feature_adds_case_row(self, tiny_dataset):
        vocab = build_vocabulary(tiny_dataset.sentences)
        m = init_model(vocab, tiny_dataset.taxonomy, dim=8, seed=0,
                       token_ctx="identity", caps_feature=True)
        m.token_params.caps.tensor.data[:] = np.arange(4)[:, None]
        lower = encode_tokens(Sentence(["john"], ["O"]), m.token_params, m.vocab)
        title = encode_tokens(Sentence(["John"], ["O"]), m.token_params, m.vocab)
        np.testing.assert_allclose(title.data - lower.data, 1.0)

    def test_empty_sentence_rejected(self, small_model):
        with pytest.raises(ValueError, match="empty"):
            encode_tokens(Sentence([], []), small_model.token_params,
                          small_model.vocab)


class TestLabelEncoderNamePath:
    def test_tied_single_word_label_equals_token_vector(self, small_model):
        """With tied tables and identity contextualizers, the label 'begin
        person' pooled by max must touch only rows for 'begin'/'person'."""
        m = small_model
        labels = expand_tag_labels(m.taxonomy)
        out = encode_labels(labels, m.label_params, m.vocab)
        assert out.data.shape == (2 * m.taxonomy.n_labels - 1, 8)
        emb = m.label_params.embedding.values
        begin_person = np.maximum(emb[m.vocab.lookup("begin")],
                                  emb[m.vocab.lookup("person")])
        np.testing.assert_allclose(out.data[1], begin_person)
        np.testing.assert_allclose(out.data[0], emb[m.vocab.lookup("other")])

    def test_mean_and_first_pooling(self, small_model):
        m = small_model
        emb = m.label_params.embedding.values
        labels = expand_tag_labels(m.taxonomy)
        rows = emb[[m.vocab.lookup("inside"), m.vocab.lookup("location")]]
        m.label_params.pool = "mean"
        out = encode_labels(labels, m.label_params, m.vocab)
        np.testing.assert_allclose(out.data[4], rows.mean(axis=0))
        m.label_params.pool = "first"
        out = encode_labels(labels, m.label_params, m.vocab)
        np.testing.assert_allclose(out.data[4], rows[0])


FOOTBALL = Sentence(["Cristiano", "Ronaldo", "is", "a", "soccer", "player"],
                    ["B-PER", "I-PER", "O", "O", "O", "O"])


class TestContextualLabelInputs:
    @staticmethod
    def label(text="begin person"):
        from lsner.corpus import TaggingLabel
        role = text.split()[0]
        return TaggingLabel(text, 1, role, "PER")

    def test_label_substitution(self):
        out = build_contextual_label_inputs(
            self.label(), [FOOTBALL], "LABEL", np.random.default_rng(0))
        assert out == [["person", "person", "is", "a", "soccer", "player"]]

    def test_token_scheme_keeps_surface_form(self):
        out = build_contextual_label_inputs(
            self.label(), [FOOTBALL], "TOKEN", np.random.default_rng(0))
        assert out == [list(FOOTBALL.tokens)]

    def test_mask_scheme(self):
        out = build_contextual_label_inputs(
            self.label(), [FOOTBALL], "MASK", np.random.default_rng(0))
        assert out == [[MASK_TOKEN, MASK_TOKEN, "is", "a", "soccer", "player"]]

    def test_biotag_colon_mask_marks_positions(self):
        out = build_contextual_label_inputs(
            self.label(), [FOOTBALL], "BIOTAG_COLON_MASK",
            np.random.default_rng(0))
        assert out == [["begin", ":", MASK_TOKEN, "inside", ":", MASK_TOKEN,
                        "is", "a", "soccer", "player"]]

    def test_paren_biotag_label(self):
        out = build_contextual_label_inputs(
            self.label(), [FOOTBALL], "PAREN_BIOTAG_LABEL",
            np.random.default_rng(0))
        assert out == [["(", "begin", ")", "person", "(", "inside", ")",
                        "person", "is", "a", "soccer", "player"]]

    def test_budget_caps_sentence_count(self):
        sents = [FOOTBALL] * 25
        out = build_contextual_label_inputs(
            self.label(), sents, "LABEL", np.random.default_rng(1))
        assert CONTEXT_BUDGET == 10
        assert len(out) == 10

    def test_other_label_gets_no_contexts(self):
        from lsner.corpus import TaggingLabel
        other = TaggingLabel("other", 0, "other", None)
        assert build_contextual_label_inputs(
            other, [FOOTBALL], "LABEL", np.random.default_rng(0)) == []

    def test_no_matching_sentence_gives_empty(self):
        loc = self.label()
        sents = [Sentence(["a"], ["O"])]
        assert build_contextual_label_inputs(
            loc, sents, "LABEL", np.random.default_rng(0)) == []

    def test_select_label_contexts_covers_all_labels(self, two_type_taxonomy):
        labels = expand_tag_labels(two_type_taxonomy)
        contexts = select_label_contexts(labels, [FOOTBALL], "LABEL",
                                         np.random.default_rng(0))
        assert set(contexts) == {l.text for l in labels}
        assert contexts["begin location"] == []  # no LOC sentence available


def reference_contextual_label_inputs(label, support_sentences, sub, rng):
    """The builder before span reuse, kept verbatim as the reference: it
    extracts a sentence's spans once to test eligibility and again for each
    pick."""
    from lsner.corpus import extract_spans
    from lsner.encoders import _replacement
    if label.original is None:
        return []
    eligible = [s for s in support_sentences
                if any(sp.type == label.original for sp in extract_spans(s.tags))]
    if not eligible:
        return []
    n = min(CONTEXT_BUDGET, len(eligible))
    picks = rng.choice(len(eligible), size=n, replace=False)
    name_tokens = label.text.split()[1:]  # strip the begin/inside word

    out = []
    for p in sorted(int(i) for i in picks):
        s = eligible[p]
        spans = [sp for sp in extract_spans(s.tags) if sp.type == label.original]
        span = spans[int(rng.integers(len(spans)))]
        tokens = []
        for i, tok in enumerate(s.tokens):
            if span.start <= i < span.end:
                rep = _replacement(sub, i - span.start, name_tokens)
                tokens.extend([tok] if rep is None else rep)
            else:
                tokens.append(tok)
        out.append(tokens)
    return out


class TestContextsMatchReference:
    @pytest.mark.parametrize("sub", CONTEXTUAL_SCHEMES)
    def test_same_contexts_and_draws_as_reference(self, sub):
        from lsner.synthetic import make_task
        task = make_task(seed=3, dim=8, n_source=60, n_target_train=40, n_test=5)
        for dataset in (task.source, task.target_train):
            labels = expand_tag_labels(dataset.taxonomy)
            for seed in range(3):
                sentences = dataset.sentences[seed * 7:]
                shipped_rng = np.random.default_rng(seed)
                shipped = select_label_contexts(labels, sentences, sub, shipped_rng)
                ref_rng = np.random.default_rng(seed)
                reference = {label.text: reference_contextual_label_inputs(
                    label, sentences, sub, ref_rng) for label in labels}
                assert shipped == reference
                assert any(reference.values())
                assert shipped_rng.bit_generator.state == ref_rng.bit_generator.state


class TestContextualEncoding:
    def test_fallback_to_name_when_no_context(self, small_model):
        m = small_model
        labels = expand_tag_labels(m.taxonomy)
        empty = {l.text: [] for l in labels}
        ctx = encode_labels(labels, m.label_params, m.vocab, contexts=empty)
        plain = encode_labels(labels, m.label_params, m.vocab)
        np.testing.assert_allclose(ctx.data, plain.data)

    def test_contextual_is_mean_over_positions_and_sentences(self, small_model):
        m = small_model
        labels = expand_tag_labels(m.taxonomy)
        contexts = {l.text: [] for l in labels}
        contexts["begin person"] = [["person", "lives"], ["john"]]
        out = encode_labels(labels, m.label_params, m.vocab, contexts=contexts)
        emb = m.label_params.embedding.values
        first = (emb[m.vocab.lookup("person")] + emb[m.vocab.lookup("lives")]) / 2
        second = emb[m.vocab.lookup("john")]
        np.testing.assert_allclose(out.data[1], (first + second) / 2)


class TestStaticVectors:
    def test_load_and_coverage(self, tmp_path):
        vocab = build_vocabulary([Sentence(["red", "blue"], ["O", "O"])])
        path = tmp_path / "vecs.txt"
        path.write_text("red 1.0 2.0\ngreen 0.5 0.5\n")
        table, coverage = static_table(load_static_vectors(path, 2), vocab, 2,
                                       np.random.default_rng(0))
        assert table.shape == (len(vocab), 2)
        np.testing.assert_allclose(table[vocab.lookup("red")], [1.0, 2.0])
        assert coverage == pytest.approx(1 / len(vocab))

    def test_dimension_mismatch_reports_line(self, tmp_path):
        vocab = build_vocabulary([Sentence(["a"], ["O"])])
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match=":1:"):
            load_static_vectors(path, 2)

    def test_unknown_tokens_draw_from_rng(self):
        vocab = build_vocabulary([Sentence(["a"], ["O"])])
        table, coverage = static_table({"a": np.ones(3)}, vocab, 3, np.random.default_rng(4))
        expected = np.random.default_rng(4).normal(0.0, 1.0 / np.sqrt(3), size=(len(vocab), 3))
        expected[vocab.lookup("a")] = 1.0
        np.testing.assert_array_equal(table, expected)
        assert coverage == 1 / len(vocab)
