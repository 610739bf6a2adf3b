"""Corpus parsing, span extraction, tag repair and taxonomy transforms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsner.corpus import (CorpusError, Dataset, EntitySpan, LabelTaxonomy,
                          Sentence, conll_sentences, expand_tag_labels,
                          extract_spans, filter_coarse_type, infer_natural_name,
                          load_conll, load_taxonomy, parse_conll,
                          parse_taxonomy, rename_taxonomy, repair_bio,
                          serialize_conll, serialize_taxonomy, surface_tag,
                          text_lines)

TAGS_XY = ["O", "B-X", "I-X", "B-Y", "I-Y"]

tag_sequences = st.lists(st.sampled_from(TAGS_XY), min_size=1, max_size=10)


def chunk_spans_reference(tags):
    """Independent span oracle using the start-of-chunk/end-of-chunk rules."""
    def start_of_chunk(prev, tag):
        if tag == "O":
            return False
        if tag[0] == "B":
            return True
        # I-X starts a chunk unless continuing a chunk of the same type
        return prev == "O" or prev[2:] != tag[2:]

    spans = []
    prev = "O"
    start = None
    for i, tag in enumerate(tags + ["O"]):
        if start is not None and (tag == "O" or start_of_chunk(prev, tag)):
            spans.append(EntitySpan(prev[2:], start, i))
            start = None
        if i < len(tags) and start_of_chunk(prev, tag):
            start = i
        prev = tag
    return spans


class TestParseConll:
    def test_basic(self):
        text = ("-DOCSTART- -X- O\n\nJohn NNP B-PER\nsmiles VB O\n\n"
                "Paris NNP B-LOC\n")
        ds = parse_conll(text.splitlines())
        assert len(ds.sentences) == 2
        assert ds.sentences[0].tokens == ["John", "smiles"]
        assert ds.sentences[0].tags == ["B-PER", "O"]
        # types appear in first-seen order with inferred natural names
        assert ds.taxonomy.types == [("PER", "per"), ("LOC", "loc")]

    def test_tag_is_last_column(self):
        ds = parse_conll(["tok a b c B-PER"])
        assert ds.sentences[0].tags == ["B-PER"]

    def test_error_reports_line_number(self):
        with pytest.raises(CorpusError, match="line 3"):
            parse_conll(["a O", "b O", "justonetoken"])
        with pytest.raises(CorpusError, match="line 2.*bad BIO"):
            parse_conll(["a O", "b X-PER"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            parse_conll(["", "-DOCSTART- O", ""])

    def test_round_trip(self, tiny_dataset):
        text = serialize_conll(tiny_dataset)
        back = parse_conll(text.splitlines(), taxonomy=tiny_dataset.taxonomy)
        assert [s.tokens for s in back.sentences] == \
            [s.tokens for s in tiny_dataset.sentences]
        assert [s.tags for s in back.sentences] == \
            [s.tags for s in tiny_dataset.sentences]

    def test_explicit_taxonomy_wins(self):
        ds = parse_conll(["a B-PER"], taxonomy=LabelTaxonomy([("PER", "person")]))
        assert dict(ds.taxonomy.types)["PER"] == "person"

    def test_infer_natural_name(self):
        assert infer_natural_name("CREATIVE-WORK") == "creative work"
        assert infer_natural_name("Person/Actor") == "person actor"

    def test_sentence_segmentation(self):
        lines = ["-DOCSTART- -X- O\n", "\n", "a\n", "b B-PER\n", " \n", "\n",
                 "-DOCSTART-\n", "c O\n"]
        assert list(conll_sentences(lines)) == [
            [(3, ["a"]), (4, ["b", "B-PER"])], [(8, ["c", "O"])]]

    def test_load_errors_name_the_file(self, tmp_path):
        corpus = tmp_path / "train.conll"
        corpus.write_text("a O\njustonetoken\n")
        with pytest.raises(CorpusError, match="^" + re.escape(f"{corpus}: line 2: expected")):
            load_conll(corpus)
        taxonomy = tmp_path / "tax.txt"
        taxonomy.write_text("PER person\n")
        with pytest.raises(CorpusError, match="^" + re.escape(f"{taxonomy}: taxonomy line 1")):
            load_taxonomy(taxonomy)


class TestSentenceValidation:
    def test_length_mismatch(self):
        with pytest.raises(CorpusError):
            Sentence(["a", "b"], ["O"])

    def test_bad_tag(self):
        with pytest.raises(CorpusError):
            Sentence(["a"], ["B_PER"])

    def test_dataset_rejects_unknown_type(self, two_type_taxonomy):
        with pytest.raises(CorpusError, match="not in taxonomy"):
            Dataset("d", [Sentence(["a"], ["B-GPE"])], two_type_taxonomy)


class TestTaxonomyFiles:
    def test_parse_with_comments(self):
        tax = parse_taxonomy(["# header", "PER\tperson", "",
                              "LOC\tlocation  # trailing"])
        assert tax.types == [("PER", "person"), ("LOC", "location")]

    def test_missing_tab(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse_taxonomy(["PER person"])

    def test_duplicate_type(self):
        with pytest.raises(CorpusError, match="duplicate"):
            LabelTaxonomy([("PER", "person"), ("PER", "human")])

    def test_round_trip(self, conll_taxonomy):
        text = serialize_taxonomy(conll_taxonomy)
        assert parse_taxonomy(text.splitlines()).types == conll_taxonomy.types

    def test_natural_names_lowercased(self):
        tax = LabelTaxonomy([("PER", "Person")])
        assert dict(tax.types)["PER"] == "person"


class TestTextLines:
    @pytest.mark.parametrize("data", [b"a\nb\r\nc\rd", b"", b"\n\n", b"x\r\n",
                                      "\u00e9\n".encode()])
    def test_lines_as_text_mode_gives_them(self, tmp_path, data):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as f:
            assert list(text_lines(path)) == list(f)

    @pytest.mark.parametrize("data, line", [
        (b"\xff", 1), (b"a\nb\n\xfe\n", 3), (b"a\r\nb\rc\xe9\n", 3),
        (b"a\n" * 5000 + b"b\xc3", 5001)])
    def test_bytes_that_are_not_utf8_name_path_and_line(self, tmp_path, data, line):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: not UTF-8 text$"):
            list(text_lines(path))

    def test_loaders_do_not_name_the_path_twice(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_bytes(b"a O\n\xff O\n")
        for load in (load_conll, load_taxonomy):
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(info.value) == f"{path}:2: not UTF-8 text"


class TestExtractSpans:
    CASES = [
        (["O", "O"], []),
        (["B-X"], [("X", 0, 1)]),
        (["B-X", "I-X", "O"], [("X", 0, 2)]),
        (["B-X", "B-X"], [("X", 0, 1), ("X", 1, 2)]),
        (["B-X", "I-Y"], [("X", 0, 1), ("Y", 1, 2)]),
        (["I-X", "I-X"], [("X", 0, 2)]),          # orphan I opens a span
        (["O", "I-Y", "B-Y"], [("Y", 1, 2), ("Y", 2, 3)]),
        (["B-X", "I-X", "I-Y", "I-Y"], [("X", 0, 2), ("Y", 2, 4)]),
    ]

    @pytest.mark.parametrize("tags,expected", CASES)
    def test_cases(self, tags, expected):
        assert extract_spans(tags) == [EntitySpan(*e) for e in expected]

    def test_exhaustive_against_reference(self):
        # every tag sequence of length <= 4 over {O, B/I-X, B/I-Y}
        from itertools import product
        for length in range(1, 5):
            for tags in product(TAGS_XY, repeat=length):
                tags = list(tags)
                assert extract_spans(tags) == chunk_spans_reference(tags), tags

    @given(tag_sequences)
    @settings(max_examples=200, deadline=None)
    def test_spans_never_overlap(self, tags):
        spans = extract_spans(tags)
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start


class TestRepairBio:
    def test_orphan_inside_becomes_begin(self):
        assert repair_bio(["I-X"]) == (["B-X"], 1)
        assert repair_bio(["O", "I-X", "I-X"]) == (["O", "B-X", "I-X"], 1)

    def test_type_switch_counts_as_violation(self):
        assert repair_bio(["B-X", "I-Y"]) == (["B-X", "B-Y"], 1)

    def test_clean_sequence_untouched(self):
        tags = ["B-X", "I-X", "O", "B-Y"]
        assert repair_bio(tags) == (tags, 0)

    @given(tag_sequences)
    @settings(max_examples=200, deadline=None)
    def test_repair_is_idempotent_and_span_preserving(self, tags):
        repaired, _ = repair_bio(tags)
        again, violations = repair_bio(repaired)
        assert violations == 0 and again == repaired
        # orphan I opens a span either way, so spans are unchanged
        assert extract_spans(repaired) == extract_spans(tags)


class TestTaggingLabels:
    def test_conll_expansion(self, conll_taxonomy):
        labels = expand_tag_labels(conll_taxonomy)
        assert [l.text for l in labels] == [
            "other",
            "begin person", "inside person",
            "begin location", "inside location",
            "begin organization", "inside organization",
            "begin miscellaneous", "inside miscellaneous"]
        assert [l.index for l in labels] == list(range(9))
        assert len(labels) == 2 * conll_taxonomy.n_labels - 1

    def test_surface_tag_round_trip(self, conll_taxonomy):
        labels = expand_tag_labels(conll_taxonomy)
        assert [surface_tag(l) for l in labels] == [
            "O", "B-PER", "I-PER", "B-LOC", "I-LOC",
            "B-ORG", "I-ORG", "B-MISC", "I-MISC"]

    def test_duplicate_natural_names_rejected(self):
        with pytest.raises(CorpusError, match="duplicate natural"):
            expand_tag_labels(LabelTaxonomy([("A", "thing"), ("B", "thing")]))


class TestRenameTaxonomy:
    def test_original_is_a_copy(self, conll_taxonomy):
        out = rename_taxonomy(conll_taxonomy, "original")
        assert out.types == conll_taxonomy.types
        assert out is not conll_taxonomy

    def test_meaningless(self, conll_taxonomy):
        out = rename_taxonomy(conll_taxonomy, "meaningless")
        assert out.types == [("PER", "label 1"), ("LOC", "label 2"),
                             ("ORG", "label 3"), ("MISC", "label 4")]

    def test_misleading_is_a_derangement(self, conll_taxonomy):
        originals = [n for _, n in conll_taxonomy.types]
        for seed in range(50):
            out = rename_taxonomy(conll_taxonomy, "misleading",
                                  rng=np.random.default_rng(seed))
            renamed = [n for _, n in out.types]
            assert sorted(renamed) == sorted(originals)
            assert all(a != b for a, b in zip(renamed, originals))

    def test_misleading_needs_two_types(self):
        with pytest.raises(CorpusError):
            rename_taxonomy(LabelTaxonomy([("PER", "person")]), "misleading",
                            rng=np.random.default_rng(0))

    def test_custom_map(self, conll_taxonomy):
        mapping = {"PER": "individual", "LOC": "geographical area",
                   "ORG": "corporation", "MISC": "miscellaneous"}
        out = rename_taxonomy(conll_taxonomy, "custom", mapping=mapping)
        assert out.types == [("PER", "individual"), ("LOC", "geographical area"),
                             ("ORG", "corporation"), ("MISC", "miscellaneous")]

    def test_custom_map_must_cover_all_types(self, conll_taxonomy):
        with pytest.raises(CorpusError, match="missing"):
            rename_taxonomy(conll_taxonomy, "custom", mapping={"PER": "x"})

    def test_unknown_mode(self, conll_taxonomy):
        with pytest.raises(CorpusError, match="unknown rename"):
            rename_taxonomy(conll_taxonomy, "shuffled")


class TestFilterCoarseType:
    @staticmethod
    def build(n_person, n_building, n_empty):
        tax = LabelTaxonomy([("person-actor", "actor"),
                             ("person-artist", "artist"),
                             ("building", "building")])
        sents = []
        for _ in range(n_person):
            sents.append(Sentence(["a", "b"], ["B-person-actor", "O"]))
        for _ in range(n_building):
            sents.append(Sentence(["c", "d"], ["B-building", "O"]))
        for _ in range(n_empty):
            sents.append(Sentence(["e"], ["O"]))
        return Dataset("fine", sents, tax)

    def test_unrelated_annotations_erased(self):
        ds = self.build(4, 4, 0)
        out = filter_coarse_type(ds, "person", np.random.default_rng(0))
        assert out.taxonomy.originals() == ["person-actor", "person-artist"]
        for s in out.sentences:
            assert all(t == "O" or t[2:].startswith("person") for t in s.tags)

    def test_rebalancing_arithmetic(self):
        # 10 annotated of 12 originally => fraction 5/6; after filtering 6
        # annotated survive, so floor(6 * (1/6)/(5/6)) = 1 empty is kept
        ds = self.build(6, 4, 2)
        out = filter_coarse_type(ds, "person", np.random.default_rng(1))
        annotated = sum(1 for s in out.sentences if extract_spans(s.tags))
        assert annotated == 6
        assert len(out.sentences) - annotated == 1

    def test_annotated_sentences_all_survive(self):
        ds = self.build(5, 3, 10)
        out = filter_coarse_type(ds, "person", np.random.default_rng(2))
        annotated = sum(1 for s in out.sentences if extract_spans(s.tags))
        assert annotated == 5

    def test_unknown_coarse_type(self):
        with pytest.raises(CorpusError, match="not in taxonomy"):
            filter_coarse_type(self.build(1, 1, 0), "place",
                               np.random.default_rng(0))
