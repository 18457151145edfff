import json

import pytest

from trackref.expressions import (
    Lexicons,
    QueryRecord,
    bundled_sample_corpus_path,
    corpus_stats,
    load_lexicons,
    load_word_list,
    num_objects_by_video,
    read_attributes,
    read_corpus,
    tag_query,
    tokenize,
    write_attributes,
)

LEX = Lexicons(
    spatial_words=frozenset({"left", "right", "front"}),
    verb_words=frozenset({"running", "walking"}),
)


def record(text, annotation_type="first_frame", **kwargs):
    return QueryRecord("vid", "1", "a1", annotation_type, text, **kwargs)


class TestTokenize:
    def test_plain_sentence(self):
        assert tokenize("A girl on a blue bicycle") == ["a", "girl", "on", "a", "blue", "bicycle"]

    def test_hyphens_split(self):
        assert tokenize("black-and-white dog") == ["black", "and", "white", "dog"]

    def test_punctuation_dropped(self):
        assert tokenize("the dog's ball!") == ["the", "dog", "s", "ball"]

    def test_idempotent_on_joined_output(self):
        for text in ("A girl on a blue bicycle", "black-and-white dog", "one, two...three"):
            tokens = tokenize(text)
            assert tokenize(" ".join(tokens)) == tokens


class TestTagQuery:
    def test_short_query(self):
        attrs = tag_query(record("a red car"), LEX, 1)
        assert attrs.length_bin == "short"

    def test_long_query(self):
        attrs = tag_query(record("a tall man near the painted garden wall"), LEX, 1)
        assert attrs.length_bin == "long"

    def test_length_bins_partition_all_counts(self):
        for count in range(1, 21):
            attrs = tag_query(record(" ".join(["word"] * count)), LEX, 1)
            expected = "short" if count < 4 else ("medium" if count <= 6 else "long")
            assert attrs.length_bin == expected

    def test_spatial_flag(self):
        assert tag_query(record("a woman on the left"), LEX, 1).has_spatial
        assert not tag_query(record("a woman in blue"), LEX, 1).has_spatial

    def test_verb_flag(self):
        assert tag_query(record("a man running fast"), LEX, 1).has_verb
        assert not tag_query(record("a man in a hat"), LEX, 1).has_verb

    def test_num_objects_bins(self):
        assert tag_query(record("a cat"), LEX, 1).num_objects_bin == "1"
        assert tag_query(record("a cat"), LEX, 2).num_objects_bin == "2-3"
        assert tag_query(record("a cat"), LEX, 3).num_objects_bin == "2-3"
        assert tag_query(record("a cat"), LEX, 4).num_objects_bin == ">3"

    def test_is_coco_passed_through(self):
        assert tag_query(record("a cat", is_coco=True), LEX, 1).is_coco
        assert not tag_query(record("a cat"), LEX, 1).is_coco

    def test_annotation_type_passed_through(self):
        attrs = tag_query(record("a cat", annotation_type="full_video"), LEX, 1)
        assert attrs.annotation_type == "full_video"


class TestQueryRecord:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            record("   ")

    def test_bad_annotation_type_rejected(self):
        with pytest.raises(ValueError):
            record("a cat", annotation_type="third_frame")


class TestCorpusStats:
    def test_single_query_mean(self):
        stats = corpus_stats([record("a man with red shoes")], LEX)
        assert stats["first_frame"].count == 1
        assert stats["first_frame"].mean_length == 5.0

    def test_verb_fraction(self):
        stats = corpus_stats(
            [record("a man running"), record("a man in blue")], LEX
        )
        assert stats["first_frame"].verb_fraction == 0.5

    def test_groups_are_separate(self):
        stats = corpus_stats(
            [record("a cat"), record("a cat walking around", annotation_type="full_video")],
            LEX,
        )
        assert stats["first_frame"].count == 1
        assert stats["full_video"].count == 1
        assert stats["full_video"].verb_fraction == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([], LEX)

    def test_group_mean_within_token_count_range(self):
        records = [record(" ".join(["w"] * n)) for n in (2, 5, 9)]
        stats = corpus_stats(records, LEX)
        assert 2 <= stats["first_frame"].mean_length <= 9


class TestBundledSampleCorpus:
    def test_stats_match_independent_word_counts(self):
        records = read_corpus(bundled_sample_corpus_path())
        lexicons = load_lexicons()
        stats = corpus_stats(records, lexicons)

        # Sample texts are plain space-separated words, so a whitespace count
        # is an independent length oracle.
        expected_mean = {}
        for annotation_type in ("first_frame", "full_video"):
            lengths = [
                len(r.text.split()) for r in records
                if r.annotation_type == annotation_type
            ]
            expected_mean[annotation_type] = sum(lengths) / len(lengths)

        assert stats["first_frame"].count == 12
        assert stats["full_video"].count == 12
        assert stats["first_frame"].mean_length == pytest.approx(expected_mean["first_frame"])
        assert stats["full_video"].mean_length == pytest.approx(expected_mean["full_video"])
        assert stats["first_frame"].mean_length == pytest.approx(58 / 12)
        assert stats["full_video"].mean_length == pytest.approx(83 / 12)
        assert stats["first_frame"].verb_fraction == pytest.approx(2 / 12)
        assert stats["full_video"].verb_fraction == 1.0
        assert stats["first_frame"].spatial_fraction == pytest.approx(4 / 12)
        assert stats["full_video"].spatial_fraction == pytest.approx(3 / 12)
        # Full-video descriptions run longer and mention actions more often.
        assert stats["first_frame"].mean_length < stats["full_video"].mean_length
        assert stats["first_frame"].verb_fraction < stats["full_video"].verb_fraction

    def test_object_counts(self):
        records = read_corpus(bundled_sample_corpus_path())
        counts = num_objects_by_video(records)
        assert counts == {
            "backyard-dogs": 2, "street-cross": 3, "pond-birds": 2,
            "market-stall": 4, "harbor-boat": 1,
        }


class TestCorpusFiles:
    def test_read_corpus_reports_line_numbers(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"video": "v", "object": 1, "annotator": 1, "type": "first_frame"}\n')
        with pytest.raises(ValueError, match=":1:.*text"):
            read_corpus(path)

    def test_optional_flags_parsed(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({
            "video": "v", "object": 1, "annotator": 1, "type": "first_frame",
            "text": "a cat", "is_coco": True, "invalid_over_time": False,
        }) + "\n")
        loaded = read_corpus(path)[0]
        assert loaded.is_coco is True
        assert loaded.invalid_over_time is False

    def test_optional_flags_default_and_null(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        base = {"video": "v", "object": 1, "annotator": 1, "type": "first_frame", "text": "a cat"}
        path.write_text(
            json.dumps(base) + "\n" + json.dumps(dict(base, invalid_over_time=None)) + "\n"
        )
        first, second = read_corpus(path)
        assert first.is_coco is False and first.invalid_over_time is None
        assert second.invalid_over_time is None

    def test_attributes_round_trip(self, tmp_path):
        records = read_corpus(bundled_sample_corpus_path())
        lexicons = load_lexicons()
        counts = num_objects_by_video(records)
        tagged = [
            (r, tag_query(r, lexicons, counts[r.video_id])) for r in records
        ]
        path = tmp_path / "attrs.jsonl"
        write_attributes(path, tagged)
        loaded = read_attributes(path)
        # One entry per (video, object); first record for a key wins.
        assert loaded[("backyard-dogs", "1")].length_bin == "short"
        assert loaded[("market-stall", "4")].is_coco is False
        assert loaded[("street-cross", "3")].num_objects_bin == "2-3"

    @pytest.mark.parametrize("line", [
        '{"video": "v", "object": "1", "is_coco": "false", "has_spatial": false, '
        '"has_verb": false, "length_bin": "short", "num_objects_bin": "1", '
        '"annotation_type": "first_frame"}',
        "[1, 2]",
    ])
    def test_attributes_reject_non_boolean_flags_and_non_objects(self, tmp_path, line):
        path = tmp_path / "attrs.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(ValueError, match=":2: "):
            read_attributes(path)

    def test_load_word_list(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("Left\n# comment\n\nright\n")
        assert load_word_list(path) == frozenset({"left", "right"})

    def test_bundled_lexicons_nonempty(self):
        lexicons = load_lexicons()
        assert "left" in lexicons.spatial_words
        assert "running" in lexicons.verb_words
