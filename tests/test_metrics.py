"""Metrics vs hand-computed examples and textbook t-quantiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsrkit.errors import (
    EmptyInputError,
    InsufficientTrialsError,
    NumericError,
    ShapeError,
    UndefinedMetricError,
    ValidationError,
)
from dsrkit.metrics import (
    MosSummary,
    ReportRow,
    cosine,
    eer,
    gender_probe,
    mos_summary,
    t_quantile_95,
    tokenize,
    wer,
    write_csv_report,
    write_text_report,
)
from dsrkit.pipeline import verification_trials
from dsrkit.sampling import Utterance


class TestCosine:
    def test_identical_vectors(self):
        assert cosine([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.707107, abs=1e-6)

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericError):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(NumericError):
            cosine([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])


def trials(genuine, impostor):
    """(scores, genuine mask) with the genuine scores first."""
    scores = np.concatenate([np.asarray(genuine, float), np.asarray(impostor, float)])
    return scores, np.arange(len(scores)) < len(genuine)


class TestEer:
    def test_perfect_separation(self):
        assert eer(*trials([0.9, 0.9, 0.9], [0.1, 0.1])) == 0.0

    def test_inverted_separation(self):
        assert eer(*trials([0.1, 0.1], [0.9, 0.9])) == 1.0

    def test_hand_sweep(self):
        value = eer(*trials([0.9, 0.8, 0.4], [0.5, 0.3, 0.2]))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_shift_invariance(self):
        base = eer(*trials([0.5, 0.4, 0.1], [0.3, 0.2, 0.0]))
        shifted = eer(*trials([0.8, 0.7, 0.4], [0.6, 0.5, 0.3]))
        assert base == shifted

    def test_range_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.uniform(-1, 1, size=rng.integers(1, 8))
            i = rng.uniform(-1, 1, size=rng.integers(1, 8))
            assert 0.0 <= eer(*trials(g, i)) <= 1.0

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientTrialsError):
            eer(*trials([0.9], []))
        with pytest.raises(InsufficientTrialsError):
            eer(*trials([], [0.1]))

    def test_trial_validation(self):
        """A score outside [-1, 1] or a NaN is rejected."""
        with pytest.raises(ValidationError):
            eer(*trials([1.5], [0.1]))
        with pytest.raises(ValidationError):
            eer(*trials([0.9], [-1.5]))
        with pytest.raises(ValidationError):
            eer(*trials([np.nan], [0.1]))

    def test_mask_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            eer([0.9, 0.1], [True])


class TestWer:
    def test_identical_sequences(self):
        assert wer("the cat sat", "the cat sat") == 0.0

    def test_hand_value(self):
        assert wer("the cat sat", "the bat") == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_empty_hypothesis_is_all_deletions(self):
        assert wer("one two three four", "") == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(UndefinedMetricError):
            wer("", "anything")

    def test_case_and_punctuation_folding(self):
        assert wer("The Cat, sat.", "the cat sat") == 0.0

    def test_accepts_presplit_tokens(self):
        assert wer(["the", "cat"], ["the", "bat"]) == pytest.approx(0.5)

    def test_insertions_counted(self):
        assert wer("a b", "a x b y") == pytest.approx(1.0)

    def test_tokenizer(self):
        assert tokenize("  The  CAT, sat!  ") == ["the", "cat", "sat"]
        assert tokenize("...") == []


class TestMosSummary:
    def test_zero_variance(self):
        s = mos_summary([4, 4, 4, 4])
        assert (s.mean, s.half_width_95, s.n) == (4.0, 0.0, 4)
        assert s.formatted() == "4.00 ± 0.00"

    def test_three_score_hand_value(self):
        s = mos_summary([3, 4, 5])
        assert s.mean == pytest.approx(4.0, abs=1e-12)
        assert s.half_width_95 == pytest.approx(4.302653 / np.sqrt(3.0), abs=1e-6)
        assert s.formatted() == "4.00 ± 2.48"

    def test_single_score(self):
        s = mos_summary([3.5])
        assert (s.mean, s.half_width_95, s.n) == (3.5, 0.0, 1)

    def test_translation_behavior(self):
        base = mos_summary([2.0, 3.0, 4.0])
        moved = mos_summary([2.5, 3.5, 4.5])
        assert moved.mean == pytest.approx(base.mean + 0.5, abs=1e-12)
        assert moved.half_width_95 == pytest.approx(base.half_width_95, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            mos_summary([3, 6])
        with pytest.raises(ValidationError):
            mos_summary([0.5])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mos_summary([])


class TestTQuantiles:
    def test_textbook_spot_values(self):
        assert t_quantile_95(1) == pytest.approx(12.7062, abs=1e-4)
        assert t_quantile_95(2) == pytest.approx(4.3027, abs=1e-4)
        assert t_quantile_95(10) == pytest.approx(2.2281, abs=1e-4)
        assert t_quantile_95(30) == pytest.approx(2.0423, abs=1e-4)
        assert t_quantile_95(200) == pytest.approx(1.9719, abs=1e-4)

    def test_exact_past_df_200(self):
        assert t_quantile_95(201) == pytest.approx(1.971837, abs=1e-6)
        assert t_quantile_95(1000) == pytest.approx(1.962339, abs=1e-6)
        assert t_quantile_95(100_000) == pytest.approx(1.959964, abs=5e-5)
        vals = [t_quantile_95(df) for df in range(1, 1001)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_decreasing_over_table(self):
        vals = [t_quantile_95(df) for df in range(1, 201)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bad_df_rejected(self):
        with pytest.raises(ValidationError):
            t_quantile_95(0)


class TestGenderProbe:
    def test_female_match(self):
        labels, margins = gender_probe([[1.0, 0.0]], [1.0, 0.0], [0.0, 1.0])
        assert list(labels) == ["female"]
        assert margins[0] == pytest.approx(1.0, abs=1e-12)

    def test_tie_goes_female(self):
        e = np.array([[1.0, 1.0]]) / np.sqrt(2)
        labels, margins = gender_probe(e, [1.0, 0.0], [0.0, 1.0])
        assert list(labels) == ["female"]
        assert margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_male_match(self):
        labels, margins = gender_probe([[0.1, 0.9]], [1.0, 0.0], [0.0, 1.0])
        assert list(labels) == ["male"]
        assert margins[0] > 0

    def test_scale_invariant_decision(self):
        e = np.array([[0.3, 0.7]])
        base = gender_probe(e, [1.0, 0.0], [0.0, 1.0])
        scaled = gender_probe(10.0 * e, [1.0, 0.0], [0.0, 1.0])
        assert list(base[0]) == list(scaled[0])
        assert base[1][0] == pytest.approx(scaled[1][0], abs=1e-12)

    def test_non_unit_centroid_rejected(self):
        with pytest.raises(ValidationError):
            gender_probe([[1.0, 0.0]], [2.0, 0.0], [0.0, 1.0])

    def test_non_finite_centroid_rejected(self):
        # A NaN norm fails every comparison, so it must not pass as unit-norm.
        with pytest.raises(ValidationError):
            gender_probe([[1.0, 0.0]], [np.nan, 0.0], [0.0, 1.0])
        with pytest.raises(ValidationError):
            gender_probe([[1.0, 0.0]], [1.0, 0.0], [np.inf, 0.0])

    def test_single_vector_rejected(self):
        with pytest.raises(ShapeError):
            gender_probe([1.0, 0.0], [1.0, 0.0], [0.0, 1.0])


def reference_cosine(a, b) -> float:
    """The scalar per-pair cosine the stacked one replaced."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def reference_eer(scores, genuine) -> float:
    """The per-threshold sweep the sort-based eer replaced."""
    target = np.array([s for s, g in zip(scores, genuine) if g])
    impostor = np.array([s for s, g in zip(scores, genuine) if not g])
    best_gap = best_eer = None
    for thr in sorted(set(target) | set(impostor)):
        far = float(np.mean(impostor >= thr))
        frr = float(np.mean(target < thr))
        if best_gap is None or abs(far - frr) < best_gap:
            best_gap, best_eer = abs(far - frr), (far + frr) / 2.0
    return best_eer


unit_scores = st.floats(-1.0, 1.0, allow_nan=False)


class TestScoringOracle:
    """Stacked cosine and sort-based eer against the per-pair, per-threshold
    code they replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_eer_equals_sweep(self, data):
        # Drawing n scores from a pool of k values gives ties, across and
        # within classes, whenever k < n.
        pool = data.draw(st.lists(unit_scores, min_size=1, max_size=40), label="pool")
        n = data.draw(st.integers(2, 40), label="n")
        scores = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n),
                           label="scores")
        genuine = data.draw(st.lists(st.booleans(), min_size=n, max_size=n)
                            .filter(lambda g: 0 < sum(g) < len(g)), label="genuine")
        assert eer(scores, genuine) == reference_eer(scores, genuine)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_stacked_cosine_equals_rows(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, n, dim))
        stacked = cosine(a, b)
        assert stacked.shape == (n,)
        assert list(stacked) == [reference_cosine(x, y) for x, y in zip(a, b)]
        against_one = cosine(a, b[0])
        assert list(against_one) == [reference_cosine(x, b[0]) for x in a]

    def test_pipeline_trials_equal_pairwise_reference(self):
        rng = np.random.default_rng(5)
        utterances = [Utterance(f"s{k % 3}", "male", None, f"u{k}") for k in range(7)]
        embeddings = rng.normal(size=(7, 16))
        scores, genuine = verification_trials(utterances, embeddings)
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        assert list(scores) == [reference_cosine(embeddings[i], embeddings[j])
                                for i, j in pairs]
        assert list(genuine) == [i % 3 == j % 3 for i, j in pairs]


class TestReports:
    def test_csv_header_and_fields(self, tmp_path):
        rows = [
            ReportRow("eer", "all", 0.125),
            ReportRow("mos_naturalness", "female", 4.0, 1.52, 6.48),
        ]
        path = tmp_path / "report.csv"
        write_csv_report(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric,cohort,value,ci_low,ci_high"
        assert lines[1] == "eer,all,0.125,,"
        assert lines[2] == "mos_naturalness,female,4.0,1.52,6.48"

    def test_text_report_lines(self, tmp_path):
        rows = [ReportRow("wer", "all", 0.25), ReportRow("mos", "male", 3.0, 2.0, 4.0)]
        path = tmp_path / "report.txt"
        write_text_report(rows, path)
        text = path.read_text(encoding="utf-8")
        assert "wer [all]: 0.250000" in text
        assert "mos [male]: 3.000000 (95% CI 2.000000 .. 4.000000)" in text
