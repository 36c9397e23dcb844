"""Triplet policy: gender split, severity coefficients, seeded determinism."""

import logging

import numpy as np
import pytest

from dsrkit.audio import AudioBuffer
from dsrkit.errors import ParameterError, SamplingError
from dsrkit.sampling import (
    SpeakerProfile,
    Triplet,
    Utterance,
    build_triplet,
    coeffs_for,
    iter_batches,
)

SR = 16000


def tone_utt(speaker_id, f0, utt_id, duration_s=0.5):
    t = np.arange(int(SR * duration_s)) / SR
    buf = AudioBuffer(0.5 * np.sin(2 * np.pi * f0 * t), SR)
    return Utterance(speaker_id, buf, utterance_id=utt_id)


def fft_peak_hz(buf):
    spec = np.abs(np.fft.rfft(buf.samples))
    return np.argmax(spec) * buf.sample_rate / len(buf)


@pytest.fixture
def small_pool():
    utts = [
        tone_utt("f1", 220.0, "f1-0"),
        tone_utt("f1", 230.0, "f1-1"),
        tone_utt("m1", 120.0, "m1-0"),
        tone_utt("m1", 125.0, "m1-1"),
        tone_utt("m2", 140.0, "m2-0"),
    ]
    profiles = {
        "f1": SpeakerProfile("f1", "female", "moderate_severe"),
        "m1": SpeakerProfile("m1", "male", "moderate_severe"),
        "m2": SpeakerProfile("m2", "male", "moderate"),
    }
    return utts, profiles


class TestCoeffsFor:
    def test_moderate_severe(self):
        c = coeffs_for("moderate_severe")
        assert (c.pitch_coeff, c.tempo_coeff) == (0.5, 0.5)

    def test_moderate(self):
        c = coeffs_for("moderate")
        assert (c.pitch_coeff, c.tempo_coeff) == (0.25, 0.7)

    def test_unknown_severity_rejected(self):
        with pytest.raises(ParameterError):
            coeffs_for("mild")
        with pytest.raises(ParameterError):
            coeffs_for(None)


class TestBuildTriplet:
    def test_female_policy(self, small_pool):
        utts, profiles = small_pool
        anchor = utts[0]
        trip = build_triplet(anchor, profiles["f1"], utts, seed=1, cache={})
        assert trip.positive.speaker_id == "f1"
        assert trip.negative.speaker_id == "f1"
        assert trip.policy_tag["negative_source"] == "self_pitch_shift"
        assert trip.policy_tag["pitch_coeff"] == 0.5
        # tempo 0.5 doubles the positive; pitch 0.5 scales the negative by 0.75
        assert abs(len(trip.positive.buffer) - 2 * len(anchor.buffer)) \
            <= 0.01 * 2 * len(anchor.buffer)
        assert abs(fft_peak_hz(trip.negative.buffer) - 0.75 * 220.0) <= 0.03 * 165.0

    def test_male_policy_uses_cross_speaker_negative(self, small_pool):
        utts, profiles = small_pool
        anchor = utts[2]
        trip = build_triplet(anchor, profiles["m1"], utts, seed=5, cache={})
        assert trip.negative.speaker_id != "m1"
        assert trip.policy_tag["negative_source"].startswith("cross_speaker:")
        assert abs(len(trip.positive.buffer) - 2 * len(anchor.buffer)) \
            <= 0.01 * 2 * len(anchor.buffer)

    def test_male_same_seed_same_negative(self, small_pool):
        utts, profiles = small_pool
        anchor = utts[2]
        first = build_triplet(anchor, profiles["m1"], utts, seed=9, cache={})
        second = build_triplet(anchor, profiles["m1"], utts, seed=9, cache={})
        assert first.negative.utterance_id == second.negative.utterance_id

    def test_male_empty_pool_rejected(self, small_pool):
        utts, profiles = small_pool
        anchor = utts[2]
        same_speaker_only = [u for u in utts if u.speaker_id == "m1"]
        with pytest.raises(SamplingError):
            build_triplet(anchor, profiles["m1"], same_speaker_only, seed=0, cache={})

    def test_missing_severity_rejected(self, small_pool):
        utts, _ = small_pool
        profile = SpeakerProfile("f1", "female")
        with pytest.raises(ParameterError):
            build_triplet(utts[0], profile, utts, seed=0, cache={})

    def test_moderate_severity_coeffs_applied(self, small_pool):
        utts, profiles = small_pool
        anchor = utts[4]
        trip = build_triplet(anchor, profiles["m2"], utts, seed=2, cache={})
        assert trip.policy_tag == {
            "pitch_coeff": 0.25, "tempo_coeff": 0.7,
            "negative_source": trip.policy_tag["negative_source"],
        }
        target = len(anchor.buffer) / 0.7
        assert abs(len(trip.positive.buffer) - target) <= 0.01 * target

    def test_cache_reuses_augmented_audio(self, small_pool):
        utts, profiles = small_pool
        cache = {}
        a = build_triplet(utts[0], profiles["f1"], utts, seed=1, cache=cache)
        b = build_triplet(utts[0], profiles["f1"], utts, seed=2, cache=cache)
        assert a.positive.buffer is b.positive.buffer
        assert a.negative.buffer is b.negative.buffer


class TestTripletInvariants:
    def test_cross_speaker_positive_rejected(self, small_pool):
        utts, _ = small_pool
        with pytest.raises(ParameterError):
            Triplet(anchor=utts[0], positive=utts[2], negative=utts[4])

    def test_anchor_as_negative_rejected(self, small_pool):
        utts, _ = small_pool
        with pytest.raises(ParameterError):
            Triplet(anchor=utts[0], positive=utts[1], negative=utts[0])


class TestProfiles:
    def test_enums_enforced(self):
        with pytest.raises(ParameterError):
            SpeakerProfile("x", "unknown")
        with pytest.raises(ParameterError):
            SpeakerProfile("x", "female", "severe")
        with pytest.raises(ParameterError):
            SpeakerProfile("", "female")


def first_batch(utts, profiles, batch_size, seed):
    return next(iter_batches(utts, profiles, batch_size=batch_size, seed=seed, cache={}))


class TestMakeBatch:
    """The first batch iter_batches makes: one seeded draw without replacement."""

    def test_batch_size_respected(self, small_pool):
        utts, profiles = small_pool
        assert len(first_batch(utts, profiles, 1, 0)) == 1
        assert len(first_batch(utts, profiles, 4, 0)) == 4

    def test_short_batch_allowed_and_flagged(self, small_pool, caplog):
        utts, profiles = small_pool
        with caplog.at_level(logging.WARNING, logger="dsrkit.sampling"):
            batch = first_batch(utts, profiles, 64, 0)
        assert len(batch) == len(utts)
        assert any("short batch" in r.message for r in caplog.records)

    def test_same_seed_reproduces_batch(self, small_pool):
        utts, profiles = small_pool
        def signature(batch):
            return [(t.anchor.utterance_id, t.negative.utterance_id,
                     t.policy_tag["negative_source"]) for t in batch]
        a = first_batch(utts, profiles, 4, 33)
        b = first_batch(utts, profiles, 4, 33)
        assert signature(a) == signature(b)

    def test_epoch_has_no_repeat_anchors(self, small_pool):
        utts, profiles = small_pool
        batch = first_batch(utts, profiles, 5, 7)
        anchors = [t.anchor.utterance_id for t in batch]
        assert len(set(anchors)) == len(anchors)

    def test_coefficients_always_match_severity(self, small_pool):
        utts, profiles = small_pool
        for trip in first_batch(utts, profiles, 5, 11):
            expected = coeffs_for(profiles[trip.anchor.speaker_id].severity)
            assert trip.policy_tag["pitch_coeff"] == expected.pitch_coeff
            assert trip.policy_tag["tempo_coeff"] == expected.tempo_coeff


class TestIterBatches:
    def test_stream_is_deterministic(self, small_pool):
        utts, profiles = small_pool
        def take(n):
            gen = iter_batches(utts, profiles, batch_size=2, seed=5, cache={})
            out = []
            for _ in range(n):
                out.append([(t.anchor.utterance_id, t.negative.utterance_id)
                            for t in next(gen)])
            return out
        assert take(6) == take(6)

    def test_epoch_covers_pool_without_replacement(self, small_pool):
        utts, profiles = small_pool
        gen = iter_batches(utts, profiles, batch_size=1, seed=3, cache={})
        seen = [next(gen)[0].anchor.utterance_id for _ in range(len(utts))]
        assert sorted(seen) == sorted(u.utterance_id for u in utts)
