"""Triplet policy: gender split, severity coefficients, seeded determinism."""

import dataclasses
import logging
import sys
import threading

import numpy as np
import pytest

import dsrkit.pipeline
import dsrkit.sampling
from dsrkit.audio import AudioBuffer, read_wav, write_wav
from dsrkit.augment import pitch_shift, tempo_change
from dsrkit.errors import ParameterError, SamplingError
from dsrkit.sampling import (
    Triplet,
    Utterance,
    build_triplet,
    cache_features,
    coeffs_for,
    derive,
    iter_batches,
)

SR = 16000


def tone_utt(folder, speaker_id, gender, severity, f0, name, duration_s=0.5):
    """A tone saved as folder/name.wav; its path is the utterance_id."""
    t = np.arange(int(SR * duration_s)) / SR
    wav = folder / f"{name}.wav"
    write_wav(AudioBuffer(0.5 * np.sin(2 * np.pi * f0 * t), SR), wav)
    return Utterance(speaker_id, gender, severity, utterance_id=str(wav))


def audio(utterance_id, transforms):
    """Identity featurizer: the cache keeps each clip's decoded audio."""
    clip = read_wav(utterance_id)
    return [clip if t is None else t(clip) for t in transforms]


# The pipeline's feature function: log-mel at the default config.
MEL = dsrkit.pipeline._features(dsrkit.pipeline.RunConfig())


def featurized_triplet(anchor, pool, seed, cache, featurize=audio):
    """build_triplet, then the features of its three members in cache."""
    trip = build_triplet(anchor, pool, seed)
    cache_features([trip.anchor, trip.positive, trip.negative], cache, featurize)
    return trip


def fft_peak_hz(buf):
    spec = np.abs(np.fft.rfft(buf.samples))
    return np.argmax(spec) * buf.sample_rate / len(buf)


@pytest.fixture
def small_pool(tmp_path):
    return [
        tone_utt(tmp_path, "f1", "female", "moderate_severe", 220.0, "f1-0"),
        tone_utt(tmp_path, "f1", "female", "moderate_severe", 230.0, "f1-1"),
        tone_utt(tmp_path, "m1", "male", "moderate_severe", 120.0, "m1-0"),
        tone_utt(tmp_path, "m1", "male", "moderate_severe", 125.0, "m1-1"),
        tone_utt(tmp_path, "m2", "male", "moderate", 140.0, "m2-0"),
    ]


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
        utts = small_pool
        anchor = utts[0]
        cache = {}
        trip = featurized_triplet(anchor, utts, seed=1, cache=cache)
        assert trip.positive.speaker_id == "f1"
        assert trip.negative.speaker_id == "f1"
        assert trip.policy_tag["negative_source"] == "self_pitch_shift"
        assert trip.policy_tag["pitch_coeff"] == 0.5
        # Derived clips keep the anchor's speaker metadata; their features
        # and the anchor's own are in the cache.
        for clip in (trip.positive, trip.negative):
            assert (clip.gender, clip.severity) == ("female", "moderate_severe")
        a = anchor.utterance_id
        assert set(cache) == {a, f"{a}#tempo0.5", f"{a}#pitch0.5"}
        # tempo 0.5 doubles the positive; pitch 0.5 scales the negative by 0.75
        positive, negative = cache[trip.positive.utterance_id], cache[trip.negative.utterance_id]
        assert len(cache[a]) == 8000
        assert abs(len(positive) - 2 * 8000) <= 0.01 * 2 * 8000
        assert abs(fft_peak_hz(negative) - 0.75 * 220.0) <= 0.03 * 165.0

    def test_male_policy_uses_cross_speaker_negative(self, small_pool):
        utts = small_pool
        anchor = utts[2]
        cache = {}
        trip = featurized_triplet(anchor, utts, seed=5, cache=cache)
        assert trip.negative.speaker_id != "m1"
        assert trip.policy_tag["negative_source"].startswith("cross_speaker:")
        assert trip.negative in utts
        positive = cache[trip.positive.utterance_id]
        assert abs(len(positive) - 2 * 8000) <= 0.01 * 2 * 8000

    def test_male_same_seed_same_negative(self, small_pool):
        utts = small_pool
        anchor = utts[2]
        first = build_triplet(anchor, utts, seed=9)
        second = build_triplet(anchor, utts, seed=9)
        assert first.negative.utterance_id == second.negative.utterance_id

    def test_male_empty_pool_rejected(self, small_pool):
        utts = small_pool
        anchor = utts[2]
        same_speaker_only = [u for u in utts if u.speaker_id == "m1"]
        with pytest.raises(SamplingError):
            build_triplet(anchor, same_speaker_only, seed=0)

    def test_missing_severity_rejected(self, small_pool):
        utts = small_pool
        anchor = dataclasses.replace(utts[0], severity=None)
        with pytest.raises(ParameterError):
            build_triplet(anchor, utts, seed=0)

    def test_moderate_severity_coeffs_applied(self, small_pool):
        utts = small_pool
        anchor = utts[4]
        cache = {}
        trip = featurized_triplet(anchor, utts, seed=2, cache=cache)
        assert trip.policy_tag == {
            "pitch_coeff": 0.25, "tempo_coeff": 0.7,
            "negative_source": trip.policy_tag["negative_source"],
        }
        target = 8000 / 0.7
        assert abs(len(cache[trip.positive.utterance_id]) - target) <= 0.01 * target

    def test_cache_reuses_augmented_audio(self, small_pool):
        utts = small_pool
        cache, featurized = {}, []

        def counted(utterance_id, transforms):
            featurized.append(len(transforms))
            return audio(utterance_id, transforms)

        a = featurized_triplet(utts[0], utts, seed=1, cache=cache, featurize=counted)
        kept = dict(cache)
        b = featurized_triplet(utts[0], utts, seed=2, cache=cache, featurize=counted)
        # One call decoded the anchor for its own clip and both augments.
        assert featurized == [3]
        assert (a.positive.utterance_id, a.negative.utterance_id) \
            == (b.positive.utterance_id, b.negative.utterance_id)
        assert cache.keys() == kept.keys()
        assert all(cache[k] is kept[k] for k in kept)


class TestTripletInvariants:
    def test_cross_speaker_positive_rejected(self, small_pool):
        utts = small_pool
        with pytest.raises(ParameterError):
            Triplet(anchor=utts[0], positive=utts[2], negative=utts[4])

    def test_anchor_as_negative_rejected(self, small_pool):
        utts = small_pool
        with pytest.raises(ParameterError):
            Triplet(anchor=utts[0], positive=utts[1], negative=utts[0])


class TestProfiles:
    def test_enums_enforced(self):
        with pytest.raises(ParameterError):
            Utterance("x", "unknown", None, "u")
        with pytest.raises(ParameterError):
            Utterance("x", "female", "severe", "u")
        with pytest.raises(ParameterError):
            Utterance("", "female", None, "u")


def first_batch(utts, batch_size, seed):
    return next(iter_batches(utts, batch_size=batch_size, seed=seed))


class TestMakeBatch:
    """The first batch iter_batches makes: one seeded draw without replacement."""

    def test_batch_size_respected(self, small_pool):
        utts = small_pool
        assert len(first_batch(utts, 1, 0)) == 1
        assert len(first_batch(utts, 4, 0)) == 4

    def test_short_batch_allowed_and_flagged(self, small_pool, caplog):
        utts = small_pool
        with caplog.at_level(logging.WARNING, logger="dsrkit.sampling"):
            batch = first_batch(utts, 64, 0)
        assert len(batch) == len(utts)
        assert any("short batch" in r.message for r in caplog.records)

    def test_same_seed_reproduces_batch(self, small_pool):
        utts = small_pool
        def signature(batch):
            return [(t.anchor.utterance_id, t.negative.utterance_id,
                     t.policy_tag["negative_source"]) for t in batch]
        a = first_batch(utts, 4, 33)
        b = first_batch(utts, 4, 33)
        assert signature(a) == signature(b)

    def test_epoch_has_no_repeat_anchors(self, small_pool):
        utts = small_pool
        batch = first_batch(utts, 5, 7)
        anchors = [t.anchor.utterance_id for t in batch]
        assert len(set(anchors)) == len(anchors)

    def test_coefficients_always_match_severity(self, small_pool):
        utts = small_pool
        for trip in first_batch(utts, 5, 11):
            expected = coeffs_for(trip.anchor.severity)
            assert trip.policy_tag["pitch_coeff"] == expected.pitch_coeff
            assert trip.policy_tag["tempo_coeff"] == expected.tempo_coeff


class TestIterBatches:
    def test_stream_is_deterministic(self, small_pool):
        utts = small_pool
        def take(n):
            gen = iter_batches(utts, batch_size=2, seed=5)
            out = []
            for _ in range(n):
                out.append([(t.anchor.utterance_id, t.negative.utterance_id)
                            for t in next(gen)])
            return out
        assert take(6) == take(6)

    def test_epoch_covers_pool_without_replacement(self, small_pool):
        utts = small_pool
        gen = iter_batches(utts, batch_size=1, seed=3)
        seen = [next(gen)[0].anchor.utterance_id for _ in range(len(utts))]
        assert sorted(seen) == sorted(u.utterance_id for u in utts)


def requests_of(batch):
    """The distinct (utterance_id, kind, coeff) augments a batch asked for."""
    out = set()
    for t in batch:
        out.add((t.anchor.utterance_id, "tempo", t.policy_tag["tempo_coeff"]))
        if t.policy_tag["negative_source"] == "self_pitch_shift":
            out.add((t.anchor.utterance_id, "pitch", t.policy_tag["pitch_coeff"]))
    return out


def payload(features):
    return features.samples if isinstance(features, AudioBuffer) else features.frames


def members(batch):
    return [u for t in batch for u in (t.anchor, t.positive, t.negative)]


class TestPrefetch:
    """A pulled batch's augments are rendered and featurized on the worker
    pool by `cache_features`; the cache and the triplets must be exactly
    what the serial calls give."""

    def test_cached_buffers_equal_direct_calls(self, small_pool):
        direct = {"tempo": tempo_change, "pitch": pitch_shift}
        for featurize in (audio, MEL):
            cache = {}
            gen = iter_batches(small_pool, batch_size=3, seed=2)
            batches = [next(gen) for _ in range(4)]
            for batch in batches:
                cache_features(members(batch), cache, featurize)
            requests = set().union(*map(requests_of, batches))
            anchors = {t.anchor.utterance_id for batch in batches for t in batch}
            # Keyed by the derived clip's utterance_id, and by the anchor's own.
            assert set(cache) == anchors | {f"{utt_id}#{kind}{coeff}"
                                            for utt_id, kind, coeff in requests}
            for utt_id in anchors:
                [want] = featurize(utt_id, [None])
                assert np.array_equal(payload(cache[utt_id]).view(np.int64),
                                      payload(want).view(np.int64))
            for utt_id, kind, coeff in requests:
                [want] = featurize(utt_id, [lambda clip: direct[kind](clip, coeff)])
                got = cache[f"{utt_id}#{kind}{coeff}"]
                assert type(got) is type(want)
                assert np.array_equal(payload(got).view(np.int64),
                                      payload(want).view(np.int64))
            for t in (t for batch in batches for t in batch):
                assert t.positive.utterance_id == (
                    f"{t.anchor.utterance_id}#tempo{t.policy_tag['tempo_coeff']}")
                # A derived clip is the anchor's metadata under another id.
                assert dataclasses.replace(t.positive,
                                           utterance_id=t.anchor.utterance_id) == t.anchor
                assert t.positive.utterance_id in cache

    def test_one_vocoder_call_per_distinct_request(self, small_pool, monkeypatch):
        lock = threading.Lock()
        calls = []

        def counted(fn, kind):
            def wrapper(buffer, coeff):
                with lock:
                    calls.append(kind)
                return fn(buffer, coeff)
            return wrapper

        monkeypatch.setattr(dsrkit.sampling, "tempo_change", counted(tempo_change, "tempo"))
        monkeypatch.setattr(dsrkit.sampling, "pitch_shift", counted(pitch_shift, "pitch"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # 5 utterances, 2 per batch: 5 pulls span 3 epochs, so anchors repeat.
            gen = iter_batches(small_pool, batch_size=2, seed=9)
            cache, seen = {}, set()
            for _ in range(5):
                batch = next(gen)
                cache_features(members(batch), cache, audio)
                seen |= requests_of(batch)
                # No look-ahead into the next batch, no request run twice.
                assert len(calls) == len(seen)
        finally:
            sys.setswitchinterval(interval)
        assert "pitch" in calls and "tempo" in calls

    def test_missing_severity_rejected_in_batch(self, small_pool, tmp_path):
        pool = small_pool + [tone_utt(tmp_path, "x1", "female", None, 200.0, "x1-0")]
        with pytest.raises(ParameterError, match="has no severity"):
            next(iter_batches(pool, batch_size=len(pool), seed=0))

    def test_pulling_a_batch_runs_no_vocoder(self, small_pool, monkeypatch):
        def refuse(buffer, coeff):
            raise AssertionError("a batch pull ran the vocoder")

        monkeypatch.setattr(dsrkit.sampling, "tempo_change", refuse)
        monkeypatch.setattr(dsrkit.sampling, "pitch_shift", refuse)
        gen = iter_batches(small_pool, batch_size=2, seed=9)
        batches = [next(gen) for _ in range(5)]
        assert any(t.policy_tag["negative_source"] == "self_pitch_shift"
                   for batch in batches for t in batch)


class TestDerive:
    def test_id_metadata_and_source(self, small_pool):
        anchor = small_pool[0]
        shift = derive(anchor, "pitch0.5", lambda clip: pitch_shift(clip, 0.5))
        assert shift.utterance_id == f"{anchor.utterance_id}#pitch0.5"
        assert (shift.speaker_id, shift.gender, shift.severity) \
            == (anchor.speaker_id, anchor.gender, anchor.severity)
        # A corpus clip is its own source and has no transform.
        assert anchor.source == anchor.utterance_id and anchor.transform is None
        assert shift.source == anchor.utterance_id

    def test_equality_ignores_transform(self, small_pool):
        anchor = small_pool[0]
        a = derive(anchor, "tempo0.5", lambda clip: tempo_change(clip, 0.5))
        b = derive(anchor, "tempo0.5", lambda clip: tempo_change(clip, 0.5))
        assert a.transform is not b.transform
        assert a == b
        assert a != derive(anchor, "tempo0.7", a.transform)


class TestCacheFeatures:
    def test_one_featurize_call_per_source_in_first_seen_order(self, small_pool):
        f1, m1 = small_pool[0], small_pool[2]
        up = derive(f1, "up", lambda clip: clip)
        down = derive(f1, "down", lambda clip: clip)
        slow = derive(m1, "slow", lambda clip: clip)
        calls = []

        def recording(source, transforms):
            calls.append((source, transforms))
            return [f"{source}:{i}" for i in range(len(transforms))]

        cache = {}
        cache_features([up, m1, f1, slow, down, up], cache, recording)
        assert calls == [(f1.utterance_id, [up.transform, None, down.transform]),
                         (m1.utterance_id, [None, slow.transform])]
        assert cache == {up.utterance_id: f"{f1.utterance_id}:0",
                         f1.utterance_id: f"{f1.utterance_id}:1",
                         down.utterance_id: f"{f1.utterance_id}:2",
                         m1.utterance_id: f"{m1.utterance_id}:0",
                         slow.utterance_id: f"{m1.utterance_id}:1"}

    def test_only_missing_features_are_made(self, small_pool):
        f1, m1 = small_pool[0], small_pool[2]
        up = derive(f1, "up", lambda clip: clip)
        calls = []

        def recording(source, transforms):
            calls.append((source, transforms))
            return [None] * len(transforms)

        cache = {f1.utterance_id: "kept"}
        cache_features([f1, up, m1], cache, recording)
        assert calls == [(f1.utterance_id, [up.transform]), (m1.utterance_id, [None])]
        assert cache[f1.utterance_id] == "kept"
        calls.clear()
        cache_features([f1, up, m1], cache, recording)
        assert calls == []
