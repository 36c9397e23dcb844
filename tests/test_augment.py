"""Pitch/tempo transforms checked against FFT-peak and length oracles, and
the one-pass vocoder against the per-step and per-frame loops it replaced."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from dsrkit.audio import AudioBuffer
from dsrkit.augment import (
    HOP,
    MIN_SAMPLES,
    N_FFT,
    WINDOW,
    _istft,
    _phase_vocoder,
    _stft,
    pitch_shift,
    tempo_change,
)
from dsrkit.errors import EmptyInputError, ParameterError
from dsrkit.sampling import SEVERITY_COEFFS

SR = 16000


def tone(f0, duration_s=1.0, sr=SR):
    t = np.arange(int(round(duration_s * sr))) / sr
    return AudioBuffer(0.5 * np.sin(2 * np.pi * f0 * t), sr)


def fft_peak_hz(buf):
    spec = np.abs(np.fft.rfft(buf.samples))
    return np.argmax(spec) * buf.sample_rate / len(buf)


class TestPitchShift:
    def test_220hz_coeff_half_lands_at_165(self):
        out = pitch_shift(tone(220.0), 0.5)
        assert abs(fft_peak_hz(out) - 165.0) <= 3.0
        assert abs(len(out) - SR) <= 160

    def test_coeff_zero_is_exact_identity(self):
        buf = tone(220.0)
        out = pitch_shift(buf, 0.0)
        assert out is buf

    def test_ratio_sweep(self):
        for f0 in (120.0, 220.0, 300.0):
            for coeff in (0.25, 0.5, 1.0):
                ratio = 1.0 - coeff * 0.5
                out = pitch_shift(tone(f0), coeff)
                assert abs(fft_peak_hz(out) - ratio * f0) <= 0.03 * ratio * f0
                assert abs(len(out) - SR) < 0.01 * SR

    def test_output_valid_buffer(self):
        out = pitch_shift(tone(220.0), 0.5)
        assert np.all(np.isfinite(out.samples))
        assert np.max(np.abs(out.samples)) <= 1.0

    def test_short_buffer_rejected(self):
        with pytest.raises(EmptyInputError):
            pitch_shift(AudioBuffer(np.zeros(MIN_SAMPLES - 1)), 0.5)

    def test_coeff_out_of_range(self):
        buf = tone(220.0)
        with pytest.raises(ParameterError):
            pitch_shift(buf, 1.5)
        with pytest.raises(ParameterError):
            pitch_shift(buf, -0.1)

    def test_deterministic(self):
        a = pitch_shift(tone(220.0), 0.5)
        b = pitch_shift(tone(220.0), 0.5)
        assert a.samples.tobytes() == b.samples.tobytes()


class TestTempoChange:
    def test_coeff_half_doubles_duration_pitch_fixed(self):
        out = tempo_change(tone(220.0), 0.5)
        assert abs(len(out) - 2 * SR) <= 0.01 * 2 * SR
        assert abs(fft_peak_hz(out) - 220.0) <= 6.6

    def test_coeff_one_is_exact_identity(self):
        buf = tone(220.0)
        out = tempo_change(buf, 1.0)
        assert out is buf

    def test_duration_and_peak_sweep(self):
        for f0 in (120.0, 220.0, 300.0):
            for coeff in (0.5, 0.7):
                out = tempo_change(tone(f0), coeff)
                target = SR / coeff
                assert abs(len(out) - target) <= 0.01 * target
                assert abs(fft_peak_hz(out) - f0) <= 0.03 * f0

    def test_composition_with_identity_keeps_length(self):
        once = tempo_change(tone(220.0), 0.5)
        again = tempo_change(once, 1.0)
        assert len(again) == len(once)

    def test_output_valid_buffer(self):
        out = tempo_change(tone(300.0), 0.5)
        assert np.all(np.isfinite(out.samples))
        assert np.max(np.abs(out.samples)) <= 1.0

    def test_short_buffer_rejected(self):
        with pytest.raises(EmptyInputError):
            tempo_change(AudioBuffer(np.zeros(MIN_SAMPLES - 1)), 0.5)

    def test_coeff_out_of_range(self):
        buf = tone(220.0)
        with pytest.raises(ParameterError):
            tempo_change(buf, 0.0)
        with pytest.raises(ParameterError):
            tempo_change(buf, 1.2)


class TestSeverityCoeffs:
    def test_each_entry_runs_through_both_transforms(self):
        """Each severity's strengths are in range for the transforms that
        use them, which check their ranges on every call."""
        buf = tone(220.0, duration_s=MIN_SAMPLES / SR)
        assert len(buf) == MIN_SAMPLES
        for pitch_coeff, tempo_coeff in SEVERITY_COEFFS.values():
            assert len(pitch_shift(buf, pitch_coeff)) == MIN_SAMPLES
            assert len(tempo_change(buf, tempo_coeff)) == round(MIN_SAMPLES / tempo_coeff)


class TestOnVoiceLikeSignal:
    """Same calibration on a harmonic stack, not just pure sines."""

    def test_pitch_shift_moves_harmonic_voice(self):
        from dsrkit.audio import VoiceSpec, synth_voice

        buf = synth_voice(VoiceSpec(f0=220.0, n_harmonics=6, harmonic_rolloff=12.0,
                                    duration_s=1.0, seed=4))
        out = pitch_shift(buf, 0.5)
        assert abs(fft_peak_hz(out) - 165.0) <= 5.0

    def test_tempo_keeps_harmonic_voice_pitch(self):
        from dsrkit.audio import VoiceSpec, synth_voice

        buf = synth_voice(VoiceSpec(f0=180.0, n_harmonics=6, harmonic_rolloff=12.0,
                                    duration_s=1.0, seed=8))
        out = tempo_change(buf, 0.5)
        npt.assert_allclose(len(out), 2 * SR, rtol=0.01)
        assert abs(fft_peak_hz(out) - 180.0) <= 0.03 * 180.0


def reference_stft(x):
    """Index-gather framing, as _stft framed before its strided view."""
    n_frames = (len(x) - N_FFT) // HOP + 1
    idx = np.arange(N_FFT)[None, :] + HOP * np.arange(n_frames)[:, None]
    return np.fft.rfft(x[idx] * np.hanning(N_FFT), axis=1)


def reference_istft(frames, length):
    """Per-frame overlap-add, as _istft ran before its block adds."""
    window = np.hanning(N_FFT)
    n_frames = frames.shape[0]
    total = N_FFT + HOP * (n_frames - 1)
    y = np.zeros(total)
    wsum = np.zeros(total)
    chunks = np.fft.irfft(frames, n=N_FFT, axis=1)
    for i in range(n_frames):
        start = i * HOP
        y[start:start + N_FFT] += window * chunks[i]
        wsum[start:start + N_FFT] += window * window
    good = wsum > 1e-8
    y[good] /= wsum[good]
    if len(y) >= length:
        return y[:length]
    return np.pad(y, (0, length - len(y)))


def reference_phase_vocoder(frames, rate):
    """Per-output-step phase vocoder, as _phase_vocoder ran before one pass."""
    n_frames, n_bins = frames.shape
    steps = np.arange(0.0, n_frames, rate)
    padded = np.vstack([frames, np.zeros((2, n_bins), dtype=frames.dtype)])
    expected = 2.0 * np.pi * HOP * np.arange(n_bins) / N_FFT
    out = np.empty((len(steps), n_bins), dtype=np.complex128)
    phase = np.angle(padded[0])
    for i, t in enumerate(steps):
        lo = int(t)
        frac = t - lo
        a, b = padded[lo], padded[lo + 1]
        mag = (1.0 - frac) * np.abs(a) + frac * np.abs(b)
        out[i] = mag * np.exp(1j * phase)
        dphase = np.angle(b) - np.angle(a) - expected
        dphase -= 2.0 * np.pi * np.round(dphase / (2.0 * np.pi))
        phase += expected + dphase
    return out


def assert_same_bits(actual, expected):
    """Equal dtype, shape and bit patterns: signed zeros must match too."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


def signal(n, seed, silent_head):
    """Noise at a random level; a silent first half gives all-zero frames."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.01, 0.9) * rng.standard_normal(n)
    if silent_head:
        x[:n // 2] = 0.0
    return x


rates = st.one_of(st.sampled_from([0.5, 0.7, 4 / 3, 8 / 7]), st.floats(0.3, 2.5))
lengths = st.integers(MIN_SAMPLES, 3 * SR)
seeds = st.integers(0, 2**32 - 1)


class TestVocoderOracle:
    """The strided, one-pass STFT, vocoder and overlap-add against the loops
    they replaced, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(n=lengths, seed=seeds, silent_head=st.booleans())
    def test_stft_equals_index_gather(self, n, seed, silent_head):
        x = signal(n, seed, silent_head)
        assert_same_bits(_stft(x), reference_stft(x))

    @settings(max_examples=150, deadline=None)
    @given(rate=rates, n=lengths, seed=seeds, silent_head=st.booleans())
    @example(rate=0.5, n=MIN_SAMPLES, seed=0, silent_head=False)
    @example(rate=4 / 3, n=SR, seed=1, silent_head=True)
    def test_phase_vocoder_equals_step_loop(self, rate, n, seed, silent_head):
        frames = reference_stft(signal(n, seed, silent_head))
        assert_same_bits(_phase_vocoder(frames, rate), reference_phase_vocoder(frames, rate))

    @settings(max_examples=150, deadline=None)
    @given(rate=rates, n=lengths, seed=seeds, stretch=st.floats(0.3, 3.0))
    @example(rate=0.7, n=SR, seed=2, stretch=0.5)  # trims
    @example(rate=8 / 7, n=SR, seed=3, stretch=2.5)  # pads
    def test_istft_equals_frame_loop(self, rate, n, seed, stretch):
        frames = reference_phase_vocoder(reference_stft(signal(n, seed, False)), rate)
        # The overlap-add spans HOP * (n_frames + 3) samples.
        length = max(1, int(stretch * HOP * (len(frames) + 3)))
        assert_same_bits(_istft(frames, length), reference_istft(frames, length))

    @settings(max_examples=40, deadline=None)
    @given(coeff=st.sampled_from([0.25, 0.5, 0.7]) | st.floats(0.05, 0.95),
           n=lengths, seed=seeds)
    def test_transforms_equal_loop_composition(self, coeff, n, seed):
        buf = AudioBuffer(signal(n, seed, False), SR)
        stretched = reference_phase_vocoder(reference_stft(buf.samples), coeff)
        tempo = reference_istft(stretched, int(round(n / coeff)))
        assert_same_bits(tempo_change(buf, coeff).samples, np.clip(tempo, -1.0, 1.0))
        ratio = 1.0 - coeff * 0.5
        stretched = reference_phase_vocoder(reference_stft(buf.samples), 1.0 / ratio)
        mid = reference_istft(stretched, int(round(n * ratio)))
        pitch = np.interp(np.arange(n) * ratio, np.arange(len(mid)), mid)
        assert_same_bits(pitch_shift(buf, coeff).samples, np.clip(pitch, -1.0, 1.0))

    def test_window_is_read_only(self):
        assert_same_bits(WINDOW, np.hanning(N_FFT))
        with pytest.raises(ValueError):
            WINDOW[0] = 1.0
