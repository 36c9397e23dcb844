"""Audio core: WAV scaling, synthesis frequency accuracy, log-mel geometry."""

import struct
import tracemalloc
import wave

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dsrkit.audio import (
    LOG_MEL_FLOOR,
    AudioBuffer,
    VoiceSpec,
    _mel_analysis,
    log_mel,
    mel_filterbank,
    read_wav,
    synth_voice,
    write_wav,
)
from dsrkit.errors import (
    DsrkitError,
    EmptyInputError,
    FormatError,
    ParameterError,
    UnsupportedFormatError,
)


def fft_peak_hz(x, sample_rate):
    """Independent frequency estimate: argmax bin of the plain rfft."""
    spec = np.abs(np.fft.rfft(x))
    return np.argmax(spec) * sample_rate / len(x)


class TestWavScaling:
    def test_read_scale_is_1_over_32768(self, tmp_path):
        path = tmp_path / "scale.wav"
        pcm = np.array([0, 16384, -32768, 32767], dtype="<i2")
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(pcm.tobytes())
        buf = read_wav(path)
        npt.assert_allclose(buf.samples, [0.0, 0.5, -1.0, 32767 / 32768], rtol=0, atol=0)
        assert buf.sample_rate == 16000

    def test_write_clips_and_rounds(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(AudioBuffer(np.array([0.0, 1.0, -1.0, 2.0, -3.0])), path)
        with wave.open(str(path), "rb") as wf:
            pcm = np.frombuffer(wf.readframes(wf.getnframes()), dtype="<i2")
        npt.assert_array_equal(pcm, [0, 32767, -32767, 32767, -32767])

    def test_round_trip_error_within_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(7)
        buf = AudioBuffer(rng.uniform(-0.99, 0.99, 4000))
        path = tmp_path / "rt.wav"
        write_wav(buf, path)
        back = read_wav(path)
        assert len(back) == len(buf)
        # write scales by 32767, read by 1/32768: up to |x|/32768 of scale
        # mismatch plus half an LSB of rounding
        assert np.max(np.abs(back.samples - buf.samples)) <= 1.5 / 32768


class TestWavErrors:
    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(b"\x00" * 64)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(b"\x80" * 64)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_garbage_bytes_rejected(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"definitely not a wav file" * 3)
        with pytest.raises(FormatError):
            read_wav(path)

    @pytest.mark.parametrize("cut", [1, 2, 101], ids=["odd_byte", "one_sample", "odd_tail"])
    def test_data_shorter_than_declared_rejected(self, tmp_path, cut):
        path = tmp_path / "short.wav"
        write_wav(AudioBuffer(np.full(400, 0.25)), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError, match="header declares 800"):
            read_wav(path)

    def test_forged_data_size_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "forged.wav"
        write_wav(AudioBuffer(np.zeros(100)), path)
        blob = bytearray(path.read_bytes())
        assert len(blob) == 244
        claim = 400_000_000
        blob[4:8] = struct.pack("<I", claim + 36)  # RIFF size
        blob[40:44] = struct.pack("<I", claim)  # data chunk size
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"header declares {claim}"):
                read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_chunk_size_past_riff_end_rejected(self, tmp_path):
        path = tmp_path / "fmt.wav"
        write_wav(AudioBuffer(np.zeros(400)), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<I", 1000)  # 'fmt ' chunk size
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="past"):
            read_wav(path)

    def test_zero_sample_rate_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "rate0.wav"
        write_wav(AudioBuffer(np.zeros(100)), path)
        blob = bytearray(path.read_bytes())
        blob[24:28] = struct.pack("<I", 0)  # 'fmt ' sample rate
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as info:
            read_wav(path)
        assert str(info.value) == f"{path}: header declares sample rate 0"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_truncation_or_byte_flip_loads_or_is_a_dsrkit_error(
            self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("wav") / "m.wav"
        write_wav(AudioBuffer(0.5 * np.sin(np.arange(160) / 3.0)), path)
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
        else:
            blob[data.draw(st.integers(0, len(blob) - 1), label="where")] ^= \
                data.draw(st.integers(1, 255), label="flip")
        path.write_bytes(bytes(blob))
        try:
            read_wav(path)
        except DsrkitError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(pcm=st.lists(st.integers(-32767, 32767), max_size=64),
           rate=st.integers(1, 192000))
    def test_write_read_round_trips_int16_samples(self, tmp_path_factory, pcm, rate):
        path = tmp_path_factory.mktemp("rt") / "rt.wav"
        pcm = np.array(pcm, dtype=np.int64)
        write_wav(AudioBuffer(pcm / 32767.0, rate), path)
        back = read_wav(path)
        assert back.sample_rate == rate
        npt.assert_array_equal(back.samples * 32768.0, pcm)


class TestSynthVoice:
    def test_pitch_hits_target_within_2hz(self):
        spec = VoiceSpec(f0=220.0, n_harmonics=8, harmonic_rolloff=12.0,
                         duration_s=2.0, vibrato_cents=0.0, seed=3)
        buf = synth_voice(spec)
        # 2 s at 16 kHz gives 0.5 Hz bins, so the argmax oracle resolves 2 Hz.
        assert abs(fft_peak_hz(buf.samples, buf.sample_rate) - 220.0) <= 2.0

    def test_f0_sweep_peak_lands_on_fundamental_bin(self):
        for f0 in range(80, 401, 20):
            spec = VoiceSpec(f0=float(f0), n_harmonics=5, harmonic_rolloff=12.0,
                             duration_s=1.0, vibrato_cents=0.0, seed=f0)
            buf = synth_voice(spec)
            bin_hz = buf.sample_rate / len(buf)
            assert abs(fft_peak_hz(buf.samples, buf.sample_rate) - f0) <= bin_hz + 1e-9

    def test_peak_normalized(self):
        spec = VoiceSpec(f0=150.0, n_harmonics=10, harmonic_rolloff=6.0, duration_s=0.5)
        buf = synth_voice(spec)
        npt.assert_allclose(np.max(np.abs(buf.samples)), 0.9, rtol=1e-12)

    def test_deterministic(self):
        spec = VoiceSpec(f0=200.0, n_harmonics=6, harmonic_rolloff=9.0,
                         duration_s=1.0, vibrato_cents=20.0, seed=11)
        a = synth_voice(spec)
        b = synth_voice(spec)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_seed_changes_waveform(self):
        base = dict(f0=200.0, n_harmonics=6, harmonic_rolloff=9.0, duration_s=1.0)
        a = synth_voice(VoiceSpec(seed=0, **base))
        b = synth_voice(VoiceSpec(seed=1, **base))
        assert not np.array_equal(a.samples, b.samples)

    def test_aliasing_harmonics_rejected(self):
        with pytest.raises(ParameterError):
            synth_voice(VoiceSpec(f0=1000.0, n_harmonics=8, harmonic_rolloff=12.0,
                                  duration_s=0.5))

    def test_spec_with_no_samples_rejected(self):
        # 0.16 samples at 16 kHz rounds to none.
        with pytest.raises(ParameterError, match="under one sample"):
            synth_voice(VoiceSpec(f0=200.0, n_harmonics=4, harmonic_rolloff=12.0,
                                  duration_s=0.00001))

    def test_vibrato_stays_within_cents_band(self):
        cents = 50.0
        spec = VoiceSpec(f0=220.0, n_harmonics=1, harmonic_rolloff=0.0,
                         duration_s=2.0, vibrato_cents=cents, seed=5)
        buf = synth_voice(spec)
        # Zero-crossing based f0 track over the middle of the signal.
        x = buf.samples
        crossings = np.flatnonzero((x[:-1] < 0) & (x[1:] >= 0))
        periods = np.diff(crossings) / buf.sample_rate
        f0s = 1.0 / periods
        band = 220.0 * 2.0 ** (np.array([-cents, cents]) / 1200.0)
        tol = 3.0  # zero-crossing estimator quantizes to one sample
        assert np.all(f0s > band[0] - tol) and np.all(f0s < band[1] + tol)


class TestLogMel:
    def test_one_second_default_grid_gives_98_frames(self):
        buf = AudioBuffer(np.zeros(16000))
        mel = log_mel(buf, n_mels=20, win_s=0.025, hop_s=0.010)
        assert mel.frames.shape == (98, 20)

    def test_frame_count_formula_random_lengths(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(400, 48000))
            buf = AudioBuffer(np.zeros(n))
            mel = log_mel(buf, n_mels=8, win_s=0.025, hop_s=0.010)
            assert mel.frames.shape[0] == (n - 400) // 160 + 1

    def test_silence_hits_exact_floor(self):
        mel = log_mel(AudioBuffer(np.zeros(16000)), n_mels=20, win_s=0.025, hop_s=0.010)
        npt.assert_array_equal(mel.frames, np.full_like(mel.frames, -10.0))

    def test_tone_peaks_in_nearest_mel_band(self):
        tone_hz = 1000.0
        sr = 16000
        t = np.arange(sr) / sr
        buf = AudioBuffer(0.5 * np.sin(2 * np.pi * tone_hz * t))
        n_mels = 20
        mel = log_mel(buf, n_mels=n_mels, win_s=0.025, hop_s=0.010)
        hot = int(np.argmax(mel.frames[mel.frames.shape[0] // 2]))
        # Independent center-frequency ladder from the HTK-style mel formula.
        def to_mel(f):
            return 2595.0 * np.log10(1.0 + f / 700.0)

        def from_mel(m):
            return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

        centers = from_mel(np.linspace(to_mel(0.0), to_mel(sr / 2), n_mels + 2))[1:-1]
        assert hot == int(np.argmin(np.abs(centers - tone_hz)))

    def test_center_freqs_match_inline_formula(self):
        def to_mel(f):
            return 2595.0 * np.log10(1.0 + f / 700.0)

        def from_mel(m):
            return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

        # Band m rises from edge m to its centre, edge m + 1, and falls to
        # edge m + 2; the filterbank is sampled on the rfft bin grid.
        edges = from_mel(np.linspace(to_mel(0.0), to_mel(8000.0), 22))
        freqs = np.fft.rfftfreq(400, d=1.0 / 16000)
        lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
        expected = np.maximum(0.0, np.minimum((freqs - lo) / (center - lo),
                                              (hi - freqs) / (hi - center)))
        npt.assert_allclose(mel_filterbank(20, 16000, 400), expected, rtol=1e-12, atol=1e-12)

    def test_floor_is_lower_bound_everywhere(self):
        rng = np.random.default_rng(9)
        buf = AudioBuffer(rng.uniform(-1, 1, 8000))
        mel = log_mel(buf, n_mels=12, win_s=0.025, hop_s=0.010)
        assert np.all(mel.frames >= -10.0)

    def test_short_buffer_rejected(self):
        with pytest.raises(EmptyInputError):
            log_mel(AudioBuffer(np.zeros(100)), n_mels=8, win_s=0.025, hop_s=0.010)

    def test_deterministic(self):
        spec = VoiceSpec(f0=180.0, n_harmonics=8, harmonic_rolloff=12.0, duration_s=1.0,
                         vibrato_cents=15.0, seed=2)
        a = log_mel(synth_voice(spec), n_mels=20, win_s=0.025, hop_s=0.010)
        b = log_mel(synth_voice(spec), n_mels=20, win_s=0.025, hop_s=0.010)
        assert a.frames.tobytes() == b.frames.tobytes()


def reference_log_mel(buffer, n_mels, win_s, hop_s):
    """Index-gather framing with the window and filterbank rebuilt per call,
    as log_mel ran before its strided view and per-geometry cache."""
    win_len = int(round(win_s * buffer.sample_rate))
    hop_len = int(round(hop_s * buffer.sample_rate))
    x = buffer.samples
    n_frames = (len(x) - win_len) // hop_len + 1
    idx = np.arange(win_len)[None, :] + hop_len * np.arange(n_frames)[:, None]
    spectra = np.abs(np.fft.rfft(x[idx] * np.hanning(win_len), axis=1))
    energies = spectra @ mel_filterbank(n_mels, buffer.sample_rate, win_len).T
    return np.log(np.maximum(energies, np.exp(LOG_MEL_FLOOR)))


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestLogMelOracle:
    """Strided framing and the cached window and filterbank against the
    per-call reference, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(sample_rate=st.sampled_from([8000, 16000, 22050]), n_mels=st.integers(1, 40),
           seconds=st.floats(0.03, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_equals_index_gather(self, sample_rate, n_mels, seconds, seed):
        rng = np.random.default_rng(seed)
        buf = AudioBuffer(rng.uniform(-1, 1, int(seconds * sample_rate)), sample_rate)
        assert_same_bits(log_mel(buf, n_mels, 0.025, 0.010).frames,
                         reference_log_mel(buf, n_mels, 0.025, 0.010))

    def test_alternating_geometries_use_their_own_cache_entry(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            for n_mels, sample_rate in ((20, 16000), (40, 8000)):
                buf = AudioBuffer(rng.uniform(-1, 1, sample_rate), sample_rate)
                assert_same_bits(log_mel(buf, n_mels, 0.025, 0.010).frames,
                                 reference_log_mel(buf, n_mels, 0.025, 0.010))
        for n_mels, sample_rate, win_len in ((20, 16000, 400), (40, 8000, 200)):
            window, fb = _mel_analysis(n_mels, sample_rate, win_len)
            assert fb.shape == (n_mels, win_len // 2 + 1)
            for cached in (window, fb):
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0] = 0.0


class TestBufferValidation:
    def test_2d_samples_rejected(self):
        with pytest.raises(ParameterError):
            AudioBuffer(np.zeros((2, 100)))

    def test_nan_rejected(self):
        with pytest.raises(ParameterError):
            AudioBuffer(np.array([0.0, np.nan]))

    def test_duration(self):
        assert AudioBuffer(np.zeros(8000), 16000).duration_s == pytest.approx(0.5)
