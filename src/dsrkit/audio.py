"""Audio buffers, 16-bit mono WAV I/O, harmonic voice synthesis, log-mel features.

All DSP in the toolkit flows through :class:`AudioBuffer`, a plain float64
sample array plus a sample rate. Files are restricted to RIFF/WAVE PCM,
16-bit little-endian, mono, which keeps I/O bit-exact: writing clips to
[-1, 1], scales by 32767 and rounds; reading divides by 32768.
"""

import functools
import os
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyInputError, FormatError, ParameterError, UnsupportedFormatError

DEFAULT_SAMPLE_RATE = 16000

# Floor applied to natural-log mel energies; silence maps exactly here.
LOG_MEL_FLOOR = -10.0


@dataclass
class AudioBuffer:
    """Mono audio: float64 samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ParameterError("AudioBuffer samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ParameterError("AudioBuffer samples must be finite")
        if self.sample_rate <= 0:
            raise ParameterError("sample_rate must be positive")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class VoiceSpec:
    """Parameters of a synthetic harmonic voice.

    f0: fundamental in Hz.
    n_harmonics: number of partials at k * f0.
    harmonic_rolloff: amplitude decay in dB per octave.
    duration_s: length in seconds.
    vibrato_cents: peak f0 deviation in cents (0 disables vibrato).
    seed: drives vibrato rate/phase and per-harmonic phases.
    """

    f0: float
    n_harmonics: int
    harmonic_rolloff: float
    duration_s: float
    vibrato_cents: float = 0.0
    seed: int = 0


@dataclass
class MelFrames:
    """Time-ordered log-mel feature matrix, one row per analysis frame."""

    frames: np.ndarray  # (n_frames, n_mels)


def read_wav(path) -> AudioBuffer:
    """Read a PCM 16-bit mono WAV file; samples are scaled by 1/32768.
    Data the header declares is read only if the file is that large."""
    try:
        with open(path, "rb") as fh, wave.open(fh) as wf:
            n_channels = wf.getnchannels()
            sample_width = wf.getsampwidth()
            sample_rate = wf.getframerate()
            n_frames = wf.getnframes()
            declared = n_frames * n_channels * sample_width
            size = os.fstat(fh.fileno()).st_size
            if declared > size:
                raise FormatError(f"{path}: header declares {declared} data bytes, "
                                  f"the file holds {size}")
            raw = wf.readframes(n_frames)
    except (wave.Error, EOFError) as exc:
        raise FormatError(f"{path}: not a valid RIFF/WAVE file ({exc})") from exc
    except RuntimeError as exc:  # wave's bare error for a seek past a chunk's end
        raise FormatError(f"{path}: a chunk size points past its enclosing chunk") from exc
    if n_channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {n_channels} channels")
    if sample_width != 2:
        raise UnsupportedFormatError(f"{path}: expected 16-bit samples, got {8 * sample_width}-bit")
    if sample_rate < 1:
        raise FormatError(f"{path}: header declares sample rate {sample_rate}")
    if len(raw) != 2 * n_frames:
        raise FormatError(f"{path}: data chunk holds {len(raw)} bytes, "
                          f"header declares {2 * n_frames}")
    pcm = np.frombuffer(raw, dtype="<i2")
    return AudioBuffer(pcm.astype(np.float64) / 32768.0, sample_rate)


def write_wav(buffer: AudioBuffer, path) -> None:
    """Write a PCM 16-bit mono WAV file, clipping samples to [-1, 1] first."""
    clipped = np.clip(buffer.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(buffer.sample_rate)
        wf.writeframes(pcm.tobytes())


def voice_samples(spec: VoiceSpec, sample_rate: int) -> int:
    """The number of samples spec renders to at sample_rate; ParameterError
    for a spec that cannot be rendered there (no sample, or a harmonic at
    or above Nyquist)."""
    if spec.f0 <= 0:
        raise ParameterError("f0 must be positive")
    if spec.n_harmonics < 1:
        raise ParameterError("n_harmonics must be at least 1")
    if spec.f0 * spec.n_harmonics >= sample_rate / 2:
        raise ParameterError(
            f"highest harmonic {spec.f0 * spec.n_harmonics:.1f} Hz would alias "
            f"at sample rate {sample_rate}"
        )
    n = int(round(spec.duration_s * sample_rate))
    if n < 1:
        raise ParameterError(f"duration {spec.duration_s!r} s is under one sample "
                             f"at sample rate {sample_rate}")
    return n


def synth_voice(spec: VoiceSpec, sample_rate: int = DEFAULT_SAMPLE_RATE) -> AudioBuffer:
    """Render a harmonic stack voice, peak-normalized to 0.9.

    Harmonic k sits at k * f0 with amplitude rolled off by
    ``harmonic_rolloff`` dB per octave; a slow seeded vibrato modulates f0
    by up to ``vibrato_cents``. Deterministic in (spec, sample_rate).
    """
    n = voice_samples(spec, sample_rate)
    rng = np.random.default_rng(spec.seed)
    vib_rate = rng.uniform(4.5, 6.5)
    vib_phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n) / sample_rate
    # Instantaneous f0 in Hz; exactly constant when vibrato_cents == 0.
    ratio = 2.0 ** (spec.vibrato_cents / 1200.0)
    inst_f0 = spec.f0 * ratio ** np.sin(2.0 * np.pi * vib_rate * t + vib_phase)
    base_phase = 2.0 * np.pi * np.cumsum(inst_f0) / sample_rate
    x = np.zeros(n)
    for k in range(1, spec.n_harmonics + 1):
        amp = 10.0 ** (-spec.harmonic_rolloff * np.log2(k) / 20.0)
        x += amp * np.sin(k * base_phase + rng.uniform(0.0, 2.0 * np.pi))
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.9 / peak
    return AudioBuffer(x, sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, sample_rate: int, n_fft: int) -> np.ndarray:
    """Triangular mel filterbank from 0 Hz to Nyquist, shape
    (n_mels, n_fft // 2 + 1), peak 1."""
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    fb = np.zeros((n_mels, len(freqs)))
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - freqs) / max(hi - center, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


@functools.cache
def _mel_analysis(n_mels: int, sample_rate: int, win_len: int):
    """Read-only Hann window and mel filterbank of one log_mel geometry,
    built once per process."""
    window = np.hanning(win_len)
    fb = mel_filterbank(n_mels, sample_rate, win_len)
    window.flags.writeable = False
    fb.flags.writeable = False
    return window, fb


def mel_window_length(buffer: AudioBuffer, win_s: float) -> int:
    """Samples in one mel window, round(win_s * sample_rate); raises
    EmptyInputError when buffer holds fewer."""
    win_len = int(round(win_s * buffer.sample_rate))
    if len(buffer) < win_len:
        raise EmptyInputError(
            f"buffer of {len(buffer)} samples is shorter than one "
            f"{win_len}-sample mel window"
        )
    return win_len


def log_mel(buffer: AudioBuffer, n_mels: int, win_s: float, hop_s: float) -> MelFrames:
    """Log-mel features: Hann-windowed magnitude STFT through a mel filterbank.

    Energies are floored at exp(LOG_MEL_FLOOR) before the natural log, so
    every output entry is >= -10 and silence maps to exactly -10.
    Frame count is floor((n_samples - win_len) / hop_len) + 1.
    """
    if n_mels < 1:
        raise ParameterError("n_mels must be at least 1")
    win_len = mel_window_length(buffer, win_s)
    hop_len = int(round(hop_s * buffer.sample_rate))
    if win_len < 1 or hop_len < 1:
        raise ParameterError("window and hop must be at least one sample")
    x = buffer.samples
    window, fb = _mel_analysis(n_mels, buffer.sample_rate, win_len)
    spectra = np.abs(np.fft.rfft(sliding_window_view(x, win_len)[::hop_len] * window, axis=1))
    energies = spectra @ fb.T
    np.maximum(energies, np.exp(LOG_MEL_FLOOR), out=energies)
    return MelFrames(np.log(energies, out=energies))
