"""Pitch shifting and time stretching for contrastive sample fabrication.

Both transforms ride on a phase vocoder (1024-point FFT, 256-sample hop,
Hann window; Laroche and Dolson 1999, IEEE TSAP 7(3)). Tempo change
stretches time while holding pitch; pitch shift composes a stretch with
linear-interpolation resampling so duration is preserved while all
frequencies scale by r = 1 - coeff/2.

Each stage is one pass over whole arrays. Frames are strided views of
the signal. The vocoder takes magnitudes, angles and the wrapped phase
advance once per input frame, gathers them for every output step at
once, and accumulates the synthesis phase with ``np.cumsum`` along time,
the same left-to-right sum as a running ``phase +=``. The inverse STFT
overlap-adds with four strided block adds, one per quarter of the frame,
in an order that gives every sample its frames in ascending order. The
outputs are therefore bit for bit those of the per-step and per-frame
loops that ``tests/test_augment.py`` keeps as references.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .errors import EmptyInputError, ParameterError

N_FFT = 1024
HOP = 256

# A phase vocoder needs a few frames to lock onto phase advance.
MIN_SAMPLES = N_FFT + 3 * HOP

WINDOW = np.hanning(N_FFT)
WINDOW.flags.writeable = False


def _stft(x: np.ndarray) -> np.ndarray:
    """Hann-windowed STFT, no padding; shape (n_frames, N_FFT // 2 + 1)."""
    return np.fft.rfft(sliding_window_view(x, N_FFT)[::HOP] * WINDOW, axis=1)


def _istft(frames: np.ndarray, length: int) -> np.ndarray:
    """Windowed overlap-add inverse, normalized by the summed squared window,
    then trimmed or zero-padded to exactly `length` samples."""
    n_frames = frames.shape[0]
    chunks = np.fft.irfft(frames, n=N_FFT, axis=1)
    chunks *= WINDOW
    # Row r of the (n_frames + 3, HOP) output holds quarter q of frame r - q.
    # Adding q = 3, 2, 1, 0 gives each sample its frames in ascending order.
    quarters = chunks.reshape(n_frames, 4, HOP)
    squares = (WINDOW * WINDOW).reshape(4, HOP)
    y = np.zeros((n_frames + 3, HOP))
    wsum = np.zeros((n_frames + 3, HOP))
    for q in (3, 2, 1, 0):
        y[q:q + n_frames] += quarters[:, q]
        wsum[q:q + n_frames] += squares[q]
    y, wsum = y.ravel(), wsum.ravel()
    good = wsum > 1e-8
    y[good] /= wsum[good]
    if len(y) >= length:
        return y[:length]
    return np.pad(y, (0, length - len(y)))


def _phase_vocoder(frames: np.ndarray, rate: float) -> np.ndarray:
    """Resample an STFT along time by `rate` (< 1 lengthens), accumulating
    phase so sinusoidal partials stay coherent across synthesis hops.

    Output step i reads input frames lo = floor(i * rate) and lo + 1: it
    interpolates their magnitudes, takes the phase accumulated so far, and
    advances it by their wrapped phase difference."""
    n_frames, n_bins = frames.shape
    steps = np.arange(0.0, n_frames, rate)
    lo = steps.astype(np.intp)
    frac = (steps - lo)[:, None]
    # Two zero frames past the end: step lo reads lo + 1, and a float
    # arange can end on n_frames itself.
    mags = np.zeros((n_frames + 2, n_bins))
    np.abs(frames, out=mags[:n_frames])
    angles = np.zeros((n_frames + 2, n_bins))
    angles[:n_frames] = np.angle(frames)
    expected = 2.0 * np.pi * HOP * np.arange(n_bins) / N_FFT
    # Wrapped phase advance from each input frame to the next.
    advance = np.diff(angles, axis=0)
    advance -= expected
    advance -= 2.0 * np.pi * np.round(advance / (2.0 * np.pi))
    advance += expected
    mag = mags[lo]
    mag *= 1.0 - frac
    upper = mags[lo + 1]
    upper *= frac
    mag += upper
    # Step 0 takes frame 0's angle; step i adds frame lo[i - 1]'s advance to
    # step i - 1's phase. The buffer of `upper` is reused.
    phase = upper
    phase[0] = angles[0]
    np.take(advance, lo[:-1], axis=0, out=phase[1:])
    np.cumsum(phase, axis=0, out=phase)
    # exp in place matched mag * np.exp(1j * phase) bit for bit and ran
    # faster than writing np.cos/np.sin into the real and imaginary parts.
    out = np.multiply(phase, 1j, dtype=np.complex128)
    np.exp(out, out=out)
    out *= mag
    return out


def _resample(x: np.ndarray, stride: float, n_out: int) -> np.ndarray:
    """Read `x` at fractional positions i * stride with linear interpolation;
    frequencies scale by `stride`."""
    pos = np.arange(n_out) * stride
    return np.interp(pos, np.arange(len(x)), x)


def check_input(buffer: AudioBuffer) -> None:
    """Raise EmptyInputError unless buffer is long enough to augment."""
    if len(buffer) < MIN_SAMPLES:
        raise EmptyInputError(
            f"buffer of {len(buffer)} samples is too short to analyze "
            f"(need at least {MIN_SAMPLES})"
        )


def _finalize(samples: np.ndarray, sample_rate: int) -> AudioBuffer:
    return AudioBuffer(np.clip(samples, -1.0, 1.0), sample_rate)


def tempo_change(buffer: AudioBuffer, tempo_coeff: float) -> AudioBuffer:
    """Stretch duration by 1/tempo_coeff at constant pitch; 1.0 is identity."""
    if not 0.0 < tempo_coeff <= 1.0:
        raise ParameterError(f"tempo_coeff {tempo_coeff} outside (0, 1]")
    if tempo_coeff == 1.0:
        return buffer
    check_input(buffer)
    stretched = _phase_vocoder(_stft(buffer.samples), tempo_coeff)
    target = int(round(len(buffer) / tempo_coeff))
    return _finalize(_istft(stretched, target), buffer.sample_rate)


def pitch_shift(buffer: AudioBuffer, pitch_coeff: float) -> AudioBuffer:
    """Scale all frequencies by r = 1 - pitch_coeff / 2 without changing
    duration; 0 is identity. Implemented as a phase-vocoder stretch by 1/r
    followed by a linear-interpolation resample by r."""
    if not 0.0 <= pitch_coeff <= 1.0:
        raise ParameterError(f"pitch_coeff {pitch_coeff} outside [0, 1]")
    if pitch_coeff == 0.0:
        return buffer
    check_input(buffer)
    ratio = 1.0 - pitch_coeff * 0.5
    stretched = _phase_vocoder(_stft(buffer.samples), 1.0 / ratio)
    mid = _istft(stretched, int(round(len(buffer) * ratio)))
    return _finalize(_resample(mid, ratio, len(buffer)), buffer.sample_rate)
