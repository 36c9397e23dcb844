"""End-to-end orchestration: corpus synthesis, manifests, INI configs,
GE2E pretraining, triplet fine-tuning, evaluation, and the composed
gender-consistency experiment.

Every entry point is deterministic in (inputs, seed): fixed reduction
order, seeded generators keyed by (seed, iteration), no wall-clock values
in any artifact. Each run writes a run-record JSON capturing the full
config so reruns can be checked byte for byte.
"""

import json
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .audio import VoiceSpec, log_mel, read_wav, synth_voice, write_wav
from .augment import pitch_shift, tempo_change
from .encoder import (
    EncoderConfig,
    add_grads,
    backward_batch,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    zero_grads,
)
from .errors import (
    InsufficientBatchError,
    ManifestError,
    ParameterError,
    ShapeError,
    UndefinedMetricError,
    ValidationError,
)
from .losses import Ge2eScale, ge2e_loss, triplet_loss
from .metrics import (
    ReportRow,
    TrialScore,
    cosine,
    eer,
    gender_probe,
    tokenize,
    wer,
    write_csv_report,
    write_text_report,
)
from .sampling import (
    GENDERS,
    SEVERITIES,
    SpeakerProfile,
    Utterance,
    coeffs_for,
    iter_batches,
)

FEMALE_F0_RANGE = (180.0, 260.0)
MALE_F0_RANGE = (90.0, 150.0)

# Transcript vocabulary for the synthetic corpus; content is arbitrary,
# it only has to be deterministic and WER-suitable.
VOCAB = ("the", "north", "wind", "sun", "rain", "bright", "river",
         "stone", "call", "green", "morning", "voice")


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig:
    sample_rate: int = 16000
    n_mels: int = 20
    win_s: float = 0.025
    hop_s: float = 0.010
    n_layers: int = 2
    hidden_dim: int = 32
    embed_dim: int = 16
    ge2e_n_speakers: int = 4
    ge2e_m_utterances: int = 4
    ge2e_iterations: int = 300
    ge2e_lr: float = 0.05
    ge2e_clip: float = 3.0
    ge2e_scale_lr: float = 0.01
    alpha: float = 0.3
    batch_size: int = 64
    triplet_iterations: int = 300
    triplet_lr: float = 0.02
    triplet_clip: float = 3.0
    corpus_speakers: int = 8
    utterances_per_speaker: int = 10
    duration_s: float = 1.0
    severity: str = "moderate_severe"
    female_f0_min: float = 180.0
    female_f0_max: float = 260.0
    male_f0_min: float = 90.0
    male_f0_max: float = 150.0
    seed: int = 0
    holdout_per_speaker: int = 2

    def __post_init__(self):
        positive = ("sample_rate", "n_mels", "win_s", "hop_s", "n_layers",
                    "hidden_dim", "embed_dim", "ge2e_n_speakers",
                    "ge2e_m_utterances", "ge2e_lr", "ge2e_clip", "ge2e_scale_lr",
                    "batch_size", "triplet_lr", "triplet_clip", "corpus_speakers",
                    "utterances_per_speaker", "duration_s")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValidationError(f"config field {name} must be positive")
        for name in ("ge2e_iterations", "triplet_iterations", "holdout_per_speaker"):
            if getattr(self, name) < 0:
                raise ValidationError(f"config field {name} must be nonnegative")
        if self.alpha < 0:
            raise ValidationError("alpha must be nonnegative")
        if self.ge2e_n_speakers < 2 or self.ge2e_m_utterances < 2:
            raise ValidationError("GE2E needs at least 2 speakers and 2 utterances")
        if self.severity not in SEVERITIES:
            raise ValidationError(f"unknown severity {self.severity!r}")
        for lo, hi, window, side in (
            (self.female_f0_min, self.female_f0_max, FEMALE_F0_RANGE, "female"),
            (self.male_f0_min, self.male_f0_max, MALE_F0_RANGE, "male"),
        ):
            if not window[0] <= lo < hi <= window[1]:
                raise ValidationError(
                    f"{side} f0 range [{lo}, {hi}] must sit inside {list(window)}"
                )

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(self.n_layers, self.hidden_dim, self.embed_dim,
                             self.n_mels, self.seed)


# (section, key) -> (RunConfig field, parser)
_CONFIG_KEYS = {
    ("audio", "sample_rate"): ("sample_rate", int),
    ("audio", "n_mels"): ("n_mels", int),
    ("audio", "win_s"): ("win_s", float),
    ("audio", "hop_s"): ("hop_s", float),
    ("encoder", "n_layers"): ("n_layers", int),
    ("encoder", "hidden_dim"): ("hidden_dim", int),
    ("encoder", "embed_dim"): ("embed_dim", int),
    ("ge2e", "n_speakers"): ("ge2e_n_speakers", int),
    ("ge2e", "m_utterances"): ("ge2e_m_utterances", int),
    ("ge2e", "iterations"): ("ge2e_iterations", int),
    ("ge2e", "lr"): ("ge2e_lr", float),
    ("ge2e", "clip"): ("ge2e_clip", float),
    ("ge2e", "scale_lr"): ("ge2e_scale_lr", float),
    ("triplet", "alpha"): ("alpha", float),
    ("triplet", "batch_size"): ("batch_size", int),
    ("triplet", "iterations"): ("triplet_iterations", int),
    ("triplet", "lr"): ("triplet_lr", float),
    ("triplet", "clip"): ("triplet_clip", float),
    ("corpus", "n_speakers"): ("corpus_speakers", int),
    ("corpus", "utterances_per_speaker"): ("utterances_per_speaker", int),
    ("corpus", "duration_s"): ("duration_s", float),
    ("corpus", "severity"): ("severity", str),
    ("corpus", "female_f0_min"): ("female_f0_min", float),
    ("corpus", "female_f0_max"): ("female_f0_max", float),
    ("corpus", "male_f0_min"): ("male_f0_min", float),
    ("corpus", "male_f0_max"): ("male_f0_max", float),
    ("run", "seed"): ("seed", int),
    ("run", "holdout_per_speaker"): ("holdout_per_speaker", int),
}


def load_config(path=None, seed=None) -> RunConfig:
    """Build a RunConfig from a UTF-8 INI file; unknown keys are errors.

    Values are taken literally (``%`` is not interpolated), and [DEFAULT]
    entries are rejected rather than merged into every section. A seed
    given here (e.g. from the command line) overrides the file.
    """
    fields = {}
    if path is not None:
        parser = ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except ConfigParserError as exc:
            raise ValidationError(f"{path}: cannot parse config ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: config is not UTF-8 ({exc})") from exc
        if parser.defaults():
            raise ValidationError(
                f"{path}: [DEFAULT] entries are not supported: "
                f"{', '.join(parser.defaults())}"
            )
        for section in parser.sections():
            for key, raw in parser.items(section):
                spec = _CONFIG_KEYS.get((section, key))
                if spec is None:
                    raise ValidationError(f"{path}: unknown config key [{section}] {key}")
                name, cast = spec
                try:
                    fields[name] = cast(raw)
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}: bad value for [{section}] {key}: {raw!r}"
                    ) from exc
    if seed is not None:
        fields["seed"] = int(seed)
    return RunConfig(**fields)


def write_run_record(out_dir, command: str, config: RunConfig,
                     filename: str = "run_record.json", extra: dict = None) -> Path:
    """Config + seed + version; no timestamps, so equal runs match bytewise."""
    record = {
        "command": command,
        "config": asdict(config),
        "seed": config.seed,
        "version": f"dsrkit-{__version__}",
    }
    if extra:
        record["arguments"] = extra
    path = Path(out_dir) / filename
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Manifest


@dataclass(frozen=True)
class ManifestRecord:
    wav_path: str  # resolved, absolute at load time
    speaker_id: str
    gender: str
    severity: str  # None when the manifest says "none"
    transcript: str


_MANIFEST_FIELDS = ("wav_path", "speaker_id", "gender", "severity", "transcript")


def load_manifest(path) -> list:
    """Parse a tab-separated 5-field manifest; any bad line is an error."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read manifest ({exc})") from exc
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ManifestError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        wav, speaker_id, gender, severity, transcript = parts
        if not speaker_id:
            raise ManifestError(f"{path}:{lineno}: empty speaker_id")
        if gender not in GENDERS:
            raise ManifestError(f"{path}:{lineno}: unknown gender {gender!r}")
        if severity != "none" and severity not in SEVERITIES:
            raise ManifestError(f"{path}:{lineno}: unknown severity {severity!r}")
        wav_path = Path(wav)
        if not wav_path.is_absolute():
            wav_path = path.parent / wav_path
        if not wav_path.is_file():
            raise ManifestError(f"{path}:{lineno}: missing wav file {wav_path}")
        records.append(ManifestRecord(str(wav_path), speaker_id, gender,
                                      None if severity == "none" else severity,
                                      transcript))
    if not records:
        raise ManifestError(f"{path}: manifest has no records")
    return records


def write_manifest(records, path) -> Path:
    """Write records with wav paths relative to the manifest directory."""
    path = Path(path)
    lines = []
    for r in records:
        wav = Path(r.wav_path)
        try:
            wav = wav.relative_to(path.parent)
        except ValueError:
            pass  # outside the manifest tree; keep as given
        severity = r.severity if r.severity is not None else "none"
        fields = (wav.as_posix(), r.speaker_id, r.gender, severity, r.transcript)
        for name, value in zip(_MANIFEST_FIELDS, fields):
            if "\t" in value:
                raise ManifestError(f"tab character in {name} {value!r}")
            # A value without line breaks splits into itself (or nothing, if
            # empty); load_manifest splits lines with this same rule.
            if value.splitlines() not in ([], [value]):
                raise ManifestError(f"line break in {name} {value!r}")
        if not r.speaker_id:
            raise ManifestError("empty speaker_id")
        if r.gender not in GENDERS:
            raise ManifestError(f"unknown gender {r.gender!r}")
        if severity != "none" and severity not in SEVERITIES:
            raise ManifestError(f"unknown severity {severity!r}")
        lines.append("\t".join(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def profiles_from_records(records) -> dict:
    """Speaker map, insisting gender/severity are consistent per speaker."""
    profiles = {}
    for r in records:
        profile = SpeakerProfile(r.speaker_id, r.gender, r.severity)
        seen = profiles.get(r.speaker_id)
        if seen is not None and seen != profile:
            raise ManifestError(
                f"speaker {r.speaker_id} has conflicting metadata: {seen} vs {profile}"
            )
        profiles[r.speaker_id] = profile
    return profiles


def load_utterances(records, config: RunConfig) -> list:
    """Decode each record's WAV; its rate must be config.sample_rate, which
    the mel window, hop and filterbank are defined against."""
    utterances = []
    for r in records:
        buf = read_wav(r.wav_path)
        if buf.sample_rate != config.sample_rate:
            raise ValidationError(
                f"{r.wav_path}: sample rate {buf.sample_rate} Hz differs from "
                f"config sample_rate {config.sample_rate} Hz"
            )
        utterances.append(Utterance(r.speaker_id, buf,
                                    utterance_id=Path(r.wav_path).stem,
                                    transcript=r.transcript))
    return utterances


# ---------------------------------------------------------------------------
# Corpus synthesis


def synth_corpus(config: RunConfig, out_dir) -> Path:
    """Generate K synthetic speakers x U utterances and a manifest.

    The first half of the speakers is female (f0 in the configured female
    window), the rest male. Timbre (harmonic count/rolloff) is randomized
    per speaker independently of gender, so f0 is the only gender cue.
    """
    out = Path(out_dir)
    wav_dir = out / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    n_female = (config.corpus_speakers + 1) // 2
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 11]))
    records = []
    for spk_idx in range(config.corpus_speakers):
        female = spk_idx < n_female
        if female:
            lo, hi = config.female_f0_min, config.female_f0_max
            bases = np.linspace(lo, hi, n_female + 2)[1:-1]
            base_f0 = bases[spk_idx]
            speaker_id = f"f{spk_idx + 1:02d}"
        else:
            n_male = config.corpus_speakers - n_female
            lo, hi = config.male_f0_min, config.male_f0_max
            bases = np.linspace(lo, hi, n_male + 2)[1:-1]
            base_f0 = bases[spk_idx - n_female]
            speaker_id = f"m{spk_idx - n_female + 1:02d}"
        n_harmonics = int(rng.integers(4, 9))
        rolloff = float(rng.uniform(8.0, 14.0))
        for utt_idx in range(config.utterances_per_speaker):
            f0 = float(base_f0 + rng.uniform(-2.0, 2.0))
            spec = VoiceSpec(
                f0=f0,
                n_harmonics=n_harmonics,
                harmonic_rolloff=rolloff,
                duration_s=config.duration_s,
                vibrato_cents=float(rng.uniform(5.0, 20.0)),
                seed=int(rng.integers(2**31)),
            )
            buf = synth_voice(spec, config.sample_rate)
            wav_path = wav_dir / f"{speaker_id}-{utt_idx:02d}.wav"
            write_wav(buf, wav_path)
            words = rng.choice(VOCAB, size=int(rng.integers(3, 6)), replace=True)
            records.append(ManifestRecord(str(wav_path), speaker_id,
                                          "female" if female else "male",
                                          config.severity, " ".join(words)))
    return write_manifest(records, out / "manifest.tsv")


def augment_file(in_path, out_path, pitch_coeff: float, tempo_coeff: float) -> Path:
    """Apply pitch shift then tempo change to one wav file."""
    buf = read_wav(in_path)
    buf = pitch_shift(buf, pitch_coeff)
    buf = tempo_change(buf, tempo_coeff)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(buf, out_path)
    return out_path


# ---------------------------------------------------------------------------
# Feature extraction and grouped encoding


def mel_for(utt: Utterance, config: RunConfig, cache: dict):
    """Log-mel features of utt, kept in cache under its utterance_id; an
    utterance without an id is computed every time."""
    key = ("mel", utt.utterance_id)
    if key in cache:
        return cache[key]
    mel = log_mel(utt.buffer, config.n_mels, config.win_s, config.hop_s)
    if utt.utterance_id:
        cache[key] = mel
    return mel


def _grouped_forward(params, mels):
    """Encode a mixed-length list by grouping equal frame counts.

    Returns (embeddings row-aligned with mels, groups) where groups maps
    frame count -> (row indices, trace) for the matching backward pass.
    """
    by_len = {}
    for row, m in enumerate(mels):
        by_len.setdefault(m.frames.shape[0], []).append(row)
    embeddings = np.empty((len(mels), params.config.embed_dim))
    groups = {}
    for n_frames in sorted(by_len):
        rows = by_len[n_frames]
        stack = np.stack([mels[r].frames for r in rows])
        trace = forward_batch(params, stack)
        embeddings[rows] = trace.embeddings
        groups[n_frames] = (rows, trace)
    return embeddings, groups


def _grouped_backward(params, groups, grad_out):
    total = zero_grads(params)
    for n_frames in sorted(groups):
        rows, trace = groups[n_frames]
        add_grads(total, backward_batch(params, trace, grad_out[rows]))
    return total


def embed_utterances(params, utterances, config: RunConfig, cache: dict):
    mels = [mel_for(u, config, cache) for u in utterances]
    embeddings, _ = _grouped_forward(params, mels)
    return embeddings


# ---------------------------------------------------------------------------
# Training


def _write_metrics_csv(path, rows):
    lines = ["iteration,loss"]
    lines += [f"{i},{repr(float(loss))}" for i, loss in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def pretrain_ge2e(manifest_path, config: RunConfig, out_dir) -> Path:
    """GE2E pretraining on N speakers x M utterances per iteration."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = load_manifest(manifest_path)
    utterances = load_utterances(records, config)
    by_speaker = {}
    for u in utterances:
        by_speaker.setdefault(u.speaker_id, []).append(u)
    n_spk, m_utt = config.ge2e_n_speakers, config.ge2e_m_utterances
    rich = {s: us for s, us in by_speaker.items() if len(us) >= m_utt}
    if len(rich) < n_spk:
        raise InsufficientBatchError(
            f"need {n_spk} speakers with at least {m_utt} utterances; "
            f"manifest has {len(rich)}"
        )
    speaker_ids = sorted(rich)
    params = init_params(config.encoder_config())
    scale = Ge2eScale()
    cache = {}
    history = []
    for iteration in range(config.ge2e_iterations):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 23, iteration]))
        chosen_speakers = [speaker_ids[i]
                           for i in rng.permutation(len(speaker_ids))[:n_spk]]
        batch = []
        for s in chosen_speakers:
            pool = rich[s]
            picks = rng.permutation(len(pool))[:m_utt]
            batch += [pool[int(p)] for p in picks]
        mels = [mel_for(u, config, cache) for u in batch]
        embeddings, groups = _grouped_forward(params, mels)
        grid = embeddings.reshape(n_spk, m_utt, config.embed_dim)
        loss, demb, dw, db = ge2e_loss(grid, scale)
        grads = _grouped_backward(params, groups,
                                  demb.reshape(n_spk * m_utt, config.embed_dim))
        params = sgd_step(params, grads, config.ge2e_lr, config.ge2e_clip)
        scale = scale.stepped(dw, db, config.ge2e_scale_lr)
        history.append((iteration, loss))
    _write_metrics_csv(out / "pretrain_metrics.csv", history)
    ckpt = out / "pretrained.ckpt"
    save_checkpoint(params, ckpt)
    write_run_record(out, "pretrain", config)
    return ckpt


def finetune_triplet(manifest_path, base_checkpoint, config: RunConfig,
                     out_dir) -> Path:
    """Triplet fine-tuning, backpropagating through all three branches."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = load_manifest(manifest_path)
    utterances = load_utterances(records, config)
    profiles = profiles_from_records(records)
    params = load_checkpoint(base_checkpoint)
    if params.config.input_dim != config.n_mels:
        raise ShapeError(
            f"checkpoint expects {params.config.input_dim} mel bands, "
            f"config says {config.n_mels}"
        )
    cache = {}
    batches = iter_batches(utterances, profiles, config.batch_size,
                           config.seed, cache)
    history = []
    for iteration in range(config.triplet_iterations):
        batch = next(batches)
        mels = []
        for trip in batch:
            mels += [mel_for(trip.anchor, config, cache),
                     mel_for(trip.positive, config, cache),
                     mel_for(trip.negative, config, cache)]
        embeddings, groups = _grouped_forward(params, mels)
        grad_out = np.zeros_like(embeddings)
        total = 0.0
        for t_idx in range(len(batch)):
            a_row, p_row, n_row = 3 * t_idx, 3 * t_idx + 1, 3 * t_idx + 2
            loss, ga, gp, gn = triplet_loss(embeddings[a_row], embeddings[p_row],
                                            embeddings[n_row], config.alpha)
            total += loss
            grad_out[a_row] += ga
            grad_out[p_row] += gp
            grad_out[n_row] += gn
        grads = _grouped_backward(params, groups, grad_out)
        params = sgd_step(params, grads, config.triplet_lr, config.triplet_clip)
        history.append((iteration, total))
    _write_metrics_csv(out / "finetune_metrics.csv", history)
    ckpt = out / "finetuned.ckpt"
    save_checkpoint(params, ckpt)
    write_run_record(out, "finetune", config)
    return ckpt


# ---------------------------------------------------------------------------
# Evaluation


def verification_trials(utterances, embeddings) -> list:
    """All-pairs trials: same speaker = genuine, different = impostor."""
    trials = []
    for i in range(len(utterances)):
        for j in range(i + 1, len(utterances)):
            score = cosine(embeddings[i], embeddings[j])
            score = min(1.0, max(-1.0, score))
            label = ("genuine" if utterances[i].speaker_id == utterances[j].speaker_id
                     else "impostor")
            trials.append(TrialScore(score, label))
    return trials


def gender_centroids(records, embeddings):
    """Unit-norm mean embedding per gender; embeddings are the unmodified
    utterances' rows, aligned with records."""
    out = {}
    for gender in GENDERS:
        rows = [i for i, r in enumerate(records) if r.gender == gender]
        if not rows:
            raise InsufficientBatchError(f"no {gender} utterances for centroid")
        mean = embeddings[rows].mean(axis=0)
        out[gender] = mean / np.linalg.norm(mean)
    return out


def shifted_females(records, utterances, config: RunConfig) -> list:
    """Each female utterance pitch-shifted by its severity coefficient (the
    config's severity where the record has none)."""
    shifted = []
    for r, u in zip(records, utterances):
        if r.gender != "female":
            continue
        severity = r.severity if r.severity is not None else config.severity
        coeff = coeffs_for(severity).pitch_coeff
        shifted.append(Utterance(r.speaker_id, pitch_shift(u.buffer, coeff),
                                 utterance_id=f"{u.utterance_id}#pitch{coeff}"))
    return shifted


def probe_shifted_females(params, shifted, config: RunConfig, centroids,
                          cache: dict):
    """Gender-probe label of each utterance of `shifted_females`, all
    embedded in one pass."""
    embeddings = embed_utterances(params, shifted, config, cache)
    return [gender_probe(e, centroids["female"], centroids["male"])[0]
            for e in embeddings]


def corpus_wer(references, hypotheses) -> float:
    """Total edits over total reference words across the corpus."""
    if len(references) != len(hypotheses):
        raise ShapeError(
            f"{len(hypotheses)} hypothesis lines for {len(references)} references"
        )
    total_edits = 0.0
    total_words = 0
    for ref, hyp in zip(references, hypotheses):
        ref_words = tokenize(ref)
        total_edits += wer(ref, hyp) * len(ref_words)
        total_words += len(ref_words)
    if total_words == 0:
        raise UndefinedMetricError("no reference words in corpus")
    return total_edits / total_words


def evaluate(manifest_path, checkpoint, config: RunConfig, out_dir,
             hypotheses_path=None) -> Path:
    """Verification EER, gender-probe accuracy, and optional corpus WER."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = load_manifest(manifest_path)
    params = load_checkpoint(checkpoint)
    cache = {}
    utterances = load_utterances(records, config)
    embeddings = embed_utterances(params, utterances, config, cache)
    rows = [ReportRow("eer", "all", eer(verification_trials(utterances, embeddings)))]
    centroids = gender_centroids(records, embeddings)
    correct = 0
    for i, r in enumerate(records):
        label, _ = gender_probe(embeddings[i], centroids["female"], centroids["male"])
        correct += label == r.gender
    rows.append(ReportRow("gender_probe_accuracy", "unmodified",
                          correct / len(records)))
    labels = probe_shifted_females(params, shifted_females(records, utterances, config),
                                   config, centroids, cache)
    if labels:
        rows.append(ReportRow("gender_probe_accuracy", "female_pitch_shifted",
                              labels.count("female") / len(labels)))
    if hypotheses_path is not None:
        hyp_lines = Path(hypotheses_path).read_text(encoding="utf-8").splitlines()
        refs = [r.transcript for r in records]
        rows.append(ReportRow("wer", "corpus", corpus_wer(refs, hyp_lines)))
    write_text_report(rows, out / "report.txt")
    write_csv_report(rows, out / "report.csv")
    write_run_record(out, "evaluate", config)
    return out / "report.csv"


# ---------------------------------------------------------------------------
# Composed experiment: does fine-tuning fix the gender flip?


def split_holdout(records, per_speaker: int):
    """Deterministic split: the last `per_speaker` utterances of each
    speaker (by manifest order) are held out."""
    by_speaker = {}
    for r in records:
        by_speaker.setdefault(r.speaker_id, []).append(r)
    train, holdout = [], []
    for s in sorted(by_speaker):
        rs = by_speaker[s]
        if per_speaker >= len(rs):
            raise ParameterError(
                f"holdout of {per_speaker} would empty speaker {s} ({len(rs)} utts)"
            )
        train += rs[:len(rs) - per_speaker]
        holdout += rs[len(rs) - per_speaker:]
    return train, holdout


def run_gender_experiment(config: RunConfig, out_dir) -> dict:
    """Synthesize, pretrain, fine-tune, then assess both checkpoints.

    Each assessment gives the holdout verification EER and the gender-probe
    labels of the pitch-shifted holdout females, against centroids of the
    training utterances. Both run after training, on audio decoded once,
    one set of shifted buffers and one mel cache, so no decoded audio is
    held through fine-tuning. Returns the measured rates; also writes all
    artifacts under out_dir (corpus/, pretrain/, finetune/,
    experiment_report.{txt,csv}).
    """
    if config.holdout_per_speaker < 1:
        raise ParameterError("gender experiment needs at least one held-out "
                             "utterance per speaker")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = synth_corpus(config, out / "corpus")
    records = load_manifest(manifest)
    train, holdout = split_holdout(records, config.holdout_per_speaker)
    train_manifest = write_manifest(train, out / "corpus" / "train.tsv")
    write_manifest(holdout, out / "corpus" / "holdout.tsv")

    pre_ckpt = pretrain_ge2e(train_manifest, config, out / "pretrain")
    post_ckpt = finetune_triplet(train_manifest, pre_ckpt, config, out / "finetune")

    train_utts = load_utterances(train, config)
    holdout_utts = load_utterances(holdout, config)
    shifted = shifted_females(holdout, holdout_utts, config)
    cache = {}

    def measure(ckpt):
        params = load_checkpoint(ckpt)
        holdout_emb = embed_utterances(params, holdout_utts, config, cache)
        centroids = gender_centroids(
            train, embed_utterances(params, train_utts, config, cache))
        labels = probe_shifted_females(params, shifted, config, centroids, cache)
        return eer(verification_trials(holdout_utts, holdout_emb)), labels

    eer_pre, probe_pre = measure(pre_ckpt)
    flip_rate = sum(1 for p in probe_pre if p == "male") / len(probe_pre)
    eer_post, probe_post = measure(post_ckpt)
    female_rate = sum(1 for p in probe_post if p == "female") / len(probe_post)

    results = {
        "eer_holdout_pretrained": eer_pre,
        "probe_male_rate_pretrained": flip_rate,
        "eer_holdout_finetuned": eer_post,
        "probe_female_rate_finetuned": female_rate,
        "eer_degradation": eer_post - eer_pre,
    }
    rows = [
        ReportRow("eer_holdout", "pretrained", eer_pre),
        ReportRow("probe_male_rate", "female_shifted_pretrained", flip_rate),
        ReportRow("eer_holdout", "finetuned", eer_post),
        ReportRow("probe_female_rate", "female_shifted_finetuned", female_rate),
        ReportRow("eer_degradation", "holdout", eer_post - eer_pre),
    ]
    write_text_report(rows, out / "experiment_report.txt")
    write_csv_report(rows, out / "experiment_report.csv")
    return results
