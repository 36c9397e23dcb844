"""End-to-end orchestration: corpus synthesis, manifests, INI configs,
GE2E pretraining, triplet fine-tuning, evaluation, and the composed
gender-consistency experiment.

Every entry point is deterministic in (inputs, seed): fixed reduction
order, seeded generators keyed by (seed, iteration), no wall-clock values
in any artifact. Each run writes a run-record JSON capturing the full
config so reruns can be checked byte for byte.
"""

import json
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .audio import (
    VoiceSpec,
    log_mel,
    mel_window_length,
    read_wav,
    synth_voice,
    voice_samples,
    write_wav,
)
from .augment import check_input, pitch_shift, tempo_change
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
    EmptyInputError,
    FormatError,
    InsufficientBatchError,
    ManifestError,
    NumericError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from .losses import Ge2eScale, ge2e_loss, triplet_loss
from .metrics import (
    ReportRow,
    corpus_wer,
    cosine,
    eer,
    gender_probe,
    write_csv_report,
    write_text_report,
)
from .parallel import pmap
from .sampling import (
    GENDERS,
    SEVERITIES,
    Utterance,
    cache_features,
    coeffs_for,
    derive,
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


def _ini(section: str, default, low):
    """A RunConfig field read from INI ``[section]``, under the field name
    without its ``section_`` prefix; low is its bound: "positive",
    "nonnegative" or None."""
    return field(default=default, metadata={"section": section, "low": low})


@dataclass(frozen=True)
class RunConfig:
    sample_rate: int = _ini("audio", 16000, "positive")
    n_mels: int = _ini("audio", 20, "positive")
    win_s: float = _ini("audio", 0.025, "positive")
    hop_s: float = _ini("audio", 0.010, "positive")
    n_layers: int = _ini("encoder", 2, "positive")
    hidden_dim: int = _ini("encoder", 32, "positive")
    embed_dim: int = _ini("encoder", 16, "positive")
    ge2e_n_speakers: int = _ini("ge2e", 4, "positive")
    ge2e_m_utterances: int = _ini("ge2e", 4, "positive")
    ge2e_iterations: int = _ini("ge2e", 300, "nonnegative")
    ge2e_lr: float = _ini("ge2e", 0.05, "positive")
    ge2e_clip: float = _ini("ge2e", 3.0, "positive")
    ge2e_scale_lr: float = _ini("ge2e", 0.01, "positive")
    alpha: float = _ini("triplet", 0.3, "nonnegative")
    batch_size: int = _ini("triplet", 64, "positive")
    triplet_iterations: int = _ini("triplet", 300, "nonnegative")
    triplet_lr: float = _ini("triplet", 0.02, "positive")
    triplet_clip: float = _ini("triplet", 3.0, "positive")
    # The one key that is not the field name without its section prefix.
    corpus_speakers: int = field(default=8,
                                 metadata={"section": "corpus", "key": "n_speakers",
                                           "low": "positive"})
    utterances_per_speaker: int = _ini("corpus", 10, "positive")
    duration_s: float = _ini("corpus", 1.0, "positive")
    severity: str = _ini("corpus", "moderate_severe", None)
    female_f0_min: float = _ini("corpus", FEMALE_F0_RANGE[0], None)
    female_f0_max: float = _ini("corpus", FEMALE_F0_RANGE[1], None)
    male_f0_min: float = _ini("corpus", MALE_F0_RANGE[0], None)
    male_f0_max: float = _ini("corpus", MALE_F0_RANGE[1], None)
    seed: int = _ini("run", 0, None)
    holdout_per_speaker: int = _ini("run", 2, "nonnegative")

    def __post_init__(self):
        for f in fields(self):
            value, low = getattr(self, f.name), f.metadata["low"]
            if f.type is float and not math.isfinite(value):
                raise ValidationError(f"config field {f.name} must be finite")
            if low == "positive" and value <= 0 or low == "nonnegative" and value < 0:
                raise ValidationError(f"config field {f.name} must be {low}")
        for name in ("win_s", "hop_s", "duration_s"):  # rounded to samples
            if int(round(getattr(self, name) * self.sample_rate)) < 1:
                raise ValidationError(
                    f"config field {name} = {getattr(self, name)!r} s is under one "
                    f"sample at sample_rate {self.sample_rate} Hz")
        # numpy seeds must be >= 0; the checkpoint header stores an int32.
        if not 0 <= self.seed <= 2**31 - 1:
            raise ValidationError(f"seed {self.seed} outside [0, 2**31 - 1]")
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


def _ini_key(f) -> tuple:
    """(section, key) under which the INI file sets RunConfig field f."""
    section = f.metadata["section"]
    return section, f.metadata.get("key", f.name.removeprefix(section + "_"))


_INI_FIELDS = {_ini_key(f): f for f in fields(RunConfig)}


def load_config(path=None, seed=None) -> RunConfig:
    """Build a RunConfig from a UTF-8 INI file; unknown keys are errors.

    Values are taken literally (``%`` is not interpolated), and [DEFAULT]
    entries are rejected rather than merged into every section. A seed
    given here (e.g. from the command line) overrides the file.
    """
    values = {}
    if path is not None:
        parser = ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except ConfigParserError as exc:
            # ConfigParser's message spans lines; the error is one line.
            message = " ".join(line.strip() for line in str(exc).splitlines())
            raise ValidationError(f"{path}: cannot parse config ({message})") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: config is not UTF-8 ({exc})") from exc
        if parser.defaults():
            raise ValidationError(
                f"{path}: [DEFAULT] entries are not supported: "
                f"{', '.join(parser.defaults())}"
            )
        for section in parser.sections():
            for key, raw in parser.items(section):
                f = _INI_FIELDS.get((section, key))
                if f is None:
                    raise ValidationError(f"{path}: unknown config key [{section}] {key}")
                try:
                    values[f.name] = f.type(raw)
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}: bad value for [{section}] {key}: {raw!r}"
                    ) from exc
    if seed is not None:
        values["seed"] = int(seed)
    return RunConfig(**values)


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


def _parse_line(line: str, base: Path, speakers: dict, where: str,
                name: str) -> ManifestRecord:
    """One manifest line as a record, by every rule a line must keep: five
    tab-separated fields, a speaker, a known gender and severity, one gender
    and one severity per speaker, and a WAV that exists, resolved against
    base. speakers maps speaker_id to (name, gender, severity) of its first
    line; where and name locate this line in the error and in later ones."""
    parts = line.split("\t")
    if len(parts) != 5:
        raise ManifestError(f"{where}: expected 5 fields, got {len(parts)}")
    wav, speaker_id, gender, severity, transcript = parts
    if not speaker_id:
        raise ManifestError(f"{where}: empty speaker_id")
    if gender not in GENDERS:
        raise ManifestError(f"{where}: unknown gender {gender!r}")
    if severity != "none" and severity not in SEVERITIES:
        raise ManifestError(f"{where}: unknown severity {severity!r}")
    first, *seen = speakers.setdefault(speaker_id, (name, gender, severity))
    if seen != [gender, severity]:
        raise ManifestError(
            f"{where}: speaker {speaker_id} has conflicting metadata: "
            f"{gender}/{severity} here, {seen[0]}/{seen[1]} at {first}"
        )
    wav_path = Path(wav)
    if not wav_path.is_absolute():
        wav_path = base / wav_path
    if not wav_path.is_file():
        raise ManifestError(f"{where}: missing wav file {wav_path}")
    return ManifestRecord(str(wav_path), speaker_id, gender,
                          None if severity == "none" else severity, transcript)


def load_manifest(path) -> list:
    """Parse a tab-separated 5-field manifest; any bad line is an error,
    including one that gives its speaker another gender or severity."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read manifest ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: manifest is not UTF-8 ({exc})") from exc
    speakers = {}
    # A blank line has no tab; a line of tabs alone is five empty fields.
    records = [_parse_line(line, path.parent, speakers, f"{path}:{lineno}", f"line {lineno}")
               for lineno, line in enumerate(text.splitlines(), start=1)
               if "\t" in line or line.strip()]
    if not records:
        raise ManifestError(f"{path}: manifest has no records")
    return records


def write_manifest(records, path) -> Path:
    """Write records with wav paths relative to the manifest directory; a
    record's relative wav_path names a file in the working directory, as
    read_wav reads it. Every line is first checked by load_manifest's own
    rules, so a list that load_manifest would reject (or an empty one)
    writes nothing. A record spells no severity None, never "none"."""
    path = Path(path)
    lines = []
    speakers = {}
    for index, r in enumerate(records):
        name = f"record {index} ({r.wav_path})"
        if r.severity == "none":
            raise ManifestError(f"{name}: severity 'none' would load as None; pass None")
        wav = Path(r.wav_path).absolute()
        try:
            wav = wav.relative_to(path.parent.absolute())
        except ValueError:
            pass  # outside the manifest tree; kept absolute
        severity = r.severity if r.severity is not None else "none"
        line = "\t".join((wav.as_posix(), r.speaker_id, r.gender, severity, r.transcript))
        # load_manifest splits lines with this same rule.
        if line.splitlines() != [line]:
            raise ManifestError(f"{name}: line break in {line!r}")
        _parse_line(line, path.parent, speakers, name, name)
        lines.append(line)
    if not lines:
        raise ManifestError(f"{path}: manifest has no records")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_utterances(records, config: RunConfig, augmented: bool) -> list:
    """Check each record's WAV and return its utterance, which holds no
    audio. The records are checked in order, and the first bad one is
    named: its rate must be config.sample_rate, which the mel window, hop
    and filterbank are defined against, and it must hold at least one mel
    window. If every clip is to be augmented, its speaker must also have a
    severity, which sets the augmentation strengths, and the clip must hold
    augment.MIN_SAMPLES."""
    for r in records:
        if augmented and r.severity is None:
            raise ValidationError(f"{r.wav_path}: speaker {r.speaker_id} has no severity; "
                                  f"its clips cannot be augmented")
        buf = read_wav(r.wav_path)
        if buf.sample_rate != config.sample_rate:
            raise ValidationError(
                f"{r.wav_path}: sample rate {buf.sample_rate} Hz differs from "
                f"config sample_rate {config.sample_rate} Hz"
            )
        try:
            mel_window_length(buf, config.win_s)
            if augmented:
                check_input(buf)
        except EmptyInputError as exc:
            raise EmptyInputError(f"{r.wav_path}: {exc}") from exc
    return [Utterance(r.speaker_id, r.gender, r.severity, r.wav_path) for r in records]


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
    n_female = (config.corpus_speakers + 1) // 2
    speakers = []  # (speaker_id, gender, base f0), females first
    for gender, count, lo, hi in (
        ("female", n_female, config.female_f0_min, config.female_f0_max),
        ("male", config.corpus_speakers - n_female, config.male_f0_min, config.male_f0_max),
    ):
        bases = np.linspace(lo, hi, count + 2)[1:-1]
        for i in range(count):
            speakers.append((f"{gender[0]}{i + 1:02d}", gender, bases[i]))
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 11]))
    jobs, records = [], []  # (VoiceSpec, wav path) and ManifestRecord per utterance
    for speaker_id, gender, base_f0 in speakers:
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
            voice_samples(spec, config.sample_rate)  # every voice renders, or no file is made
            wav_path = wav_dir / f"{speaker_id}-{utt_idx:02d}.wav"
            words = rng.choice(VOCAB, size=int(rng.integers(3, 6)), replace=True)
            jobs.append((spec, wav_path))
            records.append(ManifestRecord(str(wav_path), speaker_id, gender,
                                          config.severity, " ".join(words)))
    # synth_voice seeds its own generator, so rendering after the draws
    # changes no draw; each worker writes its WAV and keeps no buffer.
    wav_dir.mkdir(parents=True, exist_ok=True)
    pmap(lambda job: write_wav(synth_voice(job[0], config.sample_rate), job[1]), jobs)
    return write_manifest(records, out / "manifest.tsv")


def augment_file(in_path, out_path, pitch_coeff: float, tempo_coeff: float) -> Path:
    """Apply pitch shift then tempo change to one wav file."""
    buf = read_wav(in_path)
    try:
        buf = tempo_change(pitch_shift(buf, pitch_coeff), tempo_coeff)
    except EmptyInputError as exc:
        raise EmptyInputError(f"{in_path}: {exc}") from exc
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(buf, out_path)
    return out_path


# ---------------------------------------------------------------------------
# Feature extraction and grouped encoding


def _features(config: RunConfig):
    """The run's one feature function, featurize(source, transforms):
    decode the corpus clip that source names (its WAV path) and return the
    log-mel, at the config's n_mels, window and hop, of transform(clip) for
    each transform (of the clip itself for None). read_wav and log_mel are
    looked up here at call time, also on the pool workers that call it
    (`cache_features`), so no decoded audio outlives the call."""
    def featurize(source, transforms):
        clip = read_wav(source)
        try:
            return [log_mel(clip if t is None else t(clip), config.n_mels, config.win_s,
                            config.hop_s) for t in transforms]
        except EmptyInputError as exc:
            raise EmptyInputError(f"{source}: {exc}") from exc
    return featurize


def mel_for(utt: Utterance, cache: dict):
    """Log-mel features of utt as kept in cache under its utterance_id by
    `cache_features`. One that cache lacks raises FormatError naming it."""
    try:
        return cache[utt.utterance_id]
    except KeyError:
        raise FormatError(f"{utt.utterance_id}: features not cached; "
                          f"cache_features makes them before it is encoded") from None


def _grouped_forward(params, mels, previous=None, keep=True):
    """Encode a mixed-length list by grouping equal frame counts, each
    distinct mel object once (mel_for returns one object per utterance).

    Returns (embeddings row-aligned with mels, groups) where groups maps
    frame count -> (row indices, encoded index of each row, trace) for the
    matching backward pass; with keep=False the traces keep only their
    outputs and no backward pass can follow. previous, the groups of an
    earlier call, is emptied: a trace whose stack shape recurs is
    overwritten in place, and every other is dropped before any new trace
    is allocated, so a caller that passes its last groups holds one call's
    traces at a time.
    """
    by_len = {}
    for row, m in enumerate(mels):
        by_len.setdefault(m.frames.shape[0], []).append(row)
    plan = {}
    for n_frames, rows in by_len.items():
        distinct = {}  # id of each distinct mel -> (its row in the stack, mel)
        index = [distinct.setdefault(id(mels[r]), (len(distinct), mels[r]))[0]
                 for r in rows]
        plan[n_frames] = (rows, index, [m.frames for _, m in distinct.values()])
    shapes = {n: (len(frames),) + frames[0].shape for n, (_, _, frames) in plan.items()}
    reusable = {n: trace for n, (_, _, trace) in (previous or {}).items()
                if trace.stack.shape == shapes.get(n)}
    if previous:
        previous.clear()
    embeddings = np.empty((len(mels), params.config.embed_dim))
    groups = {}
    for n_frames in sorted(plan):
        rows, index, frames = plan[n_frames]
        trace = forward_batch(params, np.stack(frames), out=reusable.pop(n_frames, None),
                              keep=keep)
        embeddings[rows] = trace.embeddings[index]
        groups[n_frames] = (rows, index, trace)
    return embeddings, groups


def _grouped_backward(params, groups, grad_out):
    """Parameter gradients of sum_row grad_out[row] . embedding[row]; a
    repeated mel's rows are summed, in row order, into its encoded row.
    Consumes every trace (backward_batch): pass groups on only as previous."""
    total = zero_grads(params)
    for n_frames in sorted(groups):
        rows, index, trace = groups[n_frames]
        g = np.zeros(trace.embeddings.shape)
        np.add.at(g, index, grad_out[rows])
        add_grads(total, backward_batch(params, trace, g))
    return total


def embed_utterances(params, utterances, config: RunConfig, cache: dict):
    cache_features(utterances, cache, _features(config))
    mels = [mel_for(u, cache) for u in utterances]
    embeddings, _ = _grouped_forward(params, mels, keep=False)
    return embeddings


def _load_matching_checkpoint(path, config: RunConfig):
    """Load a checkpoint whose encoder shape is config's; its seed may differ."""
    params = load_checkpoint(path)
    want = config.encoder_config()
    wrong = [f"{name} {getattr(params.config, name)} (config {getattr(want, name)})"
             for name in ("n_layers", "hidden_dim", "embed_dim", "input_dim")
             if getattr(params.config, name) != getattr(want, name)]
    if wrong:
        raise ShapeError(f"{path}: checkpoint has " + ", ".join(wrong))
    return params


# ---------------------------------------------------------------------------
# Training


def _train(params, batches, objective, lr, clip, config: RunConfig,
           out_dir, stage: str, checkpoint: str) -> Path:
    """The SGD loop of both training stages. Each batch is a list of
    utterances, corpus or derived; the mels the stage's cache lacks are
    made in one call to `cache_features` per batch, then looked up
    (`mel_for`). objective(embeddings) returns (loss, grad_embeddings).
    out_dir is created after the last step: a stage that fails leaves none."""
    lines = ["iteration,loss"]
    cache, featurize = {}, _features(config)  # one mel per utterance_id
    groups = None  # the last step's consumed traces, overwritten by the next step's
    for iteration, batch in enumerate(batches):
        cache_features(batch, cache, featurize)
        try:
            embeddings, groups = _grouped_forward(
                params, [mel_for(u, cache) for u in batch], groups)
            loss, grad_out = objective(embeddings)
            params = sgd_step(params, _grouped_backward(params, groups, grad_out), lr, clip)
        except NumericError as exc:
            raise NumericError(f"{stage} diverged at iteration {iteration}: {exc}") from exc
        lines.append(f"{iteration},{repr(float(loss))}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stage}_metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    ckpt = out / checkpoint
    save_checkpoint(params, ckpt)
    write_run_record(out, stage, config)
    return ckpt


def pretrain_ge2e(manifest_path, config: RunConfig, out_dir) -> Path:
    """GE2E pretraining on N speakers x M utterances per iteration."""
    utterances = load_utterances(load_manifest(manifest_path), config, False)
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

    def batches():
        for iteration in range(config.ge2e_iterations):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 23, iteration]))
            batch = []
            for i in rng.permutation(len(speaker_ids))[:n_spk]:
                pool = rich[speaker_ids[i]]
                batch += [pool[int(p)] for p in rng.permutation(len(pool))[:m_utt]]
            yield batch

    scale = Ge2eScale()

    def objective(embeddings):
        nonlocal scale
        loss, demb, dw, db = ge2e_loss(embeddings.reshape(n_spk, m_utt, -1), scale)
        scale = scale.stepped(dw, db, config.ge2e_scale_lr)
        return loss, demb.reshape(embeddings.shape)

    return _train(init_params(config.encoder_config()), batches(), objective,
                  config.ge2e_lr, config.ge2e_clip, config, out_dir,
                  "pretrain", "pretrained.ckpt")


def finetune_triplet(manifest_path, base_checkpoint, config: RunConfig,
                     out_dir) -> Path:
    """Triplet fine-tuning, backpropagating through all three branches."""
    records = load_manifest(manifest_path)
    params = _load_matching_checkpoint(base_checkpoint, config)
    # Any clip can be drawn as an anchor, and every anchor is stretched.
    utterances = load_utterances(records, config, True)
    # islice pulls no batch past the last one.
    triplets = islice(iter_batches(utterances, config.batch_size, config.seed),
                      config.triplet_iterations)
    batches = ([u for t in batch for u in (t.anchor, t.positive, t.negative)]
               for batch in triplets)

    def objective(embeddings):
        rows = embeddings.reshape(-1, 3, embeddings.shape[1])  # (anchor, positive, negative)
        loss, *grads = triplet_loss(rows[:, 0], rows[:, 1], rows[:, 2], config.alpha)
        return loss, np.stack(grads, axis=1).reshape(embeddings.shape)

    return _train(params, batches, objective, config.triplet_lr, config.triplet_clip,
                  config, out_dir, "finetune", "finetuned.ckpt")


# ---------------------------------------------------------------------------
# Evaluation


def verification_trials(utterances, embeddings):
    """All-pairs trials (i, j), i < j in row-major order: (scores, genuine)
    with cosine scores clipped to [-1, 1] and genuine = same speaker."""
    i, j = np.triu_indices(len(utterances), k=1)
    speakers = np.array([u.speaker_id for u in utterances])
    scores = np.clip(cosine(embeddings[i], embeddings[j]), -1.0, 1.0)
    return scores, speakers[i] == speakers[j]


def gender_centroids(utterances, embeddings):
    """Unit-norm mean embedding per gender; embeddings are the rows of the
    unmodified utterances."""
    out = {}
    for gender in GENDERS:
        rows = [i for i, u in enumerate(utterances) if u.gender == gender]
        if not rows:
            raise InsufficientBatchError(f"no {gender} utterances for centroid")
        mean = embeddings[rows].mean(axis=0)
        out[gender] = mean / np.linalg.norm(mean)
    return out


def shifted_females(utterances, config: RunConfig, cache: dict) -> list:
    """Each female utterance pitch-shifted by its severity coefficient (the
    config's severity where the utterance has none), in input order, as a
    derived utterance. The log-mels of each female and of her shift go into
    cache from one decode (`cache_features`)."""
    wanted, shifted = [], []
    for u in utterances:
        if u.gender == "female":
            coeff = coeffs_for(u.severity if u.severity is not None
                               else config.severity).pitch_coeff
            shifted.append(derive(u, f"pitch{coeff}",
                                  lambda clip, coeff=coeff: pitch_shift(clip, coeff)))
            wanted += [u, shifted[-1]]
    cache_features(wanted, cache, _features(config))
    return shifted


def probe_shifted_females(params, shifted, config: RunConfig, centroids,
                          cache: dict):
    """Gender-probe labels of the utterances of `shifted_females`, all
    embedded and probed in one pass."""
    embeddings = embed_utterances(params, shifted, config, cache)
    return gender_probe(embeddings, centroids["female"], centroids["male"])[0]


def assess(params, enrol_utts, test_utts, shifted, config: RunConfig, cache: dict) -> dict:
    """Score one checkpoint: the EER over all trials of test_utts, and the
    gender-probe labels of test_utts and of shifted against the enrolment
    centroids. Each set is embedded in one pass, a test set that is the
    enrolment set once."""
    enrol_emb = embed_utterances(params, enrol_utts, config, cache)
    test_emb = (enrol_emb if test_utts is enrol_utts
                else embed_utterances(params, test_utts, config, cache))
    centroids = gender_centroids(enrol_utts, enrol_emb)
    labels = gender_probe(test_emb, centroids["female"], centroids["male"])[0]
    return {"eer": eer(*verification_trials(test_utts, test_emb)), "test_labels": labels,
            "shifted_labels": probe_shifted_females(params, shifted, config, centroids,
                                                    cache)}


def evaluate(manifest_path, checkpoint, config: RunConfig, out_dir,
             hypotheses_path=None) -> Path:
    """Verification EER, gender-probe accuracy, and optional corpus WER."""
    records = load_manifest(manifest_path)
    # WER needs only the transcripts, so a bad hypothesis file fails
    # before any audio is decoded; its row still comes last.
    if hypotheses_path is not None:
        try:
            hyp_lines = Path(hypotheses_path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{hypotheses_path}: hypotheses are not UTF-8 ({exc})") from exc
        wer_value = corpus_wer([r.transcript for r in records], hyp_lines)
    params = _load_matching_checkpoint(checkpoint, config)
    utterances = load_utterances(records, config, False)
    cache = {}
    scores = assess(params, utterances, utterances,
                    shifted_females(utterances, config, cache), config, cache)
    rows = [
        ReportRow("eer", "all", scores["eer"]),
        ReportRow("gender_probe_accuracy", "unmodified",
                  float(np.mean(scores["test_labels"] == [u.gender for u in utterances]))),
        ReportRow("gender_probe_accuracy", "female_pitch_shifted",
                  float(np.mean(scores["shifted_labels"] == "female"))),
    ]
    if hypotheses_path is not None:
        rows.append(ReportRow("wer", "corpus", wer_value))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    """Synthesize, pretrain, fine-tune, then `assess` both checkpoints,
    enrolling the training utterances and testing the holdout.

    Both assessments run after training, on one set of shifted holdout
    females and one mel cache; no stage keeps decoded audio. Returns the
    measured rates; also writes all artifacts under out_dir (corpus/,
    pretrain/, finetune/, experiment_report.{txt,csv}).
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

    train_utts = load_utterances(train, config, False)
    holdout_utts = load_utterances(holdout, config, False)
    cache = {}
    shifted = shifted_females(holdout_utts, config, cache)
    pre, post = (assess(load_checkpoint(ckpt), train_utts, holdout_utts, shifted, config,
                        cache) for ckpt in (pre_ckpt, post_ckpt))

    # (result key, report metric, report cohort, value)
    table = [
        ("eer_holdout_pretrained", "eer_holdout", "pretrained", pre["eer"]),
        ("probe_male_rate_pretrained", "probe_male_rate", "female_shifted_pretrained",
         float(np.mean(pre["shifted_labels"] == "male"))),
        ("eer_holdout_finetuned", "eer_holdout", "finetuned", post["eer"]),
        ("probe_female_rate_finetuned", "probe_female_rate", "female_shifted_finetuned",
         float(np.mean(post["shifted_labels"] == "female"))),
        ("eer_degradation", "eer_degradation", "holdout", post["eer"] - pre["eer"]),
    ]
    rows = [ReportRow(metric, cohort, value) for _, metric, cohort, value in table]
    write_text_report(rows, out / "experiment_report.txt")
    write_csv_report(rows, out / "experiment_report.csv")
    return {key: value for key, _, _, value in table}
