"""Pipeline: manifests, configs, corpus synthesis, training, evaluation, CLI."""

import collections
import configparser
import csv
import dataclasses
import json
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dsrkit.pipeline
from dsrkit.audio import (
    AudioBuffer,
    MelFrames,
    VoiceSpec,
    log_mel,
    read_wav,
    synth_voice,
    write_wav,
)
from dsrkit.augment import pitch_shift
from dsrkit.cli import main
from dsrkit.encoder import (
    add_grads,
    backward_batch,
    forward_batch,
    init_params,
    load_checkpoint,
    zero_grads,
)
from dsrkit.errors import (
    DsrkitError,
    EmptyInputError,
    InsufficientBatchError,
    ManifestError,
    NumericError,
    ParameterError,
    ShapeError,
    UndefinedMetricError,
    ValidationError,
)
from dsrkit.metrics import corpus_wer
from dsrkit.pipeline import (
    ManifestRecord,
    _grouped_backward,
    _grouped_forward,
    RunConfig,
    embed_utterances,
    evaluate,
    finetune_triplet,
    load_config,
    load_manifest,
    load_utterances,
    mel_for,
    pretrain_ge2e,
    run_gender_experiment,
    shifted_females,
    split_holdout,
    synth_corpus,
    write_manifest,
)
from dsrkit.sampling import Utterance, build_triplet, coeffs_for

TINY = RunConfig(corpus_speakers=4, utterances_per_speaker=3, duration_s=0.5,
                 ge2e_n_speakers=2, ge2e_m_utterances=2, ge2e_iterations=3,
                 batch_size=4, triplet_iterations=2, holdout_per_speaker=1)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = synth_corpus(TINY, out)
    return manifest, load_manifest(manifest)


@pytest.fixture(scope="module")
def conflict_manifest(tiny_corpus, tmp_path_factory):
    """The tiny corpus with its first two lines renamed to speaker s1, the
    second of them male; written as text, since write_manifest refuses it."""
    _, records = tiny_corpus
    s1 = [dataclasses.replace(r, speaker_id="s1", gender=gender)
          for r, gender in zip(records[:2], ("female", "male"))]
    path = tmp_path_factory.mktemp("conflict") / "conflict.tsv"
    path.write_text("".join(f"{r.wav_path}\t{r.speaker_id}\t{r.gender}\t{r.severity}"
                            f"\t{r.transcript}\n" for r in s1 + records[2:]),
                    encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def odd_manifests(tiny_corpus, tmp_path_factory):
    """Valid manifests of the tiny corpus that some stage must refuse, by
    name: "severityless" gives its last speaker no severity, "female_only"
    keeps only the female speakers, "untranscribed" blanks every
    transcript, and "untranscribed_hyp" holds one hypothesis line per
    record of it."""
    _, records = tiny_corpus
    last = records[-1].speaker_id
    out = tmp_path_factory.mktemp("odd")
    hyp = out / "untranscribed.hyp"
    hyp.write_text("the north wind\n" * len(records), encoding="utf-8")
    return {
        "severityless": write_manifest(
            [dataclasses.replace(r, severity=None) if r.speaker_id == last else r
             for r in records], out / "severityless.tsv"),
        "female_only": write_manifest([r for r in records if r.gender == "female"],
                                      out / "female_only.tsv"),
        "untranscribed": write_manifest([dataclasses.replace(r, transcript="")
                                         for r in records], out / "untranscribed.tsv"),
        "untranscribed_hyp": hyp,
    }


class TestManifest:
    def test_round_trip(self, tiny_corpus, tmp_path):
        _, records = tiny_corpus
        path = write_manifest(records, tmp_path / "copy.tsv")
        again = load_manifest(path)
        assert [(r.speaker_id, r.gender, r.severity, r.transcript) for r in again] \
            == [(r.speaker_id, r.gender, r.severity, r.transcript) for r in records]

    def test_none_severity_round_trip(self, tiny_corpus, tmp_path):
        _, records = tiny_corpus
        bare = ManifestRecord(records[0].wav_path, "x1", "female", None, "hello")
        path = write_manifest([bare], tmp_path / "none.tsv")
        assert "\tnone\t" in path.read_text(encoding="utf-8")
        assert load_manifest(path)[0].severity is None

    @settings(max_examples=300, deadline=None)
    @given(wav_name=st.text(st.sampled_from("ab \u00e9\u8a9e"), min_size=1, max_size=8)
           | st.text(st.sampled_from("a \t\n\u2028"), min_size=1, max_size=4),
           inside=st.booleans(), exists=st.booleans(), speaker_id=st.text(),
           gender=st.sampled_from(["female", "male"])
           | st.sampled_from(["other", "", "Female", "male "]),
           severity=st.sampled_from([None, "none", "moderate", "moderate_severe"])
           | st.sampled_from(["severe", "", "None"]),
           transcript=st.text())
    def test_write_load_round_trip_or_rejected(
            self, tmp_path_factory, wav_name, inside, exists, speaker_id, gender,
            severity, transcript):
        """Every field drawn from valid and invalid values: a record is
        either refused, leaving no file, or loads back equal. The WAV sits
        in the manifest's directory (written relative) or beside it
        (written absolute). The file spells no severity "none", so a record
        must spell it None, and the string "none" is refused."""
        base = tmp_path_factory.mktemp("rt")
        for sub in ("m", "other"):
            (base / sub).mkdir()
        wav = base / ("m" if inside else "other") / wav_name
        if exists:
            wav.write_bytes(b"")
        path = base / "m" / "m.tsv"
        record = ManifestRecord(str(wav), speaker_id, gender, severity, transcript)
        try:
            write_manifest([record], path)
        except ManifestError:
            assert not path.exists()
            return
        assert severity != "none"
        assert load_manifest(path) == [record]

    @pytest.mark.parametrize("field,value", [("speaker_id", ""), ("gender", "other"),
                                             ("severity", "severe")])
    def test_unloadable_value_not_written(self, tiny_corpus, tmp_path, field, value):
        _, records = tiny_corpus
        good = ManifestRecord(records[0].wav_path, "s1", "female", "moderate", "hi")
        with pytest.raises(ManifestError, match=field):
            write_manifest([dataclasses.replace(good, **{field: value})], tmp_path / "u.tsv")

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x1c", "\x85", "\u2028"])
    def test_line_break_in_any_field_rejected(self, tiny_corpus, tmp_path, brk):
        _, records = tiny_corpus
        good = ManifestRecord(records[0].wav_path, "s1", "female", "moderate", "hi")
        for field in ("speaker_id", "gender", "severity", "transcript"):
            bad = dataclasses.replace(good, **{field: getattr(good, field) + brk})
            with pytest.raises(ManifestError, match="line break"):
                write_manifest([bad], tmp_path / "b.tsv")

    def test_field_count_error_carries_line_number(self, tiny_corpus, tmp_path):
        _, records = tiny_corpus
        wav = records[0].wav_path
        path = tmp_path / "bad.tsv"
        path.write_text(f"{wav}\ts1\tfemale\tnone\thi\nonly\tfour\tfields\there\n",
                        encoding="utf-8")
        with pytest.raises(ManifestError, match=r":2:"):
            load_manifest(path)

    def test_unknown_gender_rejected(self, tiny_corpus, tmp_path):
        _, records = tiny_corpus
        wav = records[0].wav_path
        path = tmp_path / "g.tsv"
        path.write_text(f"{wav}\ts1\tother\tnone\thi\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="gender"):
            load_manifest(path)

    def test_unknown_severity_rejected(self, tiny_corpus, tmp_path):
        _, records = tiny_corpus
        wav = records[0].wav_path
        path = tmp_path / "s.tsv"
        path.write_text(f"{wav}\ts1\tfemale\tsevere\thi\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="severity"):
            load_manifest(path)

    def test_missing_wav_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("missing.wav\ts1\tfemale\tnone\thi\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="missing.wav"):
            load_manifest(path)

    def test_empty_speaker_rejected(self, tiny_corpus, tmp_path):
        _, records = tiny_corpus
        wav = records[0].wav_path
        path = tmp_path / "e.tsv"
        path.write_text(f"{wav}\t\tfemale\tnone\thi\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="speaker_id"):
            load_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_conflicting_speaker_metadata_rejected(self, conflict_manifest):
        with pytest.raises(ManifestError, match=":2: speaker s1 has conflicting"):
            load_manifest(conflict_manifest)

    @pytest.mark.parametrize("field, value, meta", [
        ("gender", "male", "male/moderate_severe here, female/moderate_severe"),
        ("severity", None, "female/none here, female/moderate_severe"),
    ])
    def test_write_refuses_conflicting_speaker_metadata(self, tiny_corpus, tmp_path, field,
                                                        value, meta):
        _, records = tiny_corpus
        s1 = [dataclasses.replace(r, speaker_id="s1") for r in records[:2]]
        s1[1] = dataclasses.replace(s1[1], **{field: value})
        path = tmp_path / "conflict.tsv"
        with pytest.raises(ManifestError) as info:
            write_manifest(s1 + records[2:], path)
        assert str(info.value) == (f"record 1 ({s1[1].wav_path}): speaker s1 has conflicting "
                                   f"metadata: {meta} at record 0 ({s1[0].wav_path})")
        assert not path.exists()

    def test_write_refuses_empty_list(self, tmp_path):
        path = tmp_path / "empty.tsv"
        with pytest.raises(ManifestError, match="no records"):
            write_manifest([], path)
        assert not path.exists()

    @pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
    def test_write_refuses_missing_wav(self, tmp_path, monkeypatch, relative):
        """A record's relative wav path is resolved against the working
        directory, as read_wav resolves it, not against the manifest's."""
        (tmp_path / "cwd").mkdir()
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        (tmp_path / "out" / "clip.wav").write_bytes(b"")
        wav = "clip.wav" if relative else str(tmp_path / "cwd" / "clip.wav")
        path = tmp_path / "out" / "m.tsv"
        with pytest.raises(ManifestError, match="missing wav file"):
            write_manifest([ManifestRecord(wav, "s1", "female", None, "hi")], path)
        assert not path.exists()

    def test_relative_record_names_working_directory_wav(self, tmp_path, monkeypatch):
        """Two clip.wav files: the record's, in the working directory, and
        another in the manifest's directory. The manifest names the first."""
        for sub, data in (("cwd", b"cwd"), ("out", b"out")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "clip.wav").write_bytes(data)
        monkeypatch.chdir(tmp_path / "cwd")
        path = write_manifest([ManifestRecord("clip.wav", "s1", "female", None, "hi")],
                              tmp_path / "out" / "m.tsv")
        [loaded] = load_manifest(path)
        assert Path(loaded.wav_path).read_bytes() == b"cwd"

    def test_relative_paths_under_manifest_directory_stay_relative(self, tmp_path,
                                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("out/wavs").mkdir(parents=True)
        Path("out/wavs/a.wav").write_bytes(b"")
        path = write_manifest([ManifestRecord("out/wavs/a.wav", "s1", "female", None, "hi")],
                              Path("out/m.tsv"))
        assert path.read_text(encoding="utf-8") == "wavs/a.wav\ts1\tfemale\tnone\thi\n"

    def test_write_refuses_string_none_severity(self, tiny_corpus, tmp_path):
        _, records = tiny_corpus
        path = tmp_path / "none.tsv"
        with pytest.raises(ManifestError, match="severity 'none'"):
            write_manifest([ManifestRecord(records[0].wav_path, "s1", "female", "none",
                                           "hi")], path)
        assert not path.exists()

    def test_tab_only_line_is_not_blank(self, tiny_corpus, tmp_path):
        _, records = tiny_corpus
        path = tmp_path / "tabs.tsv"
        path.write_text(f"{records[0].wav_path}\ts1\tfemale\tnone\thi\n \n\t\t\t\t\n",
                        encoding="utf-8")
        with pytest.raises(ManifestError, match=r":3: empty speaker_id"):
            load_manifest(path)

    @pytest.mark.parametrize("field", ["wav_path", "speaker_id", "gender", "severity",
                                       "transcript"])
    def test_tab_in_any_field_rejected(self, tiny_corpus, tmp_path, field):
        _, records = tiny_corpus
        good = ManifestRecord(records[0].wav_path, "s1", "female", "moderate", "hi")
        bad = dataclasses.replace(good, **{field: getattr(good, field) + "\t"})
        path = tmp_path / "tab.tsv"
        with pytest.raises(ManifestError, match="expected 5 fields, got 6"):
            write_manifest([bad], path)
        assert not path.exists()


class TestConfig:
    def test_defaults_load_without_file(self):
        config = load_config(None)
        assert config.alpha == 0.3
        assert config.batch_size == 64
        assert config.n_mels == 20

    def test_ini_parsing_and_seed_override(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[triplet]\nalpha = 0.5\niterations = 7\n[run]\nseed = 3\n"
            "[corpus]\nn_speakers = 5\n",
            encoding="utf-8")
        config = load_config(path)
        assert (config.alpha, config.triplet_iterations, config.seed) == (0.5, 7, 3)
        assert config.corpus_speakers == 5
        assert load_config(path, seed=9).seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        # A key is its field name without the section prefix, except
        # [corpus] n_speakers; neither the full field name nor another
        # shortening is accepted.
        for section, key in (("triplet", "alfa"), ("corpus", "corpus_speakers"),
                             ("corpus", "speakers"), ("ge2e", "ge2e_lr")):
            path.write_text(f"[{section}]\n{key} = 5\n", encoding="utf-8")
            with pytest.raises(ValidationError,
                               match=rf"unknown config key \[{section}\] {key}$"):
                load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad2.ini"
        path.write_text("[run]\nseed = soon\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_config(path)

    @pytest.mark.parametrize("text,match", [
        (b"[corpus]\nseverity = 50%\n", "'50%'"),
        (b"[corpus]\nseverity = moderate\xff\n", "not UTF-8"),
        (b"[DEFAULT]\nseed = 3\n", r"\[DEFAULT\].*seed"),
        (b"[DEFAULT]\nseed = 3\n[run]\nholdout_per_speaker = 1\n", r"\[DEFAULT\].*seed"),
        (b"seed = 3\n[run]\n", r"no section headers.* line: 1 'seed = 3\\n'\)$"),
        (b"[run]\nseed = 3\n[ge2e\nlr = 0.1\n", r"parsing errors.* \[line  3\]: '\[ge2e\\n'\)$"),
    ], ids=["percent_is_literal", "not_utf8", "default_only", "default_with_section",
            "key_before_section", "unclosed_section"])
    def test_malformed_ini_rejected(self, tmp_path, capsys, text, match):
        path = tmp_path / "bad.ini"
        path.write_bytes(text)
        with pytest.raises(ValidationError, match=match):
            load_config(path)
        assert main(["synth-corpus", "--config", str(path),
                     "--out", str(tmp_path / "corpus")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_readme_ini_block_is_the_schema(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        after_heading = readme.split("\n## Configuration\n", 1)[1]
        block = after_heading.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block, encoding="utf-8")
        assert load_config(path) == RunConfig()
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(block)
        documented = {(s, k) for s in parser.sections() for k in parser[s]}
        assert len(documented) == len(dataclasses.fields(RunConfig)) == 28
        assert documented == set(dsrkit.pipeline._INI_FIELDS)

    def test_non_finite_float_field_rejected(self):
        names = [f.name for f in dataclasses.fields(RunConfig) if f.type is float]
        assert "alpha" in names and "hop_s" in names
        for name in names:
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValidationError, match=f"{name} must be finite"):
                    RunConfig(**{name: value})

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig(n_mels=0)
        with pytest.raises(ValidationError):
            RunConfig(alpha=-0.1)

    @pytest.mark.parametrize("name", [
        "sample_rate", "n_mels", "win_s", "hop_s", "n_layers", "hidden_dim",
        "embed_dim", "ge2e_n_speakers", "ge2e_m_utterances", "ge2e_lr", "ge2e_clip",
        "ge2e_scale_lr", "batch_size", "triplet_lr", "triplet_clip", "corpus_speakers",
        "utterances_per_speaker", "duration_s"])
    def test_positive_field_bound(self, name):
        for value in (0, -1):
            with pytest.raises(ValidationError, match=f"field {name} must be positive"):
                RunConfig(**{name: value})

    @pytest.mark.parametrize("name", ["alpha", "ge2e_iterations", "triplet_iterations",
                                      "holdout_per_speaker"])
    def test_nonnegative_field_bound(self, name):
        with pytest.raises(ValidationError, match=f"field {name} must be nonnegative"):
            RunConfig(**{name: -1})
        assert getattr(RunConfig(**{name: 0}), name) == 0

    def test_seed_outside_int32_range_rejected(self):
        for seed in (-1, 2**31):
            with pytest.raises(ValidationError, match="seed"):
                RunConfig(seed=seed)
        assert RunConfig(seed=2**31 - 1).seed == 2**31 - 1

    def test_f0_windows_must_stay_in_spec_ranges(self):
        with pytest.raises(ValidationError):
            RunConfig(female_f0_min=150.0)
        with pytest.raises(ValidationError):
            RunConfig(male_f0_max=170.0)
        RunConfig(female_f0_min=200.0, female_f0_max=240.0)  # sub-range is fine

    @pytest.mark.parametrize("key,value", [("win_s", "0.00003"), ("hop_s", "1e-05"),
                                           ("hop_s", "0.00003125"),
                                           ("duration_s", "0.00001")])
    def test_window_or_hop_under_one_sample_rejected(self, tmp_path, capsys, key, value):
        """Rounded to samples at 16 kHz these are 0 (a clip of no sample for
        duration_s); the run must stop at the config, before any WAV is
        decoded or any corpus is synthesised."""
        section = "corpus" if key == "duration_s" else "audio"
        path = tmp_path / "short.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"field {key} = .* under one sample"):
            load_config(path)
        out = tmp_path / "corpus"
        assert main(["synth-corpus", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not out.exists()
        # One sample (rounded up from half a sample plus a little) is enough.
        assert RunConfig(**{key: 0.0000313}).sample_rate == 16000


def serial_synth_corpus(config, out_dir):
    """synth_corpus as one serial loop that renders and writes each WAV
    between its draws: the reference the pooled version must match."""
    out = Path(out_dir)
    wav_dir = out / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    n_female = (config.corpus_speakers + 1) // 2
    speakers = []
    for gender, count, lo, hi in (
        ("female", n_female, config.female_f0_min, config.female_f0_max),
        ("male", config.corpus_speakers - n_female, config.male_f0_min, config.male_f0_max),
    ):
        bases = np.linspace(lo, hi, count + 2)[1:-1]
        for i in range(count):
            speakers.append((f"{gender[0]}{i + 1:02d}", gender, bases[i]))
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 11]))
    records = []
    for speaker_id, gender, base_f0 in speakers:
        n_harmonics = int(rng.integers(4, 9))
        rolloff = float(rng.uniform(8.0, 14.0))
        for utt_idx in range(config.utterances_per_speaker):
            f0 = float(base_f0 + rng.uniform(-2.0, 2.0))
            spec = VoiceSpec(f0=f0, n_harmonics=n_harmonics, harmonic_rolloff=rolloff,
                             duration_s=config.duration_s,
                             vibrato_cents=float(rng.uniform(5.0, 20.0)),
                             seed=int(rng.integers(2**31)))
            wav_path = wav_dir / f"{speaker_id}-{utt_idx:02d}.wav"
            write_wav(synth_voice(spec, config.sample_rate), wav_path)
            words = rng.choice(dsrkit.pipeline.VOCAB, size=int(rng.integers(3, 6)),
                               replace=True)
            records.append(ManifestRecord(str(wav_path), speaker_id, gender,
                                          config.severity, " ".join(words)))
    return write_manifest(records, out / "manifest.tsv")


class TestSynthCorpus:
    def test_equals_serial_oracle(self, tmp_path):
        config = RunConfig(**{**vars(TINY), "corpus_speakers": 5, "seed": 17})
        pooled = synth_corpus(config, tmp_path / "pooled")
        serial = serial_synth_corpus(config, tmp_path / "serial")
        assert pooled.read_bytes() == serial.read_bytes()
        names = sorted(p.name for p in (tmp_path / "serial" / "wavs").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "pooled" / "wavs").iterdir())
        assert len(names) == 15
        for name in names:
            assert ((tmp_path / "pooled" / "wavs" / name).read_bytes()
                    == (tmp_path / "serial" / "wavs" / name).read_bytes()), name

    def test_counts_and_genders(self, tiny_corpus):
        manifest, records = tiny_corpus
        assert len(records) == 12
        assert sum(1 for r in records if r.gender == "female") == 6
        wavs = {r.wav_path for r in records}
        assert len(wavs) == 12

    def test_female_f0_oracle(self, tiny_corpus):
        _, records = tiny_corpus
        for r in records:
            buf = read_wav(r.wav_path)
            spec = np.abs(np.fft.rfft(buf.samples))
            peak = np.argmax(spec) * buf.sample_rate / len(buf)
            if r.gender == "female":
                assert peak >= 178.0
            else:
                assert peak <= 152.0

    def test_same_seed_byte_identical(self, tmp_path):
        a = synth_corpus(TINY, tmp_path / "a")
        b = synth_corpus(TINY, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        for ra, rb in zip(load_manifest(a), load_manifest(b)):
            assert Path(ra.wav_path).read_bytes() == Path(rb.wav_path).read_bytes()

    def test_severity_comes_from_config(self, tiny_corpus):
        _, records = tiny_corpus
        assert all(r.severity == "moderate_severe" for r in records)

    def test_aliasing_voice_writes_nothing(self, tmp_path):
        """At 3 kHz the female voices' top harmonics pass Nyquist: every
        voice is checked before the first file is written."""
        config = RunConfig(**{**vars(TINY), "sample_rate": 3000})
        with pytest.raises(ParameterError, match="would alias at sample rate 3000"):
            synth_corpus(config, tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()


class TestSplitHoldout:
    def test_per_speaker_counts(self, tiny_corpus):
        _, records = tiny_corpus
        train, hold = split_holdout(records, 1)
        assert len(hold) == 4 and len(train) == 8
        by_spk = {}
        for r in hold:
            by_spk[r.speaker_id] = by_spk.get(r.speaker_id, 0) + 1
        assert set(by_spk.values()) == {1}

    def test_emptying_a_speaker_rejected(self, tiny_corpus):
        _, records = tiny_corpus
        with pytest.raises(ParameterError):
            split_holdout(records, 3)

    def test_experiment_without_holdout_rejected(self, tmp_path):
        config = RunConfig(**{**vars(TINY), "holdout_per_speaker": 0})
        with pytest.raises(ParameterError, match="at least one held-out utterance"):
            run_gender_experiment(config, tmp_path / "exp")
        assert not (tmp_path / "exp").exists()


class TestPretrain:
    def test_artifacts_written(self, tiny_corpus, tmp_path):
        manifest, _ = tiny_corpus
        ckpt = pretrain_ge2e(manifest, TINY, tmp_path / "pre")
        assert ckpt.is_file()
        lines = (tmp_path / "pre" / "pretrain_metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 1 + TINY.ge2e_iterations
        record = json.loads((tmp_path / "pre" / "run_record.json").read_text())
        assert record["command"] == "pretrain"
        assert record["config"]["seed"] == TINY.seed
        assert "time" not in json.dumps(record).lower()

    def test_zero_iterations_keeps_initialization(self, tiny_corpus, tmp_path):
        manifest, _ = tiny_corpus
        config = RunConfig(**{**vars(TINY), "ge2e_iterations": 0})
        ckpt = pretrain_ge2e(manifest, config, tmp_path / "pre0")
        loaded = load_checkpoint(ckpt)
        fresh = init_params(config.encoder_config())
        for name in fresh.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], fresh.tensors[name])

    def test_deterministic_across_runs(self, tiny_corpus, tmp_path):
        manifest, _ = tiny_corpus
        a = pretrain_ge2e(manifest, TINY, tmp_path / "da")
        b = pretrain_ge2e(manifest, TINY, tmp_path / "db")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "da" / "pretrain_metrics.csv").read_bytes() == \
               (tmp_path / "db" / "pretrain_metrics.csv").read_bytes()

    def test_insufficient_speakers_rejected(self, tiny_corpus, tmp_path):
        manifest, _ = tiny_corpus
        config = RunConfig(**{**vars(TINY), "ge2e_n_speakers": 9})
        with pytest.raises(InsufficientBatchError):
            pretrain_ge2e(manifest, config, tmp_path / "nope")

    # The diverging step overflows in numpy before forward_batch raises.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_leaves_no_output_directory(self, tiny_corpus, tmp_path):
        manifest, _ = tiny_corpus
        config = RunConfig(**{**vars(TINY), "ge2e_lr": 1e300})
        with pytest.raises(NumericError, match=r"^pretrain diverged at iteration 1: "):
            pretrain_ge2e(manifest, config, tmp_path / "pre")
        assert not (tmp_path / "pre").exists()

    def test_loss_decreases_over_training(self, tiny_corpus, tmp_path):
        manifest, _ = tiny_corpus
        config = RunConfig(**{**vars(TINY), "ge2e_iterations": 40})
        pretrain_ge2e(manifest, config, tmp_path / "long")
        lines = (tmp_path / "long" / "pretrain_metrics.csv").read_text().splitlines()
        losses = [float(line.split(",")[1]) for line in lines[1:]]
        assert losses[-1] < losses[0]


@pytest.fixture(scope="module")
def pretrained(tiny_corpus, tmp_path_factory):
    manifest, _ = tiny_corpus
    out = tmp_path_factory.mktemp("pre")
    return manifest, pretrain_ge2e(manifest, TINY, out)


class TestFinetune:
    def test_artifacts_written(self, pretrained, tmp_path):
        manifest, ckpt = pretrained
        tuned = finetune_triplet(manifest, ckpt, TINY, tmp_path / "ft")
        assert tuned.is_file()
        lines = (tmp_path / "ft" / "finetune_metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + TINY.triplet_iterations
        base = load_checkpoint(ckpt)
        after = load_checkpoint(tuned)
        assert any(not np.array_equal(base.tensors[n], after.tensors[n])
                   for n in base.tensors)

    def test_mel_width_mismatch_rejected(self, pretrained, tmp_path, monkeypatch):
        """Both stages that load a checkpoint compare its shape with the
        config's before any WAV is decoded, and name both sides."""
        manifest, ckpt = pretrained
        decoded = []
        monkeypatch.setattr(dsrkit.pipeline, "read_wav", decoded.append)
        for stage, overrides, named in [
            (finetune_triplet, {"n_mels": 24}, "input_dim 20 (config 24)"),
            (evaluate, {"n_mels": 24}, "input_dim 20 (config 24)"),
            (finetune_triplet, {"hidden_dim": 64, "n_layers": 3},
             "n_layers 2 (config 3), hidden_dim 32 (config 64)"),
        ]:
            config = RunConfig(**{**vars(TINY), **overrides})
            with pytest.raises(ShapeError, match=re.escape(named)):
                stage(manifest, ckpt, config, tmp_path / "bad")
        assert decoded == [] and not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("seed", [0, 4])
    def test_speaker_without_severity_refused_before_training(
            self, odd_manifests, pretrained, tmp_path, seed):
        """Refused whatever the draw: at seed 0 the first batch draws one of
        that speaker's clips as an anchor, at seed 4 it draws none."""
        _, ckpt = pretrained
        manifest = odd_manifests["severityless"]
        first = next(r for r in load_manifest(manifest) if r.severity is None)
        config = RunConfig(**{**vars(TINY), "seed": seed, "triplet_iterations": 1})
        with pytest.raises(ValidationError, match=f"^{re.escape(first.wav_path)}: speaker "
                                                  f"{first.speaker_id} has no severity"):
            finetune_triplet(manifest, ckpt, config, tmp_path / "ft")
        assert not (tmp_path / "ft").exists()

    def test_deterministic_across_runs(self, pretrained, tmp_path):
        manifest, ckpt = pretrained
        a = finetune_triplet(manifest, ckpt, TINY, tmp_path / "fa")
        b = finetune_triplet(manifest, ckpt, TINY, tmp_path / "fb")
        assert a.read_bytes() == b.read_bytes()

    def test_loss_decreases_over_training(self, pretrained, tmp_path):
        manifest, ckpt = pretrained
        config = RunConfig(**{**vars(TINY), "triplet_iterations": 30,
                              "batch_size": 8})
        finetune_triplet(manifest, ckpt, config, tmp_path / "long")
        lines = (tmp_path / "long" / "finetune_metrics.csv").read_text().splitlines()
        losses = [float(line.split(",")[1]) for line in lines[1:]]
        assert losses[-1] < losses[0]


@pytest.fixture(scope="module")
def staged(tiny_corpus, pretrained):
    manifest, records = tiny_corpus
    _, ckpt = pretrained
    return manifest, records, ckpt


@pytest.fixture
def short_manifest(tiny_corpus, tmp_path):
    """The tiny corpus cut to 0.1 s clips, too short for the phase vocoder."""
    _, records = tiny_corpus
    short = []
    for i, r in enumerate(records):
        wav = tmp_path / f"short{i}.wav"
        write_wav(AudioBuffer(read_wav(r.wav_path).samples[:1600]), wav)
        short.append(dataclasses.replace(r, wav_path=str(wav)))
    return write_manifest(short, tmp_path / "short.tsv")


@pytest.fixture(scope="module")
def blip_manifest(tmp_path_factory):
    """A corpus of 0.02 s clips: 320 samples, shorter than one mel window."""
    config = RunConfig(**{**vars(TINY), "duration_s": 0.02})
    return synth_corpus(config, tmp_path_factory.mktemp("blips"))


class TestShortClips:
    def test_pretrain_names_clip_shorter_than_a_mel_window(self, blip_manifest,
                                                            tmp_path):
        with pytest.raises(EmptyInputError,
                           match=r"f01-00\.wav: buffer of 320 samples .* 400-sample"):
            pretrain_ge2e(blip_manifest, TINY, tmp_path / "pre")
        assert not (tmp_path / "pre").exists()

    def test_finetune_names_first_short_file(self, short_manifest, staged, tmp_path):
        _, _, ckpt = staged
        with pytest.raises(EmptyInputError, match=r"short0\.wav: buffer of 1600 samples"):
            finetune_triplet(short_manifest, ckpt, TINY, tmp_path / "ft")

    def test_evaluate_names_short_female_file(self, short_manifest, staged, tmp_path):
        _, _, ckpt = staged
        with pytest.raises(EmptyInputError, match=r"short0\.wav: buffer of 1600 samples"):
            evaluate(short_manifest, ckpt, TINY, tmp_path / "ev")
        assert not (tmp_path / "ev").exists()


class TestEvaluate:
    def test_report_contents(self, staged, tmp_path):
        manifest, records, ckpt = staged
        report = evaluate(manifest, ckpt, TINY, tmp_path / "ev")
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric,cohort,value,ci_low,ci_high"
        metrics = {line.split(",")[0] for line in lines[1:]}
        assert {"eer", "gender_probe_accuracy"} <= metrics
        assert (tmp_path / "ev" / "report.txt").is_file()

    def test_wer_zero_for_identical_hypotheses(self, staged, tmp_path):
        manifest, records, ckpt = staged
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("\n".join(r.transcript for r in records) + "\n",
                       encoding="utf-8")
        report = evaluate(manifest, ckpt, TINY, tmp_path / "ev2",
                          hypotheses_path=hyp)
        wer_lines = [line for line in report.read_text().splitlines()
                     if line.startswith("wer,")]
        assert wer_lines == ["wer,corpus,0.0,,"]

    def test_speaker_without_severity_probed_at_config_severity(self, odd_manifests,
                                                                staged, tmp_path):
        """The corpus's severity is the config's, so the report is the same."""
        manifest, _, ckpt = staged
        reports = [evaluate(m, ckpt, TINY, tmp_path / name).read_bytes()
                   for name, m in (("a", odd_manifests["severityless"]), ("b", manifest))]
        assert reports[0] == reports[1]

    def test_no_male_speaker_rejected(self, odd_manifests, staged, tmp_path):
        _, _, ckpt = staged
        with pytest.raises(InsufficientBatchError, match="no male utterances"):
            evaluate(odd_manifests["female_only"], ckpt, TINY, tmp_path / "ev")
        assert not (tmp_path / "ev").exists()

    def test_wer_of_untranscribed_corpus_rejected(self, odd_manifests, staged, tmp_path):
        _, _, ckpt = staged
        with pytest.raises(UndefinedMetricError, match="no reference words"):
            evaluate(odd_manifests["untranscribed"], ckpt, TINY, tmp_path / "ev",
                     hypotheses_path=odd_manifests["untranscribed_hyp"])
        assert not (tmp_path / "ev").exists()

    def test_deterministic_reports(self, staged, tmp_path):
        manifest, records, ckpt = staged
        a = evaluate(manifest, ckpt, TINY, tmp_path / "ea")
        b = evaluate(manifest, ckpt, TINY, tmp_path / "eb")
        assert a.read_bytes() == b.read_bytes()


def report_values(path):
    """(metric, cohort) -> value string of a metrics CSV report, in row order."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {(r["metric"], r["cohort"]): r["value"] for r in csv.DictReader(fh)}


class TestShiftedFemales:
    def test_each_utterance_uses_its_own_severity(self, tmp_path):
        buf = synth_voice(VoiceSpec(220.0, 6, 10.0, 0.5))
        f1, m1, f2 = (str(tmp_path / f"{name}.wav") for name in ("f1-0", "m1-0", "f2-0"))
        for wav in (f1, m1, f2):
            write_wav(buf, wav)
        utterances = [Utterance("f1", "female", "moderate", f1),
                      Utterance("m1", "male", "moderate", m1),
                      Utterance("f2", "female", None, f2)]
        config = RunConfig(**{**vars(TINY), "severity": "moderate_severe"})
        cache = {}
        shifted = shifted_females(utterances, config, cache)
        assert [u.utterance_id for u in shifted] == [f"{f1}#pitch0.25", f"{f2}#pitch0.5"]
        # The females' own mels come from the same decode as their shifts.
        assert set(cache) == {f1, f2} | {u.utterance_id for u in shifted}

    def test_equals_serial_loop(self, tiny_corpus):
        _, records = tiny_corpus
        # Alternate the severities so the shifts differ in coefficient.
        utterances = [dataclasses.replace(u, severity=("moderate", None)[i % 2])
                      for i, u in enumerate(load_utterances(records, TINY, False))]
        want = []  # (utterance_id, frames as int64), each own clip before its shift
        for u in utterances:
            if u.gender == "female":
                coeff = coeffs_for(u.severity or TINY.severity).pitch_coeff
                buf = read_wav(u.utterance_id)
                for utt_id, clip in ((u.utterance_id, buf),
                                     (f"{u.utterance_id}#pitch{coeff}",
                                      pitch_shift(buf, coeff))):
                    mel = log_mel(clip, TINY.n_mels, TINY.win_s, TINY.hop_s)
                    want.append((utt_id, mel.frames.view(np.int64)))
        cache = {}
        got = shifted_females(utterances, TINY, cache)
        assert [u.utterance_id for u in got] == [utt_id for utt_id, _ in want[1::2]]
        assert list(cache) == [utt_id for utt_id, _ in want]
        for utt_id, frames in want:
            assert np.array_equal(cache[utt_id].frames.view(np.int64), frames)


class TestAssess:
    """evaluate and the gender experiment score a checkpoint through one
    routine. EER does not depend on the enrolment centroids, so evaluating
    the holdout manifest reproduces the experiment's holdout EER exactly."""

    def test_evaluate_reproduces_experiment_report(self, tmp_path):
        config = RunConfig(**{**vars(TINY), "utterances_per_speaker": 4,
                              "holdout_per_speaker": 2})
        results = run_gender_experiment(config, tmp_path / "x")
        report = report_values(tmp_path / "x" / "experiment_report.csv")
        assert [repr(v) for v in results.values()] == list(report.values())
        evaluated = report_values(evaluate(
            tmp_path / "x" / "corpus" / "holdout.tsv",
            tmp_path / "x" / "finetune" / "finetuned.ckpt", config, tmp_path / "ev"))
        assert evaluated[("eer", "all")] == report[("eer_holdout", "finetuned")]


class TestSampleRate:
    @pytest.fixture
    def low_rate_manifest(self, tiny_corpus, tmp_path):
        _, records = tiny_corpus
        wav = tmp_path / "low.wav"
        write_wav(AudioBuffer(read_wav(records[0].wav_path).samples[::2], 8000), wav)
        low = dataclasses.replace(records[0], wav_path=str(wav))
        return write_manifest([low] + records[1:], tmp_path / "low.tsv")

    def test_pretrain_rejects_other_rate(self, low_rate_manifest, tmp_path):
        with pytest.raises(ValidationError, match=r"low\.wav.*8000.*16000"):
            pretrain_ge2e(low_rate_manifest, TINY, tmp_path / "pre")

    def test_evaluate_rejects_other_rate(self, low_rate_manifest, staged, tmp_path):
        _, _, ckpt = staged
        with pytest.raises(ValidationError, match=r"low\.wav.*8000.*16000"):
            evaluate(low_rate_manifest, ckpt, TINY, tmp_path / "ev")

    @settings(max_examples=50, deadline=None)
    @given(rate=st.integers(1, 192000).filter(lambda r: r != TINY.sample_rate))
    def test_load_utterances_rejects_any_other_rate(self, tiny_corpus,
                                                    tmp_path_factory, rate):
        _, records = tiny_corpus
        wav = tmp_path_factory.mktemp("rate") / "r.wav"
        write_wav(AudioBuffer(np.zeros(64), rate), wav)
        record = dataclasses.replace(records[0], wav_path=str(wav))
        with pytest.raises(ValidationError, match=f"{rate} Hz"):
            load_utterances([record], TINY, False)


class TestUtteranceIds:
    def test_same_named_wavs_do_not_share_cache_entries(self, tmp_path):
        records = []
        for folder, f0 in (("a", 200.0), ("b", 120.0)):
            (tmp_path / folder).mkdir()
            wav = tmp_path / folder / "001.wav"
            write_wav(synth_voice(VoiceSpec(f0, 6, 10.0, 0.5)), wav)
            records.append(ManifestRecord(str(wav), folder, "female", None, ""))
        utterances = load_utterances(records, TINY, False)
        params = init_params(TINY.encoder_config())
        embeddings = embed_utterances(params, utterances, TINY, {})
        assert not np.array_equal(embeddings[0], embeddings[1])


@pytest.fixture
def wav_reads(monkeypatch):
    """Counts read_wav calls per path, as the pipeline looks the name up;
    the pool workers that decode count under a lock."""
    counts = collections.Counter()
    lock = threading.Lock()
    read = dsrkit.pipeline.read_wav

    def counting(path):
        with lock:
            counts[str(path)] += 1
        return read(path)

    monkeypatch.setattr(dsrkit.pipeline, "read_wav", counting)
    return counts


@pytest.fixture
def loop_calls(monkeypatch):
    """Counts the training loop's calls, as the pipeline looks the names up;
    "batches" counts next() on the generator iter_batches returns."""
    counts = collections.Counter()

    def counting(name):
        original = getattr(dsrkit.pipeline, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(dsrkit.pipeline, name, wrapper)

    for name in ("sgd_step", "forward_batch", "backward_batch"):
        counting(name)
    iter_batches = dsrkit.pipeline.iter_batches

    def counting_batches(*args, **kwargs):
        for batch in iter_batches(*args, **kwargs):  # endless: one pull per next()
            counts["batches"] += 1
            yield batch

    monkeypatch.setattr(dsrkit.pipeline, "iter_batches", counting_batches)
    return counts


class TestTrainingLoop:
    """One batch and one SGD step per iteration; no batch pulled past the
    last iteration, since each pull builds triplets."""

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_pretrain(self, tiny_corpus, tmp_path, loop_calls, iterations):
        manifest, _ = tiny_corpus
        config = RunConfig(**{**vars(TINY), "ge2e_iterations": iterations})
        pretrain_ge2e(manifest, config, tmp_path / "pre")
        # GE2E utterances share one length: one forward and backward per step.
        assert loop_calls == collections.Counter(
            sgd_step=iterations, forward_batch=iterations, backward_batch=iterations)

    @pytest.mark.parametrize("iterations", [0, 4])
    def test_finetune(self, pretrained, tmp_path, loop_calls, iterations):
        manifest, ckpt = pretrained
        # Four batches cross the first epoch's three (12 utterances, 4 each).
        config = RunConfig(**{**vars(TINY), "triplet_iterations": iterations})
        finetune_triplet(manifest, ckpt, config, tmp_path / "ft")
        # Anchors and negatives share one length, tempo positives another.
        assert loop_calls == collections.Counter(
            batches=iterations, sgd_step=iterations,
            forward_batch=2 * iterations, backward_batch=2 * iterations)

    def test_finetune_makes_one_pool_call_per_iteration(self, pretrained, tmp_path,
                                                        monkeypatch):
        manifest, ckpt = pretrained
        config = RunConfig(**{**vars(TINY), "triplet_iterations": 4})
        calls = []
        pmap = dsrkit.sampling.pmap

        def counting(fn, items):
            calls.append(len(items))
            return pmap(fn, items)

        monkeypatch.setattr(dsrkit.sampling, "pmap", counting)
        finetune_triplet(manifest, ckpt, config, tmp_path / "ft")
        # Each batch's missing features, anchors' and negatives' alike, in one call.
        assert len(calls) == 4, calls

    def test_finetune_keeps_one_iteration_of_traces(self, pretrained, tiny_corpus,
                                                    tmp_path):
        """With every utterance in each batch the stack shapes repeat, so
        later steps write into the first step's traces: four iterations
        peak where one does."""
        manifest, ckpt = pretrained
        peaks = {}
        for iterations in (1, 4):
            config = RunConfig(**{**vars(TINY), "batch_size": len(tiny_corpus[1]),
                                  "triplet_iterations": iterations})
            tracemalloc.start()
            try:
                finetune_triplet(manifest, ckpt, config, tmp_path / f"ft{iterations}")
                peaks[iterations] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # One iteration's traces take about 6 MB here.
        assert peaks[4] - peaks[1] < 500_000, peaks

    def test_finetune_encodes_each_distinct_utterance_once(self, pretrained,
                                                           tiny_corpus, tmp_path,
                                                           monkeypatch):
        manifest, ckpt = pretrained
        # One batch holds every utterance, so each male anchor's
        # cross-speaker negative is also one of the batch's anchors.
        config = RunConfig(**{**vars(TINY), "batch_size": len(tiny_corpus[1]),
                              "triplet_iterations": 3})
        distinct, forwarded = [], []
        iter_batches = dsrkit.pipeline.iter_batches
        forward_batch = dsrkit.pipeline.forward_batch

        def recording_batches(*args, **kwargs):
            for batch in iter_batches(*args, **kwargs):
                distinct.append(len({u.utterance_id for t in batch
                                     for u in (t.anchor, t.positive, t.negative)}))
                forwarded.append(0)
                yield batch

        def counting_forward(params, stack, *args, **kwargs):
            forwarded[-1] += len(stack)
            return forward_batch(params, stack, *args, **kwargs)

        monkeypatch.setattr(dsrkit.pipeline, "iter_batches", recording_batches)
        monkeypatch.setattr(dsrkit.pipeline, "forward_batch", counting_forward)
        finetune_triplet(manifest, ckpt, config, tmp_path / "ft")
        # 12 anchors, 12 tempo positives, 6 female pitch-shifted negatives.
        assert forwarded == distinct == [30] * 3

    def test_finetune_keeps_mels_not_augmented_audio(self, pretrained, tmp_path,
                                                     monkeypatch):
        manifest, ckpt = pretrained
        config = RunConfig(**{**vars(TINY), "triplet_iterations": 4})
        caches, derived = {}, []
        iter_batches = dsrkit.pipeline.iter_batches
        mel_for = dsrkit.pipeline.mel_for

        def recording_mel_for(utt, cache):
            caches[id(cache)] = cache
            return mel_for(utt, cache)

        def recording_batches(utterances, batch_size, seed):
            for batch in iter_batches(utterances, batch_size, seed):
                derived.extend(t.positive for t in batch)
                derived.extend(t.negative for t in batch
                               if t.policy_tag["negative_source"] == "self_pitch_shift")
                yield batch

        monkeypatch.setattr(dsrkit.pipeline, "iter_batches", recording_batches)
        monkeypatch.setattr(dsrkit.pipeline, "mel_for", recording_mel_for)
        finetune_triplet(manifest, ckpt, config, tmp_path / "ft")
        [cache] = caches.values()
        assert derived and any(u.gender == "female" for u in derived)
        # Every augment was featurized by the worker that rendered it, with
        # its anchor's mel, in the training loop's one cache.
        assert {u.utterance_id for u in derived} < set(cache)
        assert not any(isinstance(v, AudioBuffer) for v in cache.values())
        assert all(isinstance(v, MelFrames) for v in cache.values())


class TestGroupedEncoding:
    """Encoding each distinct mel once and summing its rows' gradients
    against a per-row forward and backward, summed in row order."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_encoding(self, data):
        params = init_params(TINY.encoder_config())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        distinct = [MelFrames(rng.normal(size=(n_frames, TINY.n_mels)))
                    for n_frames in data.draw(st.lists(st.sampled_from([98, 198]),
                                                       min_size=1, max_size=5))]
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1),
                                   min_size=1, max_size=10))
        mels = [distinct[p] for p in picks]
        grad_out = rng.normal(size=(len(mels), TINY.embed_dim))
        dead = data.draw(st.one_of(st.just([True] * len(mels)),
                                   st.lists(st.booleans(), min_size=len(mels),
                                            max_size=len(mels))))
        grad_out[dead] = 0.0
        embeddings, groups = _grouped_forward(params, mels)
        grads = _grouped_backward(params, groups, grad_out)
        expected = zero_grads(params)
        for row, (m, g) in enumerate(zip(mels, grad_out)):
            trace = forward_batch(params, m.frames[None])
            assert np.max(np.abs(embeddings[row] - trace.embeddings[0])) <= 1e-12
            add_grads(expected, backward_batch(params, trace, g[None]))
        assert list(grads) == list(expected)
        # With every row dead the bound is 0: the gradients must be exact zeros.
        for name, want in expected.items():
            assert np.max(np.abs(grads[name] - want)) <= 1e-12 * np.max(np.abs(want)), name


class TestDecodeOnce:
    """No stage keeps decoded audio: a WAV is decoded once to check it and
    once more in the pool call that makes the features a stage needs of it."""

    def test_evaluate_decodes_each_file_twice(self, staged, tmp_path, wav_reads):
        manifest, records, ckpt = staged
        evaluate(manifest, ckpt, TINY, tmp_path / "ev")
        # A female's mel and her probe shift's come from one decode.
        assert wav_reads == {r.wav_path: 2 for r in records}

    def test_evaluate_checks_hypotheses_before_decoding(self, staged, tmp_path,
                                                        wav_reads):
        manifest, records, ckpt = staged
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("one line\n" * (len(records) + 1), encoding="utf-8")
        with pytest.raises(ShapeError):
            evaluate(manifest, ckpt, TINY, tmp_path / "ev", hypotheses_path=hyp)
        assert sum(wav_reads.values()) == 0

    def test_evaluate_encodes_manifest_and_shifted_females_once(self, staged, tmp_path,
                                                                monkeypatch):
        manifest, records, ckpt = staged
        stacked = []
        forward_batch = dsrkit.pipeline.forward_batch

        def counting_forward(params, stack, *args, **kwargs):
            stacked.append(len(stack))
            return forward_batch(params, stack, *args, **kwargs)

        monkeypatch.setattr(dsrkit.pipeline, "forward_batch", counting_forward)
        evaluate(manifest, ckpt, TINY, tmp_path / "ev")
        n_female = sum(r.gender == "female" for r in records)
        assert sum(stacked) == len(records) + n_female

    def test_experiment_decodes_train_six_times_and_holdout_twice(self, tmp_path,
                                                                   wav_reads):
        # Every GE2E batch draws all 8 training clips, and the one triplet
        # batch holds them all, so every negative is also an anchor.
        config = RunConfig(**{**vars(TINY), "utterances_per_speaker": 4,
                              "holdout_per_speaker": 2, "ge2e_n_speakers": 4,
                              "batch_size": 8})
        run_gender_experiment(config, tmp_path / "x")
        records = load_manifest(tmp_path / "x" / "corpus" / "manifest.tsv")
        train, holdout = split_holdout(records, config.holdout_per_speaker)
        # Pretraining, fine-tuning and the assessment of both checkpoints
        # each check a training clip and make its features from one decode.
        expected = {r.wav_path: 6 for r in train}
        expected.update((r.wav_path, 2) for r in holdout)
        assert wav_reads == expected

    def test_load_utterances_keeps_no_audio(self, tiny_corpus):
        _, records = tiny_corpus
        load_utterances(records[:1], TINY, True)  # the pool's threads start here
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            utterances = load_utterances(records, TINY, True)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert [u.utterance_id for u in utterances] == [r.wav_path for r in records]
        # Less than one clip's float64 samples; keeping every clip is 12 of them.
        assert kept < 8 * round(TINY.duration_s * TINY.sample_rate), kept

    def test_mel_for_derived_clip_missing_from_cache_names_it(self, tiny_corpus):
        _, records = tiny_corpus
        utterances = load_utterances(records, TINY, False)
        positive = build_triplet(utterances[0], utterances, 0).positive
        with pytest.raises(DsrkitError, match=re.escape(positive.utterance_id)):
            mel_for(positive, {})


@pytest.fixture
def two_bad_wavs(tiny_corpus, tmp_path):
    """make(first, short) writes the tiny corpus as a manifest whose first
    record is cut to `short` samples and whose second is resampled to 8 kHz,
    or the other way round when first is "rate"; returns the manifest and
    the path of the bad WAV that comes first."""
    _, records = tiny_corpus

    def make(first, short):
        bad = []
        for record, kind in zip(records, (first, {"short": "rate", "rate": "short"}[first])):
            buf = read_wav(record.wav_path)
            wav = tmp_path / f"{kind}.wav"
            write_wav(AudioBuffer(buf.samples[:short]) if kind == "short"
                      else AudioBuffer(buf.samples[::2], 8000), wav)
            bad.append(dataclasses.replace(record, wav_path=str(wav)))
        return write_manifest(bad + records[2:], tmp_path / "bad.tsv"), bad[0].wav_path
    return make


class TestFirstBadWav:
    """The WAVs are checked in manifest order, every check of one WAV
    before the next WAV, so the first bad WAV is the one named, whichever
    check it fails."""

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate"])
    @pytest.mark.parametrize("first", ["short", "rate"])
    def test_first_bad_wav_named(self, two_bad_wavs, staged, tmp_path, command, first):
        # 320 samples are under one 400-sample mel window, which every command needs.
        manifest, named = two_bad_wavs(first, 320)
        _, _, ckpt = staged
        run = {"pretrain": lambda out: pretrain_ge2e(manifest, TINY, out),
               "finetune": lambda out: finetune_triplet(manifest, ckpt, TINY, out),
               "evaluate": lambda out: evaluate(manifest, ckpt, TINY, out)}[command]
        with pytest.raises((EmptyInputError, ValidationError),
                           match=f"^{re.escape(named)}: "):
            run(tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_finetune_names_clip_too_short_to_augment_before_later_rate(
            self, two_bad_wavs, staged, tmp_path):
        # 1600 samples hold a mel window but not augment.MIN_SAMPLES.
        manifest, named = two_bad_wavs("short", 1600)
        _, _, ckpt = staged
        with pytest.raises(EmptyInputError, match=f"^{re.escape(named)}: buffer of 1600"):
            finetune_triplet(manifest, ckpt, TINY, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestCorpusWer:
    def test_weighted_aggregate(self):
        value = corpus_wer(["the cat sat", "a b"], ["the bat", "a b"])
        assert value == pytest.approx(2.0 / 5.0, abs=1e-12)

    def test_empty_reference_line_counts_insertions(self):
        assert corpus_wer(["the cat", ""], ["the cat", "x y"]) == 1.0

    def test_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            corpus_wer(["a"], ["a", "b"])


class TestCli:
    def test_synth_corpus_command(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        ini = tmp_path / "c.ini"
        ini.write_text("[corpus]\nn_speakers = 2\nutterances_per_speaker = 2\n"
                       "duration_s = 0.5\n", encoding="utf-8")
        assert main(["synth-corpus", "--config", str(ini), "--out", str(out)]) == 0
        assert (out / "manifest.tsv").is_file()
        assert (out / "run_record.json").is_file()
        assert "manifest.tsv" in capsys.readouterr().out

    def test_augment_command(self, tmp_path):
        from dsrkit.audio import AudioBuffer, write_wav
        t = np.arange(16000) / 16000
        src = tmp_path / "tone.wav"
        write_wav(AudioBuffer(0.5 * np.sin(2 * np.pi * 220.0 * t)), src)
        dst = tmp_path / "shifted.wav"
        assert main(["augment", "--in", str(src), "--out", str(dst),
                     "--pitch-coeff", "0.5"]) == 0
        buf = read_wav(dst)
        spec = np.abs(np.fft.rfft(buf.samples))
        peak = np.argmax(spec) * buf.sample_rate / len(buf)
        assert abs(peak - 165.0) <= 3.0
        assert (tmp_path / "shifted.wav.run.json").is_file()

    def test_augment_short_clip_names_file(self, tmp_path, capsys):
        src = tmp_path / "blip.wav"
        t = np.arange(1600) / 16000  # 0.1 s, too short for the phase vocoder
        write_wav(AudioBuffer(0.5 * np.sin(2 * np.pi * 220.0 * t)), src)
        assert main(["augment", "--in", str(src), "--out", str(tmp_path / "o.wav"),
                     "--pitch-coeff", "0.5"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {src}: buffer of 1600 samples")

    def test_full_chain_via_cli(self, tmp_path, capsys):
        ini = tmp_path / "chain.ini"
        ini.write_text(
            "[corpus]\nn_speakers = 4\nutterances_per_speaker = 3\n"
            "duration_s = 0.5\n"
            "[ge2e]\nn_speakers = 2\nm_utterances = 2\niterations = 2\n"
            "[triplet]\nbatch_size = 4\niterations = 1\n",
            encoding="utf-8")
        corpus = tmp_path / "corpus"
        assert main(["synth-corpus", "--config", str(ini), "--out", str(corpus)]) == 0
        manifest = corpus / "manifest.tsv"
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", str(ini), "--manifest", str(manifest),
                     "--out", str(pre)]) == 0
        ft = tmp_path / "ft"
        assert main(["finetune", "--config", str(ini), "--manifest", str(manifest),
                     "--checkpoint", str(pre / "pretrained.ckpt"),
                     "--out", str(ft)]) == 0
        ev = tmp_path / "ev"
        assert main(["evaluate", "--config", str(ini), "--manifest", str(manifest),
                     "--checkpoint", str(ft / "finetuned.ckpt"),
                     "--out", str(ev)]) == 0
        assert (ev / "report.csv").is_file()
        capsys.readouterr()

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        code = main(["pretrain", "--manifest", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_manifest_is_one_error_line(self, tiny_corpus, tmp_path, capsys):
        _, records = tiny_corpus
        path = tmp_path / "latin1.tsv"
        path.write_bytes(f"{records[0].wav_path}\ts1\tfemale\tnone\tcaf\xe9\n"
                         .encode("latin-1"))
        with pytest.raises(ManifestError, match="not UTF-8"):
            load_manifest(path)
        assert main(["pretrain", "--manifest", str(path),
                     "--out", str(tmp_path / "pre")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0]

    def test_non_utf8_hypotheses_is_one_error_line(self, staged, tmp_path, capsys):
        manifest, records, ckpt = staged
        hyp = tmp_path / "hyp.txt"
        hyp.write_bytes(b"caf\xe9\n" * len(records))
        with pytest.raises(ValidationError, match="not UTF-8"):
            evaluate(manifest, ckpt, TINY, tmp_path / "ev", hypotheses_path=hyp)
        assert main(["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev2"), "--hyp", str(hyp)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0]

    @pytest.mark.parametrize("argv,ini", [
        ("synth-corpus --seed -1", ""),
        ("pretrain --seed 3000000000 --manifest {manifest}", ""),
        ("pretrain --manifest {manifest}", "[ge2e]\nn_speakers = 9\n"),
        ("finetune --manifest {manifest} --checkpoint {ckpt}", "[audio]\nn_mels = 24\n"),
        ("evaluate --manifest {manifest} --checkpoint {ckpt}", "[audio]\nn_mels = 24\n"),
        ("finetune --manifest {manifest} --checkpoint {ckpt}", "[encoder]\nhidden_dim = 64\n"),
        ("evaluate --manifest {manifest} --checkpoint {ckpt} --hyp {hyp}", ""),
        ("finetune --manifest {short} --checkpoint {ckpt}", ""),
        ("pretrain --manifest {blip}", "[ge2e]\nn_speakers = 2\nm_utterances = 2\n"),
        ("pretrain --manifest {manifest}",
         "[ge2e]\nn_speakers = 2\nm_utterances = 2\nlr = nan\n"),
        ("evaluate --manifest {conflict} --checkpoint {ckpt}", ""),
        ("synth-corpus", "[audio]\nsample_rate = 3000\n"),
        ("pretrain --manifest {manifest}", "[ge2e]\nn_speakers = 1\n"),
        ("finetune --manifest {severityless} --checkpoint {ckpt}", ""),
        ("evaluate --manifest {female_only} --checkpoint {ckpt}", ""),
        ("evaluate --manifest {untranscribed} --checkpoint {ckpt} --hyp {untranscribed_hyp}",
         ""),
    ], ids=["seed_negative", "seed_over_int32", "few_rich_speakers", "mel_width",
            "mel_width_evaluate", "hidden_dim", "hypothesis_count", "short_clips",
            "clips_under_one_window", "lr_nan", "conflicting_speaker", "aliasing_voice",
            "ge2e_one_speaker", "speaker_without_severity", "no_male_speaker",
            "untranscribed_wer"])
    def test_rejected_input_leaves_no_output(self, staged, short_manifest, blip_manifest,
                                             conflict_manifest, odd_manifests, tmp_path,
                                             capsys, argv, ini):
        manifest, records, ckpt = staged
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("one line\n" * (len(records) + 1), encoding="utf-8")
        config = tmp_path / "c.ini"
        config.write_text(ini, encoding="utf-8")
        out = tmp_path / "out"
        args = [a.format(manifest=manifest, ckpt=ckpt, hyp=hyp, short=short_manifest,
                         blip=blip_manifest, conflict=conflict_manifest, **odd_manifests)
                for a in argv.split()]
        assert main(args + ["--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])
