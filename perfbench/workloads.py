"""The benchmark's workloads: inputs made from a seed, the calls into dsrkit's
public API, and the checks on what each call wrote.

Every workload uses the acceptance ``EXPERIMENT`` voice geometry (female
240-260 Hz, male 130-150 Hz). dsrkit only ever receives the generated config
and corpus; the seed reaches it as ``RunConfig.seed``.
"""

import contextlib
import hashlib
import io
import math
import sys
import traceback
from pathlib import Path

GEOMETRY = dict(female_f0_min=240.0, female_f0_max=260.0,
                male_f0_min=130.0, male_f0_max=150.0)

# The acceptance run trains 300 GE2E and 300 triplet iterations. Both are cut
# by the same factor so fine-tuning still dominates, at a run length that
# leaves several runs in one measuring window.
ITERATION_CUT = 30


class CheckFailed(Exception):
    """An output of a step is missing, unreadable or out of range."""


class StepFailed(Exception):
    """A step raised or, for a CLI command, exited non-zero."""

    def __init__(self, step, detail):
        super().__init__(f"{step}: {detail}")
        self.step = step


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_tree(root):
    """SHA-256 of every file under root, keyed by its relative path."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _unit(name, value):
    _require(math.isfinite(value) and 0.0 <= value <= 1.0,
             f"{name} = {value!r} is not a finite value in [0, 1]")


def loss_column(csv_path, iterations):
    """The loss column of a metrics CSV, checked for length and finiteness."""
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    _require(lines[:1] == ["iteration,loss"], f"{csv_path}: bad header")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    _require(len(values) == iterations,
             f"{csv_path}: {len(values)} rows for {iterations} iterations")
    _require(all(math.isfinite(v) for v in values), f"{csv_path}: non-finite loss")
    return values


def reload_checkpoint(dsrkit, path, config):
    params = dsrkit.encoder.load_checkpoint(path)
    _require(params.config == config.encoder_config(),
             f"{path}: reloaded config {params.config} != {config.encoder_config()}")


def report_rows(csv_path):
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    _require(lines[:1] == ["metric,cohort,value,ci_low,ci_high"], f"{csv_path}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    return {(metric, cohort): float(value) for metric, cohort, value, *_ in rows}, rows


class Workload:
    """One closed-loop client. ``execute`` runs the steps in order and raises
    ``StepFailed`` at the first that fails; ``check_step`` checks what one
    step wrote and returns its quality values; ``step_of`` maps an artifact
    to the step that wrote it."""

    name = ""
    steps = ()

    def __init__(self, dsrkit, seed):
        self.dsrkit = dsrkit
        self.seed = seed
        self.config = None

    @contextlib.contextmanager
    def step(self, name):
        try:
            yield
        except StepFailed:
            raise
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            raise StepFailed(name, repr(exc)) from exc

    def training_utterances(self):
        """Encodings through forward, backward and update in one run."""
        c = self.config
        return (c.ge2e_n_speakers * c.ge2e_m_utterances * c.ge2e_iterations
                + 3 * c.batch_size * c.triplet_iterations)


class Experiment(Workload):
    """``run_gender_experiment``: the acceptance run, encoder-bound."""

    name = "experiment"
    steps = ("experiment",)

    def prepare(self, setup_dir):
        self.config = self.dsrkit.pipeline.RunConfig(
            **GEOMETRY, seed=self.seed,
            ge2e_iterations=300 // ITERATION_CUT,
            triplet_iterations=300 // ITERATION_CUT)

    def execute(self, out, tracer):
        with self.step("experiment"):
            self.results = self.dsrkit.pipeline.run_gender_experiment(self.config, out)

    def check_step(self, step, out):
        out, c, r = Path(out), self.config, self.results
        quality = dict(r)
        for key in ("eer_holdout_pretrained", "probe_male_rate_pretrained",
                    "eer_holdout_finetuned", "probe_female_rate_finetuned"):
            _unit(key, r[key])
        _require(r["eer_degradation"] == r["eer_holdout_finetuned"] - r["eer_holdout_pretrained"],
                 "eer_degradation is not finetuned minus pretrained EER")
        report, _ = report_rows(out / "experiment_report.csv")
        _require(report.get(("eer_holdout", "pretrained")) == r["eer_holdout_pretrained"]
                 and report.get(("probe_female_rate", "female_shifted_finetuned"))
                 == r["probe_female_rate_finetuned"] and len(report) == 5,
                 "experiment_report.csv does not match the returned results")
        reload_checkpoint(self.dsrkit, out / "pretrain" / "pretrained.ckpt", c)
        reload_checkpoint(self.dsrkit, out / "finetune" / "finetuned.ckpt", c)
        quality["ge2e_final_loss"] = loss_column(out / "pretrain" / "pretrain_metrics.csv",
                                            c.ge2e_iterations)[-1]
        quality["triplet_final_loss"] = loss_column(out / "finetune" / "finetune_metrics.csv",
                                               c.triplet_iterations)[-1]
        return quality

    def step_of(self, relpath):
        return "experiment"


class CliChain(Workload):
    """The five CLI commands in sequence on a 24-speaker corpus with few
    training iterations: file I/O, inference-only encoding (including
    single-utterance probes), augmentation and evaluation dominate."""

    name = "cli-chain"
    steps = ("synth-corpus", "augment", "pretrain", "finetune", "evaluate")
    PITCH_COEFF, TEMPO_COEFF = 0.5, 0.5
    OUTPUT_DIRS = {"synth-corpus": "corpus", "augment": "aug", "pretrain": "pretrain",
                   "finetune": "finetune", "evaluate": "eval"}

    def prepare(self, setup_dir):
        self.config = self.dsrkit.pipeline.RunConfig(
            **GEOMETRY, seed=self.seed, corpus_speakers=24, utterances_per_speaker=10,
            ge2e_iterations=5, triplet_iterations=2)
        c = self.config
        self.ini = Path(setup_dir) / "bench.ini"
        self.ini.write_text(
            f"[corpus]\nn_speakers = {c.corpus_speakers}\n"
            f"utterances_per_speaker = {c.utterances_per_speaker}\n"
            + "".join(f"{key} = {value}\n" for key, value in GEOMETRY.items())
            + f"[ge2e]\niterations = {c.ge2e_iterations}\n"
            f"[triplet]\niterations = {c.triplet_iterations}\n"
            f"[run]\nseed = {c.seed}\n", encoding="utf-8")
        loaded = self.dsrkit.pipeline.load_config(self.ini)
        if loaded != c:
            raise CheckFailed(f"{self.ini} loads as {loaded}, expected {c}")

    def commands(self, out):
        d = {step: str(Path(out) / sub) for step, sub in self.OUTPUT_DIRS.items()}
        manifest = f"{d['synth-corpus']}/manifest.tsv"
        return [
            ["synth-corpus", "--out", d["synth-corpus"]],
            ["augment", "--in", f"{d['synth-corpus']}/wavs/f01-00.wav",
             "--out", f"{d['augment']}/f01-00.wav", "--pitch-coeff", str(self.PITCH_COEFF),
             "--tempo-coeff", str(self.TEMPO_COEFF)],
            ["pretrain", "--manifest", manifest, "--out", d["pretrain"]],
            ["finetune", "--manifest", manifest, "--checkpoint",
             f"{d['pretrain']}/pretrained.ckpt", "--out", d["finetune"]],
            ["evaluate", "--manifest", manifest, "--checkpoint",
             f"{d['finetune']}/finetuned.ckpt", "--out", d["evaluate"]],
        ]

    def execute(self, out, tracer):
        for argv in self.commands(out):
            step = argv[0]
            stderr = io.StringIO()
            with self.step(step), tracer.span(f"cli.{step}"), \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = self.dsrkit.cli.main(argv[:1] + ["--config", str(self.ini)] + argv[1:])
            if code != 0:
                raise StepFailed(step, f"exit code {code}: {stderr.getvalue().strip()}")

    def check_step(self, step, out):
        out, c, dsrkit = Path(out), self.config, self.dsrkit
        if step == "synth-corpus":
            records = dsrkit.pipeline.load_manifest(out / "corpus" / "manifest.tsv")
            n = c.corpus_speakers * c.utterances_per_speaker
            _require(len(records) == n, f"manifest has {len(records)} records, expected {n}")
            return {"records": len(records)}
        if step == "augment":
            source = dsrkit.audio.read_wav(out / "corpus" / "wavs" / "f01-00.wav")
            stretched = dsrkit.audio.read_wav(out / "aug" / "f01-00.wav")
            _require(len(stretched) == round(len(source) / self.TEMPO_COEFF),
                     f"augmented wav has {len(stretched)} samples for {len(source)} in")
            return {"samples_out": len(stretched)}
        if step == "pretrain":
            reload_checkpoint(dsrkit, out / "pretrain" / "pretrained.ckpt", c)
            return {"ge2e_final_loss": loss_column(out / "pretrain" / "pretrain_metrics.csv",
                                              c.ge2e_iterations)[-1]}
        if step == "finetune":
            reload_checkpoint(dsrkit, out / "finetune" / "finetuned.ckpt", c)
            return {"triplet_final_loss": loss_column(out / "finetune" / "finetune_metrics.csv",
                                                 c.triplet_iterations)[-1]}
        report, rows = report_rows(out / "eval" / "report.csv")
        expected = [("eer", "all"), ("gender_probe_accuracy", "unmodified"),
                    ("gender_probe_accuracy", "female_pitch_shifted")]
        _require([tuple(r[:2]) for r in rows] == expected,
                 f"report.csv rows {[tuple(r[:2]) for r in rows]} != {expected}")
        for key, value in report.items():
            _unit(".".join(key), value)
        return {".".join(key): value for key, value in report.items()}

    def step_of(self, relpath):
        top = relpath.split("/", 1)[0]
        return next(step for step, sub in self.OUTPUT_DIRS.items() if sub == top)


class Ge2ePretrain(Workload):
    """``pretrain_ge2e`` alone on a corpus synthesised during set-up: the only
    workload where the GE2E loss and small-batch training are the main work."""

    name = "ge2e-pretrain"
    steps = ("pretrain",)
    ITERATIONS = 60

    def prepare(self, setup_dir):
        self.config = self.dsrkit.pipeline.RunConfig(
            **GEOMETRY, seed=self.seed, ge2e_iterations=self.ITERATIONS,
            triplet_iterations=0)
        self.manifest = self.dsrkit.pipeline.synth_corpus(
            self.config, Path(setup_dir) / "corpus")

    def training_utterances(self):
        c = self.config
        return c.ge2e_n_speakers * c.ge2e_m_utterances * c.ge2e_iterations

    def execute(self, out, tracer):
        with self.step("pretrain"):
            self.dsrkit.pipeline.pretrain_ge2e(self.manifest, self.config, out)

    def check_step(self, step, out):
        out = Path(out)
        reload_checkpoint(self.dsrkit, out / "pretrained.ckpt", self.config)
        return {"ge2e_final_loss": loss_column(out / "pretrain_metrics.csv",
                                          self.config.ge2e_iterations)[-1]}

    def step_of(self, relpath):
        return "pretrain"


WORKLOADS = {w.name: w for w in (Experiment, CliChain, Ge2ePretrain)}
