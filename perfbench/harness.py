"""One benchmark run: set-up, then interleaved rounds of every phase, then checks.

A round runs train, infer, dataset save/load, checkpoint and CLI phases in
that order, and the run repeats whole rounds until its time is up, so every
metric samples the same stretch of host time. Rates are total work over the
summed time of their phase. A traced run alternates untraced and traced
rounds: the traced ones give the per-layer metrics and the pairs give the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

import groupact.checkpoint as gcheckpoint
import groupact.cli as gcli
import groupact.config as gconfig
import groupact.evaluation as gevaluation
import groupact.model as gmodel
import groupact.scenes as gscenes
import groupact.training as gtraining
from groupact.errors import GroupActError
from groupact.seeding import INIT, rng_for
from groupact.tensor import MODE_INFER

import checks
import hostspeed
from spans import Tracer
from workloads import Workload

CHECK_SCENES = 8  # scenes per forward / late-mix check
GRAD_BATCH = 4  # scenes in the gradient spot check
CLI_TRAIN_FRACTION = 0.75
PROBES = 2  # reference jobs on each side of a measured stretch
PROBE_WINDOW_S = 0.1  # a stretch's slowdown is the median job this close to it
# Operations in one measured stretch: enough work that the reference jobs
# cost a few percent, little enough that the host speed holds still.
TRAIN_CHUNK = 10  # optimizer steps
EVAL_CHUNK = 100  # held-out scenes
LATENCY_BLOCK = 20  # one-scene requests
CHECKPOINT_BLOCK = 5  # save + load round trips
PHASES = ("train", "infer", "dataset", "checkpoint", "cli")
# What a user's process imports before it can run the program, timed in a
# fresh interpreter so that the benchmark's own modules do not count. The
# child then measures its own host slowdown: it may run on the other CPU,
# whose speed the parent's reference jobs do not see.
IMPORT_PROGRAM = ("from time import perf_counter\n"
                  "t0 = perf_counter()\n"
                  "import numpy, groupact.cli\n"
                  "t1 = perf_counter()\n"
                  "import hostspeed\n"
                  "print(t1 - t0, hostspeed.slowdown())\n")


class StepClock:
    """Optimizer proxy that times each training step.

    train() calls zero_grads() first and step() last in every iteration, so
    the gap is one step: forward, backward and update.
    """

    def __init__(self, optimizer):
        self.optimizer = optimizer
        self.steps: list[float] = []
        self._t0 = 0.0

    def zero_grads(self):
        self._t0 = perf_counter()
        self.optimizer.zero_grads()

    def step(self, lr):
        self.optimizer.step(lr)
        self.steps.append(perf_counter() - self._t0)


@dataclass
class State:
    """What set-up builds: data splits, the model and one clocked optimizer per trainee."""

    cfg: object
    dataset: object
    train: list
    held_out: list
    model: object
    trainees: dict  # branch ('' for a single model) -> (model, StepClock)
    iteration: int = 0


def build_state(cfg, w: Workload) -> State:
    ds = gscenes.generate(cfg.scene_config(), w.scenes)
    head = ds.config
    n_train = w.scenes - w.held_out
    tc = cfg.train_config()

    def branch_cfg(dim):
        return cfg.branch_config(dim, head.num_actions, head.num_activities)

    if cfg.fusion == gmodel.FUSION_NONE:
        model = gmodel.BranchModel(cfg.branch, branch_cfg(head.branch_dims[cfg.branch]),
                                   rng_for(cfg.seed, INIT))
        members = {"": model}
    elif cfg.fusion == gmodel.FUSION_EARLY_CONCAT:
        model = gmodel.EarlyFusionModel("concat", head.branch_dims,
                                        branch_cfg(max(head.branch_dims.values())),
                                        rng_for(cfg.seed, INIT), early_pe=cfg.early_pe)
        members = {"": model}
    elif cfg.fusion == gmodel.FUSION_LATE:
        members = {b: gmodel.BranchModel(b, branch_cfg(head.branch_dims[b]),
                                         rng_for(cfg.seed, f"{INIT}/{b}"))
                   for b in head.branch_names}
        model = gmodel.LateFusionModel(members, cfg.late_weights)
    else:
        raise ValueError(f"no workload uses fusion {cfg.fusion!r}")
    trainees = {b: (m, StepClock(gtraining.make_optimizer(tc, m.parameters())))
                for b, m in members.items()}
    return State(cfg, ds, ds.scenes[:n_train], ds.scenes[n_train:], model, trainees)


def optimizer_slots(state: State) -> list:
    out = []
    for b, (_, clock) in state.trainees.items():
        prefix = f"{b}/" if b else ""
        out += [(prefix + name, arr) for name, arr in clock.optimizer.state_tensors()]
    return out


@dataclass
class Tally:
    """Work done and time taken over the rounds of one run."""

    attempted: int = 0
    failed: int = 0
    train_scenes: int = 0
    infer_scenes: int = 0
    saved_scenes: int = 0
    loaded_scenes: int = 0
    dataset_bytes: int = 0
    checkpoint_bytes: int = 0
    # kind -> [(round, seconds, index of the measured stretch it was taken in)]
    timed: dict = field(default_factory=lambda: defaultdict(list))
    blocks: list = field(default_factory=list)  # (start, end) of every measured stretch
    probes: list = field(default_factory=list)  # (midpoint, seconds) of every reference job
    imports: list = field(default_factory=list)  # (seconds, slowdown) of every program import
    phase_s: dict = field(default_factory=dict)  # phase -> seconds in each round
    learned: float | None = None  # held-out group accuracy of the learnability check
    failures: list = field(default_factory=list)  # failed correctness checks
    errors: list = field(default_factory=list)  # errors raised by failed operations


class Run:
    def __init__(self, w: Workload, seed: int, work: Path, tracer: Tracer | None):
        self.w, self.seed, self.work, self.tracer = w, seed, work, tracer
        self.tally = Tally()
        self.rounds = 0
        self.traced_rounds = set()  # indices of the rounds run under the tracer
        self.cfg = workload_config(w, seed)
        self.cli_cfg = self._write_cli_config()

    # -- set-up ---------------------------------------------------------

    def _write_cli_config(self) -> Path:
        cli = self.work / "cli"
        n_train = int(round(self.w.cli_scenes * CLI_TRAIN_FRACTION))
        text = self.w.config + "\n".join([
            f"seed = {self.seed}",
            f"scene_count = {self.w.cli_scenes}",
            f"train_fraction = {CLI_TRAIN_FRACTION}",
            f"total_iterations = {self.w.cli_iterations}",
            f"train_data = {cli / 'data' / gcli.TRAIN_FILE}",
            f"test_data = {cli / 'data' / gcli.TEST_FILE}",
            f"scene_ids = {n_train}, {n_train + 1}",
        ]) + "\n"
        cli.mkdir(parents=True)
        path = cli / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def setup(self) -> None:
        """Import the program in a fresh interpreter and build the state,
        setup_repeats times each; both are timed as setup samples."""
        with self._phase("setup", self.tracer is not None):
            for _ in range(self.w.setup_repeats):
                self.tally.imports.append(_import_program())
                self.state = None
                gc.collect()
                self.state, seconds, stretch = self._measured(build_state, self.cfg, self.w)
                self._record("build", seconds, stretch)

    # -- measuring ------------------------------------------------------

    def _probe(self) -> None:
        for _ in range(PROBES):
            t0 = perf_counter()
            seconds = hostspeed.probe()
            self.tally.probes.append((t0 + seconds / 2, seconds))

    def _measured(self, fn, *args):
        """(result, seconds, stretch index) of one call between reference jobs."""
        self._probe()
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        self._probe()
        self.tally.blocks.append((t0, t1))
        return result, t1 - t0, len(self.tally.blocks) - 1

    def slowdowns(self) -> np.ndarray:
        """Host slowdown of each measured stretch: the median reference job
        within PROBE_WINDOW_S of it over the job's nominal time. Each vCPU
        switches between speeds about 1.6 times apart within tens of
        milliseconds, so the window pools only the few jobs nearest the
        stretch. With 0.5 s, whole blocks of one-scene requests ran slow
        while most jobs around them ran fast, and the p99 spread over five
        seeds was 0.13 and 0.10 on the train-* workloads, against 0.06 with
        0.1 s."""
        at, took = np.array(self.tally.probes).T
        order = np.argsort(at)
        at, took = at[order], took[order]
        out = np.empty(len(self.tally.blocks))
        for i, (t0, t1) in enumerate(self.tally.blocks):
            lo, hi = np.searchsorted(at, [t0 - PROBE_WINDOW_S, t1 + PROBE_WINDOW_S])
            out[i] = np.median(took[lo:hi]) / hostspeed.NOMINAL_S
        return out

    def _timed_ops(self, kind: str, ops: list, block: int, clock=perf_counter) -> None:
        """Time each op by clock; a block of ops shares the reference jobs around it."""
        for b in range(0, len(ops), block):
            def run_block(chunk=ops[b:b + block]):
                taken = []
                for op in chunk:
                    t0 = clock()
                    op()
                    taken.append(clock() - t0)
                return taken

            taken, _, stretch = self._measured(run_block)
            for seconds in taken:
                self._record(kind, seconds, stretch)

    def _record(self, kind: str, seconds: float, stretch: int) -> None:
        self.tally.timed[kind].append((self.rounds, seconds, stretch))

    def _phase(self, name, traced):
        return self.tracer.span(name) if traced else contextlib.nullcontext()

    def _attempt(self, ops: int, fn, *args):
        """Run one program operation; a GroupActError counts its ops as failed."""
        self.tally.attempted += ops
        try:
            return fn(*args)
        except GroupActError as exc:
            self.tally.failed += ops
            self.tally.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    # -- rounds ---------------------------------------------------------

    def round(self, traced: bool) -> None:
        if traced:
            self.traced_rounds.add(self.rounds)
        for name in PHASES:
            t0 = perf_counter()
            with self._phase(name, traced):
                getattr(self, "_" + name)()
            self.tally.phase_s.setdefault(name, []).append(perf_counter() - t0)
        self.rounds += 1

    def _train(self):
        st, t = self.state, self.tally
        for start in range(0, self.w.train_steps, TRAIN_CHUNK):
            steps = min(TRAIN_CHUNK, self.w.train_steps - start)
            tc = st.cfg.train_config(total_iterations=st.iteration + steps)
            for model, clock in st.trainees.values():
                _, seconds, stretch = self._measured(
                    self._attempt, steps, _train, model, st.train, tc, st.iteration, clock)
                self._record("train", seconds, stretch)
                for step_s in clock.steps:
                    self._record("step", step_s, stretch)
                clock.steps.clear()
                t.train_scenes += steps * tc.batch_size
            st.iteration += steps

    def _infer(self):
        st, t = self.state, self.tally
        head = st.dataset.config
        parts = []
        for start in range(0, len(st.held_out), EVAL_CHUNK):
            chunk = st.held_out[start:start + EVAL_CHUNK]
            report, seconds, stretch = self._measured(
                self._attempt, len(chunk), gevaluation.evaluate_model, st.model, chunk,
                head.num_actions, head.num_activities)
            self._record("infer", seconds, stretch)
            t.infer_scenes += len(chunk)
            parts.append(report)
        if all(parts):
            report = gevaluation.EvalReport(
                sum(p.n_scenes for p in parts), sum(p.group_confusion for p in parts),
                sum(p.action_confusion for p in parts))
            t.failures += checks.check_confusion_totals(report, st.held_out)
        # One-scene requests are timed by the thread's CPU time. They do no
        # I/O and take no lock, so their wall time adds only what the host
        # took away: on io-late-fusion a run with 4.3 s of host steal read a
        # wall-clock p99 twice its neighbours'. A wait added to this path
        # still shows in infer_scenes_per_s, which is wall time of the same
        # calls. The garbage the train and evaluation calls left is
        # collected first, so the requests' collector pauses do not depend
        # on it.
        n, start = len(st.held_out), len(t.timed["latency"])
        scenes = [st.held_out[(start + j) % n] for j in range(self.w.latency_samples)]
        gc.collect()
        self._timed_ops("latency", [functools.partial(self._attempt, 1, _one_scene, st.model,
                                                      scene) for scene in scenes],
                        LATENCY_BLOCK, clock=thread_time)

    def _dataset(self):
        st, t = self.state, self.tally
        subset = gscenes.SceneDataset(st.dataset.config, st.dataset.prototypes,
                                      st.dataset.scenes[:self.w.io_scenes])
        path = self.work / "dataset.scenes"
        _, seconds, stretch = self._measured(self._attempt, 1, gscenes.save_dataset, subset,
                                              path)
        self._record("save", seconds, stretch)
        t.saved_scenes += len(subset.scenes)
        t.dataset_bytes = path.stat().st_size
        for _ in range(self.w.loads_per_save):
            loaded, seconds, stretch = self._measured(self._attempt, 1, gscenes.load_dataset,
                                                       path)
            self._record("load", seconds, stretch)
            t.loaded_scenes += len(subset.scenes)
            if loaded is not None:
                t.failures += checks.check_dataset_round_trip(subset, loaded)

    def _checkpoint(self):
        st, t = self.state, self.tally
        path = self.work / "model.ckpt"
        slots = optimizer_slots(st)

        def trip():
            self._attempt(1, _save_model, path, st.model, st.iteration, slots)
            return self._attempt(1, gcheckpoint.load_model, path)

        self._timed_ops("checkpoint", [trip] * self.w.checkpoint_trips, CHECKPOINT_BLOCK)
        loaded = trip()  # untimed: the round trip the check reads
        if loaded is not None:
            if self.rounds == 0:  # later rounds store a longer iteration count
                t.checkpoint_bytes = path.stat().st_size
            t.failures += checks.check_checkpoint_round_trip(st.model, st.iteration,
                                                             dict(slots), loaded)

    def _cli(self):
        t = self.tally
        cli = self.cli_cfg.parent
        ckpt = str(cli / "run" / gcli.CHECKPOINT_FILE)
        commands = (
            ["generate", "--out", str(cli / "data")],
            ["train", "--out", str(cli / "run")],
            ["evaluate", "--out", str(cli / "eval"), "--checkpoint", ckpt],
            ["attention-dump", "--out", str(cli / "attention"), "--checkpoint", ckpt],
        )

        def round_trip():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return [gcli.main([cmd[0], "--config", str(self.cli_cfg)] + cmd[1:])
                        for cmd in commands]

        codes, seconds, stretch = self._measured(round_trip)
        self._record("cli", seconds, stretch)
        t.attempted += len(commands)
        t.failed += sum(code != 0 for code in codes)
        t.errors += [f"groupact {cmd[0]} exited {code}"
                     for cmd, code in zip(commands, codes) if code]
        if not any(codes):
            t.failures += _check_cli_report(cli, Path(ckpt))

    # -- after the rounds -----------------------------------------------

    def check_learnability(self) -> None:
        """Acceptance criterion 4 as the README quick start runs it: seed 0,
        one straight train() call of accuracy_budget steps, then held-out
        group accuracy at least accuracy_floor. Untimed.

        Its inputs do not follow the run's seed: criterion 4 names seed 0,
        and over seeds 0-9 two of ten straight runs end below 0.90.
        """
        w = self.w
        if w.accuracy_floor is None:
            return
        cfg = workload_config(w, 0)
        st = build_state(cfg, w)
        gtraining.train(st.model, st.train, cfg.train_config(total_iterations=w.accuracy_budget))
        head = st.dataset.config
        self.tally.learned = gevaluation.evaluate_model(
            st.model, st.held_out, head.num_actions, head.num_activities).group_accuracy
        if self.tally.learned < w.accuracy_floor:
            self.tally.failures.append(
                f"held-out group accuracy {self.tally.learned:.3f} after {w.accuracy_budget} "
                f"steps on seed 0, below {w.accuracy_floor}")

    def final_checks(self) -> None:
        st, t = self.state, self.tally
        pick = np.random.default_rng(self.seed)
        sample = [st.held_out[i] for i in pick.choice(len(st.held_out), CHECK_SCENES,
                                                      replace=False)]
        batch = [st.train[i] for i in pick.choice(len(st.train), GRAD_BATCH, replace=False)]
        t.failures += checks.check_forward(st.model, sample)
        t.failures += checks.check_gradients(st.model, batch, self.seed)
        if isinstance(st.model, gmodel.LateFusionModel):
            t.failures += checks.check_late_mix(st.model, sample)
        if st.dataset.config.rule == gscenes.RULE_MAJORITY:
            t.failures += checks.check_majority_labels(st.dataset.scenes)


def workload_config(w: Workload, seed: int):
    return gconfig.config_from_pairs(gconfig.parse_config_text(w.config + f"seed = {seed}\n"))


def _import_program() -> tuple:
    """(seconds, host slowdown) of importing numpy and the package in a fresh
    interpreter."""
    path = os.pathsep.join([str(Path(gcli.__file__).resolve().parents[1]),
                            str(Path(hostspeed.__file__).resolve().parent)])
    done = subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], check=True,
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    seconds, slowdown = map(float, done.stdout.split())
    return seconds, slowdown


def _train(model, scenes, tc, start, clock):
    return gtraining.train(model, scenes, tc, start_iteration=start, optimizer=clock)


def _one_scene(model, scene):
    """One request on the attention-dump path: view, forward, argmax."""
    return gmodel.predict(model.forward(gmodel.branch_inputs(scene), MODE_INFER))


def _save_model(path, model, iteration, slots):
    gcheckpoint.save_model(path, model, iteration=iteration, extra_tensors=slots)


def _check_cli_report(cli: Path, ckpt: Path) -> list:
    """The CLI's report re-parses and equals an evaluation of its own outputs."""
    report = gevaluation.read_report(cli / "eval")
    model, _, _ = gcheckpoint.load_model(ckpt)
    test = gscenes.load_dataset(cli / "data" / gcli.TEST_FILE)
    want = gevaluation.evaluate_model(model, test.scenes, test.config.num_actions,
                                      test.config.num_activities)
    fails = checks.check_confusion_totals(report, test.scenes)
    if report != want:
        fails.append("CLI evaluate report differs from evaluating its checkpoint")
    return fails


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, scale: bool) -> dict:
    """End-to-end metrics; with scale, each time is divided by the host slowdown
    the reference jobs measured right around it."""
    t = run.tally
    slow = run.slowdowns() if scale else np.ones(len(t.blocks))

    def samples(kind):
        return [s / slow[b] for _, s, b in t.timed[kind]]

    imports = [s / sd if scale else s for s, sd in t.imports]
    lat_ms = np.array(samples("latency")) * 1e3
    return {
        "setup_s": (statistics.median(imports) + statistics.median(samples("build")), "s"),
        "train_scenes_per_s": (t.train_scenes / sum(samples("train")), "scenes/s"),
        "train_step_ms_p50": (statistics.median(samples("step")) * 1e3, "ms"),
        "infer_scenes_per_s": (t.infer_scenes / sum(samples("infer")), "scenes/s"),
        "infer_scene_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "infer_scene_ms_p99": (float(np.percentile(lat_ms, 99)), "ms"),
        "dataset_save_scenes_per_s": (t.saved_scenes / sum(samples("save")), "scenes/s"),
        "dataset_load_scenes_per_s": (t.loaded_scenes / sum(samples("load")), "scenes/s"),
        "dataset_bytes_per_scene": (t.dataset_bytes / run.w.io_scenes, "B"),
        "checkpoint_round_trip_ms": (statistics.median(samples("checkpoint")) * 1e3, "ms"),
        "cli_round_trip_s": (statistics.median(samples("cli")), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def scaled_blocks(run: Run) -> list:
    """(start, end, slowdown) of every measured stretch, for scaling spans."""
    return [(t0, t1, sd) for (t0, t1), sd in zip(run.tally.blocks, run.slowdowns())]


def tracing_overhead_pct(run: Run) -> float:
    """Scaled time of the program's operations in traced over untraced rounds.

    The first round warms caches and runs untraced, so it is left out when
    later untraced rounds exist."""
    slow = run.slowdowns()
    work = defaultdict(float)
    for kind, samples in run.tally.timed.items():
        if kind not in ("step", "build"):  # steps lie inside train calls
            for r, s, b in samples:
                work[r] += s / slow[b]
    if run.rounds > 2:
        del work[0]
    traced = [v for r, v in work.items() if r in run.traced_rounds]
    untraced = [v for r, v in work.items() if r not in run.traced_rounds]
    return 100.0 * (statistics.mean(traced) / statistics.mean(untraced) - 1.0)


def per_layer(run: Run, tracer: Tracer) -> dict:
    """Per-layer metrics from the spans of the traced rounds, host-speed scaled."""
    w, rounds, s = run.w, len(run.traced_rounds), tracer.summary(scaled_blocks(run))
    steps = rounds * w.train_steps * len(run.state.trainees)
    train_scenes = steps * run.cfg.batch_size
    eval_scenes = rounds * len(run.state.held_out)
    infer_scenes = eval_scenes + rounds * w.latency_samples
    scenes = train_scenes + infer_scenes
    saved = rounds * w.io_scenes
    loaded = saved * w.loads_per_save
    both = ("train", "infer")
    forward_self = sum(s.self_time(name, both) for name in (
        "BranchModel.forward", "EarlyFusionModel.forward", "model.forward_branch"))

    def mean(name, phase):
        return s.total(name, phase) / max(s.count(name, phase), 1)

    train_total = s.total("training.train", "train")
    return {
        "tensor.tape_nodes_per_train_scene": (tracer.tape_nodes.get("train", 0) / train_scenes,
                                              "count"),
        "tensor.backward_ms_per_step": (s.total("Tensor.backward", "train") / steps * 1e3, "ms"),
        "posenc.apply_pe_us_per_scene": (s.total(".apply_pe", both) / scenes * 1e6, "us"),
        "transformer.encode_ms_per_train_scene": (s.total(".encode", "train") / train_scenes * 1e3,
                                                  "ms"),
        "transformer.encode_ms_per_infer_scene": (s.total(".encode", "infer") / infer_scenes * 1e3,
                                                  "ms"),
        "transformer.encode_calls_per_train_step": (s.count(".encode", "train") / steps, "count"),
        "model.forward_calls_per_train_step": (s.count("Model.forward", "train") / steps, "count"),
        "model.forward_self_us_per_scene": (forward_self / scenes * 1e6, "us"),
        "model.late_mix_us_per_scene": (s.self_time("LateFusionModel.forward", both)
                                        / infer_scenes * 1e6, "us"),
        "model.branch_inputs_us_per_scene": (s.total(".branch_inputs", both) / scenes * 1e6, "us"),
        "training.loss_us_per_scene": (s.total(".loss_terms", "train") / train_scenes * 1e6, "us"),
        "training.train_self_ms_per_step": (s.self_time("training.train", "train") / steps * 1e3,
                                            "ms"),
        "training.optimizer_step_ms": (s.total(".step", "train") / steps * 1e3, "ms"),
        "scenes.generate_ms_per_kscene": (s.total("scenes.generate", "setup")
                                          / (w.setup_repeats * w.scenes / 1e3) * 1e3, "ms"),
        "scenes.save_self_ms_per_kscene": (s.self_time("scenes.save_dataset", "dataset")
                                           / (saved / 1e3) * 1e3, "ms"),
        "scenes.load_ms_per_kscene": (s.total("scenes.load_dataset", "dataset")
                                      / (loaded / 1e3) * 1e3, "ms"),
        "fileio.atomic_write_ms_per_mb": (s.total(".atomic_write_text")
                                          / (s.written(".atomic_write_text") / 1e6) * 1e3, "ms"),
        "fileio.atomic_writes_per_cli_run": (s.count(".atomic_write_text", "cli") / rounds,
                                             "count"),
        "checkpoint.save_ms": (mean("checkpoint.save_model", "checkpoint") * 1e3, "ms"),
        "checkpoint.load_ms": (mean("checkpoint.load_model", "checkpoint") * 1e3, "ms"),
        "checkpoint.bytes": (run.tally.checkpoint_bytes, "B"),
        "evaluation.evaluate_self_us_per_scene": (s.self_time("evaluation.evaluate_model", "infer")
                                                  / eval_scenes * 1e6, "us"),
        "evaluation.write_report_ms": (mean("cli.write_report", "cli") * 1e3, "ms"),
        "config.load_run_config_ms": (mean("cli.load_run_config", "cli") * 1e3, "ms"),
        "cli.generate_s": (mean("cli.cmd_generate", "cli"), "s"),
        "cli.train_s": (mean("cli.cmd_train", "cli"), "s"),
        "cli.evaluate_s": (mean("cli.cmd_evaluate", "cli"), "s"),
        "cli.attention_dump_s": (mean("cli.cmd_attention_dump", "cli"), "s"),
        "trace.train_coverage_pct": (100.0 * s.child_time("training.train", "train") / train_total,
                                     "%"),
        "trace.overhead_pct": (tracing_overhead_pct(run), "%"),
    }


def run(w: Workload, seed: int, seconds: float, traced: bool, state_dir: Path) -> dict:
    """Set up, run whole rounds for `seconds`, check, and return the run's record."""
    state_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state_dir))
    tracer = Tracer() if traced else None
    raw = None
    try:
        run_ = Run(w, seed, work, tracer)
        with tracer.installed() if traced else contextlib.nullcontext():
            run_.setup()
        round_s = []
        deadline = perf_counter() + seconds
        # A traced run ends on a traced round, so its rounds pair up.
        while (run_.rounds < w.min_rounds or perf_counter() < deadline
               or (traced and run_.rounds % 2)):
            on = traced and run_.rounds % 2 == 1
            gc.collect()
            t0 = perf_counter()
            with tracer.installed() if on else contextlib.nullcontext():
                run_.round(on)
            round_s.append(perf_counter() - t0)
        if traced:
            metrics = per_layer(run_, tracer)
            spans_dir = state_dir / "spans"
            spans_dir.mkdir(exist_ok=True)
            tracer.write_csv(spans_dir / f"{w.name}-seed{seed}.csv")
            layers = tracer.summary(scaled_blocks(run_)).by_layer()
        else:
            raw = end_to_end(run_, scale=False)
            metrics = end_to_end(run_, scale=True)
            layers = None
        run_.check_learnability()
        run_.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    t = run_.tally
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "rounds": run_.rounds,
        "result": {
            "correct": not t.failures,
            "attempted": t.attempted,
            "failed": t.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "latency_samples": len(t.timed["latency"]),
        "train_steps": len(t.timed["step"]),
        "raw_metrics": raw and {k: v for k, (v, _) in raw.items()},
        "host_slowdown": float(np.median(run_.slowdowns())),
        "round_s": round_s,
        "phase_s": t.phase_s,
        "import_s": [s for s, _ in t.imports],
        "build_s": [s for _, s, _ in t.timed["build"]],
        "learnability_accuracy": t.learned,
        "layers": layers,
        "failures": t.failures,
        "errors": t.errors,
    }
