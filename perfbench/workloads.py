"""The benchmark's workloads: one pipeline through lsner's public functions.

Every workload runs the same phases, so every run reports every end-to-end
metric; the workloads differ in corpus, model and how much of the run each
phase gets, so each one loads a different layer:

* ``fewshot-desk``: the paper's loop at desk scale (V~220, d=32,
  window-mixer). Per-op tape overhead, the contextualizer, the label encoder
  and the sampler dominate; the embedding gradient and Adam are small.
* ``train-20k``: the CLI default model (self-attention, identity labels,
  caps) at d=128 over a ~20k vocabulary, mostly prefinetuning. The dense
  V x d embedding backward and the full-table Adam step dominate.
* ``tag-20k``: the same model, mostly checkpoint loading, ``lsner predict``,
  per-sentence tagging and evaluation, all forward-only. Its short training
  phases exist so that every metric is reported.

Each phase first runs one untimed warm-up on a reduced input and one timed
first unit, in dependency order. Then short units of all phases interleave
until the run has lasted ``--seconds``, each phase getting its share of the
time. Units that draw inputs (a source chunk, a support set, a sampling
seed) take them in turn; the first prefinetune unit is the whole recipe,
whose model the later phases start from.
"""

import contextlib
import copy
import math
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from lsner import cli, evaluation, matcher, sampler, serialization
from lsner.corpus import Dataset, Sentence

from . import data
from .clock import ScaledClock
from .trace import span_names

F1_FLOOR = 0.90  # acceptance criterion 7
F1_DRAWS = 5
SETUP_REPEATS = 3

# phases whose time goes mostly to streaming V x d arrays at V=20k; their
# timings are scaled by the memory probe (see clock.py)
_V_BY_D_PHASES = ("prefinetune", "finetune", "finetune_ctx", "ckpt")

# phase -> share of --seconds
_DESK_SHARES = {"prefinetune": .25, "sample": .20, "finetune": .15,
                "finetune_ctx": .20, "eval": .08, "ckpt": .03,
                "predict_sentence": .04, "predict_cli": .05}
_TRAIN_SHARES = {"prefinetune": .50, "sample": .03, "finetune": .15,
                 "finetune_ctx": .17, "eval": .05, "ckpt": .04,
                 "predict_sentence": .03, "predict_cli": .03}
_TAG_SHARES = {"prefinetune": .12, "sample": .03, "finetune": .08,
               "finetune_ctx": .10, "eval": .20, "ckpt": .13,
               "predict_sentence": .14, "predict_cli": .20}

WORKLOADS = {
    "fewshot-desk": dict(inputs=data.desk_inputs, dim=32, source=2000, chunk=500,
                         test=500, pool=10000, pool_types=18, prefinetune_epochs=3,
                         finetune_epochs=200, sample_seeds=32, support_draws=F1_DRAWS,
                         f1_floor=F1_FLOOR, shares=_DESK_SHARES, memory_phases=()),
    "train-20k": dict(inputs=data.vocab_inputs, dim=128, fillers=20000,
                      source=200, chunk=50, target=500, test=200, predict=200,
                      prefinetune_epochs=1, finetune_epochs=4, sample_seeds=32,
                      support_draws=6, f1_floor=None, shares=_TRAIN_SHARES,
                      memory_phases=_V_BY_D_PHASES),
    "tag-20k": dict(inputs=data.vocab_inputs, dim=128, fillers=20000,
                    source=50, chunk=10, target=500, test=1000, predict=3000,
                    prefinetune_epochs=1, finetune_epochs=3, sample_seeds=32,
                    support_draws=6, f1_floor=None, shares=_TAG_SHARES,
                    memory_phases=_V_BY_D_PHASES),
}

# small sizes for the benchmark's own tests
TINY = {
    "fewshot-desk": dict(source=1000, chunk=250, test=60, pool=400, pool_types=6,
                         finetune_epochs=100, sample_seeds=2, support_draws=F1_DRAWS),
    "train-20k": dict(fillers=600, source=20, chunk=10, target=60, test=20, predict=20,
                      finetune_epochs=2, sample_seeds=2, support_draws=2),
    "tag-20k": dict(fillers=600, source=10, chunk=10, target=60, test=20, predict=40,
                    finetune_epochs=2, sample_seeds=2, support_draws=2),
}

END_TO_END = {
    "setup_s": "s",
    "prefinetune_tok_s": "tok/s",
    "finetune_tok_s": "tok/s",
    "finetune_ctx_tok_s": "tok/s",
    "sample_ms_p50": "ms",
    "eval_tok_s": "tok/s",
    "eval_cached_tok_s": "tok/s",
    "ckpt_load_s_p50": "s",
    "predict_tok_s": "tok/s",
    "predict_sentence_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

COUNTS = {
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.take_rows.rows_touched_frac": "ratio",
    "evaluation.label_encodes_per_sentence": "count",
    "sampler.support_sentences": "count",
    "serialization.checkpoint_bytes": "bytes",
    "prefinetune.backward_adam_share": "ratio",
    "trace_overhead": "ratio",
}


def per_layer_units():
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    return units


CHECKS = ("support_valid", "loss_finite", "test_f1_floor", "eval_cache_equal",
          "predict_cli_output", "ckpt_resave_identical")


# ------------------------------------------------------------------ checks

def support_valid(dataset, support, k):
    return sampler.verify_kshot(dataset, support, k).ok


def losses_finite(trace):
    return bool(trace) and all(math.isfinite(v) for v in trace)


def f1_at_floor(f1, floor):
    return f1 >= floor


def eval_results_equal(a, b):
    return a == b


def predict_output_matches(rc, text, token_sentences, expected_tags):
    """`lsner predict` output: exit 0, same tokens, same tags as in-process."""
    if rc != 0:
        return False
    blocks = [b for b in text.split("\n\n") if b.strip()]
    if len(blocks) != len(token_sentences):
        return False
    for block, tokens, tags in zip(blocks, token_sentences, expected_tags):
        rows = [line.split() for line in block.splitlines()]
        if [r[0] for r in rows] != tokens or [r[-1] for r in rows] != tags:
            return False
    return True


def files_identical(a, b):
    return Path(a).read_bytes() == Path(b).read_bytes()


# ------------------------------------------------------------------- stats

def tail_percentile(values):
    """Highest of p99.9/p99/p95/p90/p75/p50 with >= 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return None, None


class Run:
    """One workload run: set-up, phases, samples, checks and counts."""

    def __init__(self, workload, seed, workdir, tiny=False):
        self.cfg = dict(WORKLOADS[workload], **(TINY[workload] if tiny else {}))
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = None
        self.clock = ScaledClock(("interpreter", "memory") if self.cfg["memory_phases"]
                                 else ("interpreter",))
        self._factor = 1.0
        self.samples = {}  # metric -> timings scaled to the reference speed
        self.raw = {}      # metric -> the same timings unscaled
        self.unit_s = {}  # phase -> first unit's time at the reference speed
        self.attempted = 0
        self.failed = 0
        self.checks = {name: [0, 0] for name in CHECKS}
        self.info = {}

    # ----------------------------------------------------------- plumbing
    def check(self, name, ok):
        self.attempted += 1
        self.checks[name][0] += 1
        if not ok:
            self.failed += 1
            self.checks[name][1] += 1

    def rate(self, metric, work, seconds):
        """Record work per second, scaled to the reference machine speed."""
        self.raw.setdefault(metric, []).append(work / seconds)
        self.samples.setdefault(metric, []).append(work / (seconds * self._factor))

    def duration(self, metric, seconds, scale=1.0):
        """Record a duration (times `scale`), scaled to the reference speed."""
        self.raw.setdefault(metric, []).append(seconds * scale)
        self.samples.setdefault(metric, []).append(seconds * self._factor * scale)

    def _scope(self, phase=None, counted=None):
        """Tracer context for a phase or a unit; nothing when untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        if phase is not None:
            return self.tracer.in_phase(phase)
        return self.tracer.unit(counted)

    def _run_unit(self, phase, counted):
        self.clock.tick()
        self._factor = self.clock.factor(
            "memory" if phase in self.cfg["memory_phases"] else "interpreter")
        t0 = time.perf_counter()
        with self._scope(counted=counted):
            result = self._units[phase](self._reps[phase])
        dt = time.perf_counter() - t0
        self.attempted += 1
        self._reps[phase] += 1
        self._busy[phase] += dt
        self.unit_s.setdefault(phase, dt * self._factor)
        return result

    def _first(self, phase, warmup, unit):
        """Warm up once untimed, then run the phase's first, counted unit.

        `unit(i)` does the i-th repetition; the tracer's exact counts come
        from the first one only, so they do not depend on the run length.
        """
        self._units[phase] = unit
        self._reps[phase] = 0
        self._busy[phase] = 0.0
        with self._scope(phase):
            with self._scope(counted=False):
                warmup()
            return self._run_unit(phase, True)

    def _interleave(self, start, seconds):
        """Repeat units until `seconds` have passed since `start`.

        The next unit always goes to the phase furthest below its share of
        the elapsed time, so every phase samples the whole run and a
        slow spell of the machine hits all metrics alike.
        """
        shares = self.cfg["shares"]
        while (elapsed := time.perf_counter() - start) < seconds:
            phase = max(self._units, key=lambda p: shares[p] * elapsed - self._busy[p])
            with self._scope(phase):
                self._run_unit(phase, False)

    # -------------------------------------------------------------- set-up
    def setup(self):
        """Build the inputs SETUP_REPEATS times; keep the last, time each."""
        for _ in range(SETUP_REPEATS):
            self.clock.tick()
            self._factor = self.clock.factor()
            t0 = time.perf_counter()
            self.inputs = self.cfg["inputs"](self.seed, self.cfg,
                                             self.workdir / "input.conll")
            self.duration("setup_s", time.perf_counter() - t0)

    # -------------------------------------------------------------- phases
    def run_phases(self, seconds):
        """First units in dependency order, then interleaved repeats."""
        start = time.perf_counter()
        self._units, self._reps, self._busy, self.unit_s = {}, {}, {}, {}
        inp = self.inputs
        self.stage1 = self._first("prefinetune", *self._prefinetune())
        self._first("sample", *self._sample())
        supports = []
        for j in range(self.cfg["support_draws"]):
            support = sampler.sample_support(inp.target, 5,
                                             np.random.default_rng([self.seed, 5, j]))
            self.check("support_valid", support_valid(inp.target, support, 5))
            supports.append(sampler.support_dataset(inp.target, support))
        self.name_model = self._first("finetune", *self._finetune("name", supports))
        self._first("finetune_ctx", *self._finetune("contextual:BIOTAG_COLON_MASK", supports))
        result = self._first("eval", *self._eval())
        self.info["test_f1"] = result.overall.f1
        if self.cfg["f1_floor"] is not None:
            self._check_f1(result.overall.f1, supports[1:F1_DRAWS])
        loaded = self._first("ckpt", *self._ckpt())
        resaved = self.workdir / "resaved.ckpt"
        serialization.save_checkpoint(loaded, resaved)
        self.check("ckpt_resave_identical", files_identical(self.ckpt_path, resaved))
        self.expected_tags = self._first("predict_sentence", *self._predict_sentence())
        self._first("predict_cli", *self._predict_cli())
        self._interleave(start, seconds)

    def _train_unit(self, metric, model, dataset, config, stage, **kw):
        tokens = data.count_tokens(dataset.sentences)
        marks = [time.perf_counter()]
        trace = matcher.train_stage(model, dataset, config, stage=stage,
                                    trace_hook=lambda *_: marks.append(time.perf_counter()),
                                    **kw)
        for dt in np.diff(marks):
            self.rate(metric, tokens, dt)
        self.check("loss_finite", losses_finite(trace))
        for group in model.param_groups():
            group.zero_grad()  # the kept model needs no V x d gradient
        return model

    def _prefinetune(self):
        inp = self.inputs
        config = matcher.TrainingConfig(seed=self.seed,
                                        prefinetune_epochs=self.cfg["prefinetune_epochs"])
        small = Dataset(inp.source.name, inp.source.sentences[:10],
                        inp.source.taxonomy, role="source")

        def warmup():
            matcher.train_stage(copy.deepcopy(inp.stage0), small,
                                matcher.TrainingConfig(seed=self.seed, prefinetune_epochs=1),
                                stage="prefinetune")

        size = self.cfg["chunk"]
        chunks = [Dataset(inp.source.name, inp.source.sentences[at:at + size],
                          inp.source.taxonomy, role="source")
                  for at in range(0, len(inp.source.sentences), size)]
        one_epoch = matcher.TrainingConfig(seed=self.seed, prefinetune_epochs=1)

        def unit(i):
            if i == 0:
                return self._train_unit("prefinetune_tok_s", copy.deepcopy(inp.stage0),
                                        inp.source, config, "prefinetune")
            self._train_unit("prefinetune_tok_s", copy.deepcopy(inp.stage0),
                             chunks[(i - 1) % len(chunks)], one_epoch, "prefinetune")
        return warmup, unit

    def _sample(self):
        pool = self.inputs.pool

        def draw(j, record=True):
            start = time.perf_counter()
            for k in (1, 5):
                support = sampler.sample_support(pool, k,
                                                 np.random.default_rng([self.seed, j, k]))
                self.check("support_valid", support_valid(pool, support, k))
            if record:
                # ms per sample_support plus verify_kshot, averaged over K=1 and K=5
                self.duration("sample_ms_p50", time.perf_counter() - start, 1e3 / 2)

        def unit(i):
            draw(i % self.cfg["sample_seeds"])
        return (lambda: draw(self.cfg["sample_seeds"], record=False)), unit

    def _finetune(self, scheme, supports):
        """Unit i finetunes a copy of the stage-1 model on support draw i mod D.

        Cycling through the draws keeps the samples balanced across supports
        of different sizes.
        """
        phase = "finetune" if scheme == "name" else "finetune_ctx"
        config = matcher.TrainingConfig(seed=self.seed, scheme=scheme,
                                        finetune_epochs=self.cfg["finetune_epochs"])

        def warmup():
            support = supports[-1]
            matcher.train_stage(copy.deepcopy(self.stage1), support,
                                matcher.TrainingConfig(seed=self.seed, scheme=scheme,
                                                       finetune_epochs=2),
                                stage="finetune", support_sentences=support.sentences)

        def unit(i):
            support = supports[i % len(supports)]
            return self._train_unit(f"{phase}_tok_s", copy.deepcopy(self.stage1),
                                    support, config, "finetune",
                                    support_sentences=support.sentences)
        return warmup, unit

    def _eval(self):
        model = self.name_model
        test = self.inputs.test
        cache = matcher.build_label_cache(model)
        tokens = data.count_tokens(test.sentences)
        small = Dataset(test.name, test.sentences[:20], test.taxonomy)

        def warmup():
            evaluation.evaluate_dataset(model, small)
            evaluation.evaluate_dataset(model, small, cache=cache)

        def unit(i):
            t0 = time.perf_counter()
            plain = evaluation.evaluate_dataset(model, test)
            t1 = time.perf_counter()
            cached = evaluation.evaluate_dataset(model, test, cache=cache)
            t2 = time.perf_counter()
            self.rate("eval_tok_s", tokens, t1 - t0)
            self.rate("eval_cached_tok_s", tokens, t2 - t1)
            self.check("eval_cache_equal", eval_results_equal(plain, cached))
            return plain
        return warmup, unit

    def _check_f1(self, first_f1, other_supports):
        """Name-scheme 5-shot F1 floor, on the median over F1_DRAWS support draws.

        Acceptance criterion 7 puts its floor on a mean over ten separately
        pre-finetuned seeds. A run has one stage-1 model, and single 5-shot
        draws from it range from about 0.64 to 1.0, so the floor applies to
        the median over several draws, the first being the timed model's.
        """
        f1s = [first_f1]
        config = matcher.TrainingConfig(seed=self.seed,
                                        finetune_epochs=self.cfg["finetune_epochs"])
        for support in other_supports:
            model = copy.deepcopy(self.stage1)
            matcher.train_stage(model, support, config, stage="finetune",
                                support_sentences=support.sentences)
            f1s.append(evaluation.evaluate_dataset(model, self.inputs.test).overall.f1)
        self.info["test_f1_draws"] = [round(f, 4) for f in f1s]
        self.info["test_f1_median"] = statistics.median(f1s)
        self.check("test_f1_floor", f1_at_floor(statistics.median(f1s), self.cfg["f1_floor"]))

    def _ckpt(self):
        self.ckpt_path = self.workdir / "model.ckpt"
        serialization.save_checkpoint(self.name_model, self.ckpt_path)
        self.ckpt_bytes = self.ckpt_path.stat().st_size

        def unit(i):
            t0 = time.perf_counter()
            model = serialization.load_checkpoint(self.ckpt_path)
            self.duration("ckpt_load_s_p50", time.perf_counter() - t0)
            return model
        return (lambda: serialization.load_checkpoint(self.ckpt_path)), unit

    def _predict_sentence(self):
        model = serialization.load_checkpoint(self.ckpt_path)
        self.cache_path = self.workdir / "labels.bin"
        serialization.save_label_cache(matcher.build_label_cache(model), self.cache_path)
        cache = serialization.load_label_cache(self.cache_path)
        sentences = [Sentence(tokens, ["O"] * len(tokens))
                     for tokens in self.inputs.predict_tokens]

        def tag_all(batch, record):
            tags = []
            for sentence in batch:
                t0 = time.perf_counter()
                tags.append(matcher.predict_tags(model, sentence, cache=cache))
                if record:
                    self.duration("predict_sentence_ms", time.perf_counter() - t0, 1e3)
            return tags
        return (lambda: tag_all(sentences[:20], False)), (lambda i: tag_all(sentences, True))

    def _predict_cli(self):
        inp = self.inputs
        out_path = self.workdir / "predicted.conll"
        argv = ["predict", "--checkpoint", str(self.ckpt_path), "--cache",
                str(self.cache_path), inp.predict_path, str(out_path)]
        tokens = sum(len(t) for t in inp.predict_tokens)

        def unit(i):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            self.rate("predict_tok_s", tokens, time.perf_counter() - t0)
            self.check("predict_cli_output", predict_output_matches(
                rc, out_path.read_text(encoding="utf-8"), inp.predict_tokens,
                self.expected_tags))
        return (lambda: cli.main(argv)), unit

    # ------------------------------------------------------------- results
    def end_to_end(self):
        s = self.samples
        values = {
            "setup_s": statistics.median(s["setup_s"]),
            "sample_ms_p50": statistics.median(s["sample_ms_p50"]),
            "ckpt_load_s_p50": statistics.median(s["ckpt_load_s_p50"]),
            "predict_sentence_ms_p50": statistics.median(s["predict_sentence_ms"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for metric in ("prefinetune_tok_s", "finetune_tok_s", "finetune_ctx_tok_s",
                       "eval_tok_s", "eval_cached_tok_s", "predict_tok_s"):
            values[metric] = statistics.median(s[metric])
        return {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}

    def distributions(self):
        """metric -> (n, median, tail percentile, its value, raw median)."""
        out = {}
        for metric, values in sorted(self.samples.items()):
            p, v = tail_percentile(values)
            out[metric] = (len(values), statistics.median(values), p, v,
                           statistics.median(self.raw[metric]))
        return out

    def per_layer(self, overhead):
        t = self.tracer
        totals = t.totals()
        values = {}
        for name in span_names():
            calls, self_s = totals.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        prefinetune_wall = t.phase_wall_s("prefinetune")
        values.update({
            "autodiff.tape_nodes_per_step": t.tape_nodes / t.steps if t.steps else 0.0,
            "autodiff.take_rows.rows_touched_frac": t.rows_frac / t.steps if t.steps else 0.0,
            "evaluation.label_encodes_per_sentence":
                t.eval_label_encodes / t.eval_sentences if t.eval_sentences else 0.0,
            "sampler.support_sentences": t.support_sentences / t.draws if t.draws else 0.0,
            "serialization.checkpoint_bytes": self.ckpt_bytes,
            "prefinetune.backward_adam_share":
                t.phase_self_s("prefinetune", ["autodiff.backward", "matcher.Adam.step"])
                / prefinetune_wall if prefinetune_wall else 0.0,
            "trace_overhead": overhead,
        })
        return {m: {"value": values[m], "unit": u} for m, u in per_layer_units().items()}


def run_workload(workload, seed, seconds, trace, workdir, tiny=False, trace_path=None):
    """Run one workload; returns (result JSON object, Run)."""
    os.makedirs(workdir, exist_ok=True)
    run = Run(workload, seed, workdir, tiny=tiny)
    run.setup()
    if not trace:
        run.run_phases(seconds)
        metrics = run.end_to_end()
    else:
        # one untimed-budget pass without tracing gives the reference unit
        # times for the trace overhead; end-to-end metrics never come from here
        run.run_phases(0)
        reference = dict(run.unit_s)
        from .trace import Tracer
        run.tracer = Tracer()
        run.tracer.install()
        try:
            run.run_phases(seconds)
        finally:
            run.tracer.uninstall()
        overhead = sum(run.unit_s.values()) / sum(reference.values())
        metrics = run.per_layer(overhead)
        if trace_path is not None:
            run.tracer.save(trace_path)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, run
