"""In-memory span tracing of lsner's layers, installed from outside the program.

Each traced function is replaced, at every name a caller looks it up by,
with a wrapper that records one span: name, start, end, parent span and the
benchmark phase it ran in. Self time is a span's duration minus the time its
child spans cover. Alongside the spans the tracer keeps a few exact counts
(tape nodes and embedding rows per training step, label encodes per
evaluated sentence, support size per draw); those are only taken during the
units a workload marks as counted, so they do not depend on how many units
fit in the run.
"""

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# span name -> every (module, attribute path) a caller resolves it through
TRACED = {
    "autodiff.backward": [("lsner.autodiff", "Tensor.backward")],
    "autodiff.take_rows": [("lsner.autodiff", "take_rows")],
    "matcher.train_stage": [("lsner.matcher", "train_stage")],
    "matcher.Adam.step": [("lsner.matcher", "Adam.step")],
    "matcher.score_tokens": [("lsner.matcher", "score_tokens")],
    "matcher.predict_tags": [("lsner.matcher", "predict_tags"),
                             ("lsner.evaluation", "predict_tags"),
                             ("lsner.cli", "predict_tags")],
    "numeric.token_cross_entropy": [("lsner.numeric", "token_cross_entropy"),
                                    ("lsner.matcher", "token_cross_entropy")],
    "numeric.apply_contextualizer": [("lsner.numeric", "apply_contextualizer"),
                                     ("lsner.encoders", "apply_contextualizer")],
    "encoders.encode_tokens": [("lsner.encoders", "encode_tokens"),
                               ("lsner.matcher", "encode_tokens")],
    "encoders.encode_labels": [("lsner.encoders", "encode_labels"),
                               ("lsner.matcher", "encode_labels")],
    "sampler.sample_support": [("lsner.sampler", "sample_support"),
                               ("lsner.cli", "sample_support")],
    "sampler.verify_kshot": [("lsner.sampler", "verify_kshot"),
                             ("lsner.cli", "verify_kshot")],
    "evaluation.evaluate_dataset": [("lsner.evaluation", "evaluate_dataset"),
                                    ("lsner.cli", "evaluate_dataset")],
    "evaluation.per_type_f1": [("lsner.evaluation", "per_type_f1")],
    "corpus.repair_bio": [("lsner.corpus", "repair_bio"),
                          ("lsner.evaluation", "repair_bio")],
    "corpus.extract_spans": [("lsner.corpus", "extract_spans"),
                             ("lsner.evaluation", "extract_spans"),
                             ("lsner.encoders", "extract_spans"),
                             ("lsner.sampler", "extract_spans")],
    "serialization.load_checkpoint": [("lsner.serialization", "load_checkpoint"),
                                      ("lsner.cli", "load_checkpoint")],
    # only the throwaway init inside a checkpoint load
    "serialization.init_model": [("lsner.serialization", "init_model")],
    "cli.cmd_predict": [("lsner.cli", "cmd_predict")],
}

CONTEXTUALIZERS = ("identity", "window-mixer", "self-attention")


def span_names():
    """Every span name the tracer reports, contextualizers split by kind."""
    out = []
    for name in TRACED:
        if name == "numeric.apply_contextualizer":
            out += [f"{name}.{kind}" for kind in CONTEXTUALIZERS]
        else:
            out.append(name)
    return out


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


class Tracer:
    """Spans and exact counts of one traced run; `install` starts recording."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self._stack = []  # [span index, time covered by children]
        self.phases = []
        self._phase = -1
        self._undo = []
        # exact counts, taken only while `counting`
        self.counting = False
        self.steps = 0
        self.tape_nodes = 0
        self.rows_frac = 0.0
        self.eval_sentences = 0
        self.eval_label_encodes = 0
        self.draws = 0
        self.support_sentences = 0
        self._step_nodes = 0
        self._step_rows = {}
        self._uncached_eval = 0

    # ------------------------------------------------------------- spans
    def _name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name):
        i = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.phase.append(self._phase)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._stack.append([i, 0.0])
        self.start.append(time.perf_counter())
        return i

    def _close(self):
        end = time.perf_counter()
        i, covered = self._stack.pop()
        dur = end - self.start[i]
        self.end[i] = end
        self.self_s[i] = dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    @contextlib.contextmanager
    def in_phase(self, name):
        prev = self._phase
        if name not in self.phases:
            self.phases.append(name)
        self._phase = self.phases.index(name)
        try:
            with self.span("bench." + name):
                yield
        finally:
            self._phase = prev

    @contextlib.contextmanager
    def unit(self, counted):
        """One repetition of a phase; only counted units feed the counts."""
        self.counting = counted
        self._step_nodes = 0
        self._step_rows = {}
        try:
            yield
        finally:
            self.counting = False

    def _wrap(self, label, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = None
            tracer._open(label(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
                if after is not None:
                    after(args, kwargs, result)
            return result
        return wrapper

    # ------------------------------------------------------------ hooks
    def _before_take_rows(self, args, kwargs):
        if self.counting and self._grad_enabled():
            table = _arg(args, kwargs, 0, "a")
            idx = np.asarray(_arg(args, kwargs, 1, "idx"), dtype=np.intp)
            self._step_rows.setdefault(id(table), []).append(idx)

    def _before_step(self, args, kwargs):
        if not self.counting:
            return
        self.steps += 1
        self.tape_nodes += self._step_nodes
        for group in args[0].groups:
            if group.name == "embedding":
                rows = self._step_rows.get(id(group.tensor), [])
                touched = len(np.unique(np.concatenate(rows))) if rows else 0
                self.rows_frac += touched / group.values.shape[0]
        self._step_nodes = 0
        self._step_rows = {}

    def _before_eval(self, args, kwargs):
        if self.counting and _arg(args, kwargs, 2, "cache") is None:
            self._uncached_eval += 1
            self.eval_sentences += len(_arg(args, kwargs, 1, "dataset").sentences)

    def _after_eval(self, args, kwargs, result):
        if self.counting and _arg(args, kwargs, 2, "cache") is None:
            self._uncached_eval -= 1

    def _before_encode_labels(self, args, kwargs):
        if self.counting and self._uncached_eval:
            self.eval_label_encodes += 1

    def _after_sample(self, args, kwargs, result):
        if self.counting and result is not None:
            self.draws += 1
            self.support_sentences += len(result.indices)

    # ------------------------------------------------------ install/undo
    def install(self):
        """Patch every traced name; `uninstall` restores the originals."""
        from lsner import autodiff
        self._grad_enabled = autodiff.grad_enabled
        hooks = {
            "autodiff.take_rows": (self._before_take_rows, None),
            "matcher.Adam.step": (self._before_step, None),
            "evaluation.evaluate_dataset": (self._before_eval, self._after_eval),
            "encoders.encode_labels": (self._before_encode_labels, None),
            "sampler.sample_support": (None, self._after_sample),
        }
        for name, targets in TRACED.items():
            if name == "numeric.apply_contextualizer":
                def label(args, kwargs, _base=name):
                    return f"{_base}.{_arg(args, kwargs, 2, 'kind')}"
            else:
                def label(args, kwargs, _name=name):
                    return _name
            before, after = hooks.get(name, (None, None))
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(label, original, before, after))
                self._undo.append((owner, attr, original))

        # every Tensor built while recording is one node of the tape
        tensor_init = autodiff.Tensor.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            if tracer.counting and autodiff.grad_enabled():
                tracer._step_nodes += 1
            tensor_init(obj, *args, **kwargs)
        autodiff.Tensor.__init__ = counting_init
        self._undo.append((autodiff.Tensor, "__init__", tensor_init))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- results
    def totals(self):
        """name -> (calls, self seconds) over every recorded span."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=np.frombuffer(self.self_s),
                             minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def phase_self_s(self, phase, names):
        """Summed self time of the named spans inside every run of `phase`."""
        wanted = [self._ids[n] for n in names if n in self._ids]
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        in_phase = np.frombuffer(self.phase, dtype=np.int32) == self.phases.index(phase)
        mask = in_phase & np.isin(ids, wanted)
        return float(np.frombuffer(self.self_s)[mask].sum())

    def phase_wall_s(self, phase):
        """Wall time of every run of `phase`."""
        i = self._ids.get("bench." + phase)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        mask = ids == i
        return float((np.frombuffer(self.end)[mask] - np.frombuffer(self.start)[mask]).sum())

    def save(self, path):
        np.savez(path, names=np.array(self.names), phases=np.array(self.phases),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 phase=np.frombuffer(self.phase, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 self_s=np.frombuffer(self.self_s))
