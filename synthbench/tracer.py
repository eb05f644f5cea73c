"""In-memory span tracing of calls into the synthfall modules.

The tracer wraps public functions at every module attribute that refers to
them, so a caller that bound a function by name (``harness.train``) sees the
wrapper as well as the defining module's own callers (``classifier.train``
calling ``loss_and_gradients``).  A function missing from the program is
skipped: its metrics read 0 and the run carries on.

Spans are kept as [name, start, end, parent] lists and counts in a dict,
across every traced pass of a run; both are aggregated or written out only
after the measurement ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MODULES = ("ingest", "kinematics", "windowing", "metrics", "classifier", "harness")

# Counter hooks read the call's arguments and result; they run after the span
# closes.  Each adds to ``counts`` and must tolerate a changed signature by
# raising one of _HOOK_ERRORS, which drops that call's counts.
_HOOK_ERRORS = (AttributeError, TypeError, ValueError, IndexError, KeyError)


def _lstm_step_flops(model, batch) -> float:
    """Matmul flops of one training step, computed from shapes: the forward
    pass (input and recurrent gate projections per step, two dense layers)
    plus twice that for the backward pass."""
    b, w, i = batch.shape
    h, d = model.hidden_size, model.dense_units
    forward = 2.0 * b * w * 4 * h * (i + h) + 2.0 * b * d * (h + 1)
    return 3.0 * forward


def _on_train(counts, args, kwargs, result):
    _, history = result
    counts["epochs_run"] += history.epochs()
    counts["useful_epochs"] += history.best_epoch + 1


def _on_loss_and_gradients(counts, args, kwargs, result):
    counts["train_steps"] += 1
    counts["step_flops"] += _lstm_step_flops(args[0], args[1])


def _on_coverage(counts, args, kwargs, result):
    n, m = len(args[0]), len(args[1])
    counts["distance_pairs"] += n * n + n * m


def _on_ks(counts, args, kwargs, result):
    counts["ks_values"] += result.n + result.m


def _on_read_accel_csv(counts, args, kwargs, result):
    counts["rows_parsed"] += len(result)


def _on_load_entry(counts, args, kwargs, result):
    counts["file_reads"] += 1
    counts.setdefault("cycle_files", set()).add(str(args[0].path))


def _on_write_accel_csv(counts, args, kwargs, result):
    counts["rows_written"] += len(args[0])


def _on_slide_windows(counts, args, kwargs, result):
    counts["windows_built"] += len(result)


# (module, function, counter hook) for every traced call.
TARGETS = (
    ("ingest", "read_accel_csv", _on_read_accel_csv),
    ("ingest", "write_accel_csv", _on_write_accel_csv),
    ("ingest", "read_motion_array", None),
    ("ingest", "catalog_dataset", None),
    ("ingest", "load_entry", _on_load_entry),
    ("kinematics", "extract_joint", None),
    ("kinematics", "differentiate_to_accel", None),
    ("windowing", "slide_windows", _on_slide_windows),
    ("windowing", "fit_scaler", None),
    ("windowing", "apply_scaler", None),
    ("windowing", "compose_training_mix", None),
    ("windowing", "split_subjects", None),
    ("metrics", "coverage", _on_coverage),
    ("metrics", "ks_two_sample", _on_ks),
    ("metrics", "histogram_density", None),
    ("metrics", "jsd", None),
    ("metrics", "classification_metrics", None),
    ("classifier", "init_model", None),
    ("classifier", "train", _on_train),
    ("classifier", "evaluate", None),
    ("classifier", "forward", None),
    ("classifier", "loss_and_gradients", _on_loss_and_gradients),
    ("harness", "run_experiment", None),
    ("harness", "run_alignment", None),
    ("harness", "emit_report", None),
)

PASS_SPAN = "pass"


class Tracer:
    """Records spans and counts while installed; restores the program on
    ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except _HOOK_ERRORS:
                    pass
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "synthfall" or k.startswith("synthfall.")]
        for mod_name, fn_name, hook in TARGETS:
            home = sys.modules.get(f"synthfall.{mod_name}")
            fn = getattr(home, fn_name, None)
            if not callable(fn):
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        """Restore the program and close the traced cycle: files count as
        distinct once per cycle over the workload's input groups."""
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()
        self.counts["distinct_files"] += len(self.counts.pop("cycle_files", ()))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counts: dict, passes: int) -> dict[str, float]:
    """Per-layer figures averaged over ``passes`` traced passes, keyed by
    metric name.  Ratios are taken over all traced passes together."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    module_s: dict[str, float] = defaultdict(float)
    unaccounted = 0.0
    for (name, _, _, _), s in zip(spans, own):
        if name == PASS_SPAN:
            unaccounted += s
            continue
        calls[name] += 1
        self_s[name] += s
        module_s[name.split(".", 1)[0]] += s

    steps = counts.get("train_steps", 0)
    epochs = counts.get("epochs_run", 0)
    reads = counts.get("file_reads", 0)
    per_pass = {
        "classifier.loss_and_gradients.calls": calls["classifier.loss_and_gradients"],
        "classifier.loss_and_gradients.s": self_s["classifier.loss_and_gradients"],
        "classifier.forward.calls": calls["classifier.forward"],
        "classifier.forward.s": self_s["classifier.forward"],
        "classifier.train.self_s": self_s["classifier.train"],
        "classifier.epochs_run": epochs,
        "metrics.coverage.s": self_s["metrics.coverage"],
        "metrics.coverage.distance_pairs": counts.get("distance_pairs", 0),
        "metrics.ks_two_sample.s": self_s["metrics.ks_two_sample"],
        "metrics.ks_two_sample.values": counts.get("ks_values", 0),
        "metrics.histogram_density.s": self_s["metrics.histogram_density"],
        "metrics.jsd.s": self_s["metrics.jsd"],
        "metrics.classification_metrics.s": self_s["metrics.classification_metrics"],
        "ingest.read_accel_csv.calls": calls["ingest.read_accel_csv"],
        "ingest.read_accel_csv.s": self_s["ingest.read_accel_csv"],
        "ingest.rows_parsed": counts.get("rows_parsed", 0),
        "ingest.load_entry.s": self_s["ingest.load_entry"],
        "ingest.write_accel_csv.s": self_s["ingest.write_accel_csv"],
        "ingest.rows_written": counts.get("rows_written", 0),
        "ingest.read_motion_array.s": self_s["ingest.read_motion_array"],
        "ingest.catalog_dataset.s": self_s["ingest.catalog_dataset"],
        "kinematics.extract_joint.s": self_s["kinematics.extract_joint"],
        "kinematics.differentiate_to_accel.s": self_s["kinematics.differentiate_to_accel"],
        "windowing.slide_windows.s": self_s["windowing.slide_windows"],
        "windowing.windows_built": counts.get("windows_built", 0),
        "windowing.fit_scaler.s": self_s["windowing.fit_scaler"],
        "windowing.apply_scaler.s": self_s["windowing.apply_scaler"],
        "windowing.compose_training_mix.s": self_s["windowing.compose_training_mix"],
        "windowing.split_subjects.s": self_s["windowing.split_subjects"],
        "harness.run_experiment.self_s": self_s["harness.run_experiment"],
        "harness.run_alignment.self_s": self_s["harness.run_alignment"],
        "harness.emit_report.s": self_s["harness.emit_report"],
        **{f"{module}.self_s": module_s[module] for module in MODULES},
        "trace.unaccounted_s": unaccounted,
        "trace.spans": len(spans),
    }
    out = {name: value / passes for name, value in per_pass.items()}
    out["classifier.useful_epoch_ratio"] = counts.get("useful_epochs", 0) / epochs if epochs else 0.0
    out["classifier.step_flops"] = counts.get("step_flops", 0.0) / steps if steps else 0.0
    out["ingest.distinct_file_ratio"] = counts.get("distinct_files", 0) / reads if reads else 0.0
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("step_flops"):
        return "flop"
    return "count"
