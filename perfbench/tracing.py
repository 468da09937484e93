"""Outside-in tracing of the cofinitary layers.

The tracer swaps each traced function for a wrapper in every ``cofinitary``
module that imported it (and patches the class attribute for methods), so
nothing under ``src/`` changes.  Each wrapper records a span (name, start,
end, parent) and adds the span's duration minus its children's to the
function's self time.  A few wrappers also feed counters that do not depend
on the machine.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from time import perf_counter_ns

# module -> traced functions; "Class.method" patches the class attribute.
LAYERS = {
    "words": [
        "hat_words", "reduced_words", "is_hat", "substitute",
        "good_decompose", "conjugate_decompose",
    ],
    "evaluation": ["eval_word", "fix_points", "eval_range", "Assignment.with_pair"],
    "poset": ["leq", "validate", "add_words", "new_fix_candidates", "strong_restrict"],
    "extension": [
        "domain_extend", "range_extend", "Extension.choose", "extend_with",
        "hit_search", "strong_reduction", "canonical_extension", "cover_extend",
        "mad_set_point",
    ],
    "builder": ["build", "verify_cofinitary", "verify_variant"],
    "sampling": ["sample_condition", "sample_extension"],
    "suslin": ["n_suslin_trial", "ffp_axiom_suite", "dom_meet", "loc_meet"],
    "templates": ["build_surrogate_template", "check_axioms", "rank", "closure"],
    "cli": ["main"],
}

# Counters the wrappers feed; the workload adds the report-derived ones.
WRAPPER_COUNTERS = [
    ("evaluation.letter_steps", "count", "lower"),
    ("poset.words_walked", "count", "lower"),
    ("poset.candidates_per_walk", "ratio", "higher"),
    ("poset.validate.words_checked", "count", "lower"),
    ("extension.choose.probes", "count", "lower"),
    ("extension.forbidden_per_cert", "count", "lower"),
    ("words.hat_words.words_out", "count", "lower"),
]
REPORT_COUNTERS = [
    ("builder.stages", "count", "lower"),
    ("builder.frozen_words", "count", "higher"),
    ("cli.report_bytes", "bytes", "lower"),
]
OVERHEAD = ("trace_overhead_ratio", "ratio", "lower")

# Spans this close to the root are always kept; deeper ones only up to the cap,
# since a build-wide run makes millions of is_hat calls.
KEEP_DEPTH = 1
SPAN_CAP = 50_000


def metric_name(module: str, target: str) -> str:
    return f"{module}.{target.rsplit('.', 1)[-1]}"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, targets in LAYERS.items():
        for target in targets:
            name = metric_name(module, target)
            out.append((f"{name}.calls", "count", "lower"))
            out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{module}.errors", "count", "lower"))
    return out + WRAPPER_COUNTERS + REPORT_COUNTERS + [OVERHEAD]


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self) -> None:
        self.calls = {}
        self.self_ns = {}
        self.errors = {module: 0 for module in LAYERS}
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.dropped_spans = 0
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.letter_steps = 0
        self.candidates = 0
        self.words_checked = 0
        self.probes = 0
        self.certificates = 0
        self.forbidden = 0
        self.hat_words_out = 0

    # -- hooks that turn return values into counters ------------------------

    def _after_hat_words(self, result, args, kwargs) -> None:
        self.hat_words_out += len(result)

    def _after_new_fix_candidates(self, result, args, kwargs) -> None:
        self.candidates += len(result)

    def _after_validate(self, result, args, kwargs) -> None:
        cond = args[0] if args else kwargs["c"]
        self.words_checked += len(cond.words)

    def _after_choose(self, result, args, kwargs) -> None:
        floor = args[1] if len(args) > 1 else kwargs.get("floor", 0)
        self.probes += result - max(floor, 0) + 1

    def _after_domain_extend(self, result, args, kwargs) -> None:
        # range_extend hands back the certificate of its inner domain_extend
        # call, so counting here sees every certificate exactly once.
        self.certificates += 1
        self.forbidden += len(result.certificate.forbidden)

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, name: str, module: str, fn, after):
        calls, self_ns, errors = self.calls, self.self_ns, self.errors
        stack, spans, ids = self._stack, self.spans, self._ids
        calls[name] = 0
        self_ns[name] = 0

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(stack) <= KEEP_DEPTH or len(spans) < SPAN_CAP:
                    spans.append((sid, name, start, end, parent[0] if parent else 0))
                else:
                    self.dropped_spans += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _count_letters(self, fn):
        def wrapper(*args, **kwargs):
            self.letter_steps += 1
            return fn(*args, **kwargs)

        return wrapper

    def _swap_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cofinitary" or mod_name.startswith("cofinitary.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        hooks = {
            "words.hat_words": self._after_hat_words,
            "poset.new_fix_candidates": self._after_new_fix_candidates,
            "poset.validate": self._after_validate,
            "extension.choose": self._after_choose,
            "extension.domain_extend": self._after_domain_extend,
        }
        for module, targets in LAYERS.items():
            mod = importlib.import_module(f"cofinitary.{module}")
            for target in targets:
                name = metric_name(module, target)
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._span_wrapper(name, module, original, hooks.get(name)))
                else:
                    original = getattr(mod, target)
                    self._swap_everywhere(
                        original, self._span_wrapper(name, module, original, hooks.get(name))
                    )
        evaluation = importlib.import_module("cofinitary.evaluation")
        self._swap_everywhere(
            evaluation.apply_letter, self._count_letters(evaluation.apply_letter)
        )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics gathered by the wrappers, keyed by metric name."""
        out: dict[str, float] = {}
        for module, targets in LAYERS.items():
            for target in targets:
                name = metric_name(module, target)
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            out[f"{module}.errors"] = self.errors[module]
        walks = self.calls["poset.new_fix_candidates"]
        out["evaluation.letter_steps"] = self.letter_steps
        out["poset.words_walked"] = walks
        out["poset.candidates_per_walk"] = self.candidates / walks if walks else 0.0
        out["poset.validate.words_checked"] = self.words_checked
        out["extension.choose.probes"] = self.probes
        out["extension.forbidden_per_cert"] = (
            self.forbidden / self.certificates if self.certificates else 0.0
        )
        out["words.hat_words.words_out"] = self.hat_words_out
        return out

    def span_dump(self) -> dict:
        return {
            "fields": ["id", "name", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
            "dropped_deep_spans": self.dropped_spans,
        }
