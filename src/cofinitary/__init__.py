"""Desk-scale combinatorics of group-adding forcing posets.

The public names below are resolved on first access (PEP 562), so
``import cofinitary`` loads no layer; ``cofinitary.leq`` imports
``cofinitary.poset`` and hands back its ``leq``.  Nothing is cached here:
each access reads the submodule's current attribute.

A layer calls the functions that perfbench/tracing.py traces in another
layer through that module (``poset.leq(...)``), never through a name bound
at import: a layer first imported while a tracer runs would keep the
tracer's wrapper.
"""

# submodule -> the public names it defines
_EXPORTS = {
    "words": (
        "EMPTY_WORD", "GoodDecomposition", "Letter", "NotGood", "Word", "conjugate_decompose",
        "format_word", "good_decompose", "hat_words", "invert", "is_hat", "occurrences",
        "parse_word", "power", "reduce_letters", "reduced_words", "single", "substitute",
    ),
    "evaluation": (
        "Assignment", "FixResult", "GroundPermutation", "PartialMap", "eval_domain",
        "eval_range", "eval_word", "fix_points", "zshift",
    ),
    "poset": (
        "Condition", "Incompatible", "PosetMode", "add_words", "leq", "merge_disjoint", "restrict",
        "strong_restrict", "validate",
    ),
    "extension": (
        "CertificateError", "ContractViolation", "ExtensionCertificate", "canonical_extension",
        "cover_extend", "domain_extend", "extend_with", "hit_search", "hit_threshold",
        "mad_set_point", "range_extend", "strong_reduction",
    ),
    "builder": (
        "BuildError", "BuildReport", "DenseGoal", "build", "hit_goal", "verify_cofinitary",
        "verify_variant",
    ),
    "templates": (
        "AxiomViolation", "SurrogateParams", "TemplateOrder", "build_surrogate_template",
        "check_axioms", "closure", "depth", "rank", "restrict_template", "template_from_parts",
    ),
    "suslin": (
        "Undecidable", "dom_meet", "ffp_axiom_suite", "loc_meet", "n_suslin_trial",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
