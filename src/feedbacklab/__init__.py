"""Reviewer-feedback pipelines: labeling, training-data forging, and
generator evaluation, with every model call behind a stub-able client.

Package-level names load their submodule on first use (PEP 562), so
`import feedbacklab` and the commands that never compute with numpy do
not pay for importing it.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_OF = {
    name: module
    for module, names in {
        "config": "PipelineConfig config_hash load_config parse_config",
        "consensus": (
            "ConsensusSet MatchEdge MatchScore bootstrap_match_eval "
            "build_consensus build_stratum_table calibrate_threshold "
            "consensus_clusters decompose_novel_aligned distribution_weighted "
            "prefilter_pairs score_model"
        ),
        "core": (
            "AspectTag AuthorAction Decision FeedbackDimension FeedbackUnit "
            "PaperRecord ReviewThread Source Speaker Turn Validity "
            "canonical_json content_hash is_actionable make_unit_id "
            "success_indicator"
        ),
        "errors": (
            "ConfigError FeedbackLabError IngestError JudgeError "
            "JudgeFormatError PipelineError StatsError"
        ),
        "forge": (
            "CorruptionVariant build_corruption_bank build_dpo build_sft "
            "corrupt dedup_units verify_and_filter"
        ),
        "ingest": (
            "AnnotationRecord DatasetStore load_annotations load_corpus "
            "majority_vote save_corpus"
        ),
        "judge": (
            "EndpointConfig HttpBackend JudgeClient JudgeResponse "
            "PromptTemplate StubBackend cosine"
        ),
        "parse": "agreement_report parse_papers parse_thread",
        "report": "EvalReport ReportTable render_report",
        "stats": (
            "ContingencyTable cohen_kappa fisher_exact krippendorff_alpha "
            "kruskal_wallis mann_whitney_u pabak"
        ),
        "successeval": (
            "SuccessMode UnitEvaluation bootstrap_eval evaluate_unit "
            "success_rate"
        ),
    }.items()
    for name in names.split()
}

# Submodules stay reachable as attributes, as when this file imported them.
_SUBMODULES = frozenset(_SUBMODULE_OF.values()) | {"prompts"}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
