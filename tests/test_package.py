import importlib
import types

import pytest

import feedbacklab
from feedbacklab import config, successeval

# The names `feedbacklab` exported when it imported every submodule, and
# decompose_novel_aligned, which consensus lists in its __all__.
EXPORTS = [
    "AnnotationRecord", "AspectTag", "AuthorAction", "ConfigError",
    "ConsensusSet", "ContingencyTable", "CorruptionVariant", "DatasetStore",
    "Decision", "EndpointConfig", "EvalReport", "FeedbackDimension",
    "FeedbackLabError", "FeedbackUnit", "HttpBackend", "IngestError",
    "JudgeClient", "JudgeError", "JudgeFormatError", "JudgeResponse",
    "MatchEdge", "MatchScore", "PaperRecord", "PipelineConfig",
    "PipelineError", "PromptTemplate", "ReportTable", "ReviewThread",
    "Source", "Speaker", "StatsError", "StubBackend", "SuccessMode", "Turn",
    "UnitEvaluation", "Validity", "agreement_report", "bootstrap_eval",
    "bootstrap_match_eval", "build_consensus", "build_corruption_bank",
    "build_dpo", "build_sft", "build_stratum_table",
    "calibrate_threshold", "canonical_json", "cohen_kappa", "config_hash",
    "consensus_clusters", "content_hash", "corrupt", "cosine",
    "decompose_novel_aligned", "dedup_units", "distribution_weighted",
    "evaluate_unit", "fisher_exact",
    "is_actionable", "krippendorff_alpha", "kruskal_wallis",
    "load_annotations", "load_config", "load_corpus", "majority_vote",
    "make_unit_id", "mann_whitney_u", "pabak", "parse_config",
    "parse_papers", "parse_thread",
    "prefilter_pairs", "render_report", "save_corpus", "score_model",
    "success_indicator", "success_rate", "verify_and_filter",
]


def test_exports_are_pinned():
    assert sorted(feedbacklab.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(feedbacklab))


def test_each_export_is_its_submodules_object():
    for name in EXPORTS:
        module = importlib.import_module(
            f"feedbacklab.{feedbacklab._SUBMODULE_OF[name]}"
        )
        assert getattr(feedbacklab, name) is getattr(module, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        feedbacklab.no_such_name
    assert not hasattr(feedbacklab, "numpy")


def test_submodules_stay_importable_and_reachable():
    from feedbacklab import consensus

    assert isinstance(consensus, types.ModuleType)
    assert consensus.__name__ == "feedbacklab.consensus"
    assert feedbacklab.stats is importlib.import_module("feedbacklab.stats")
    assert feedbacklab.prompts.__name__ == "feedbacklab.prompts"


def test_quality_thresholds_live_in_config():
    assert successeval.QualityThresholds is config.QualityThresholds
    assert successeval.FILTER_DIMENSIONS is config.FILTER_DIMENSIONS
