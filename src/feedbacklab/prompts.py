"""Versioned registry of judge prompt templates.

Every template pairs instruction text with a response schema; the
version participates in cache keys, so editing a template invalidates
previously cached responses.
"""

from __future__ import annotations

from .core import AspectTag, AuthorAction, FeedbackDimension, Validity
from .judge import PromptTemplate

_VALIDITY = [v.value for v in Validity]
_ACTIONS = [a.value for a in AuthorAction]
_DIMENSIONS = [d.value for d in FeedbackDimension]
_ASPECTS = [a.value for a in AspectTag]

CORRUPTION_DIMENSIONS = (
    "generic",
    "vague",
    "inaccurate",
    "nonessential",
    "unsupportive",
)

_UNIT_SCHEMA = {
    "type": "object",
    "required": [
        "feedback_text",
        "author_response_text",
        "validity",
        "author_action",
        "aspects",
        "dimensions",
    ],
    "properties": {
        "feedback_text": {"type": "string", "minLength": 1},
        "author_response_text": {"type": ["string", "null"]},
        "validity": {"enum": _VALIDITY},
        "author_action": {"enum": _ACTIONS},
        "aspects": {"type": "array", "items": {"enum": _ASPECTS}},
        "dimensions": {"type": "array", "items": {"enum": _DIMENSIONS}},
    },
    "additionalProperties": False,
}

THREAD_PARSE = PromptTemplate(
    name="thread_parse",
    version="1",
    system_text=(
        "You analyze peer-review discussion threads between a reviewer and "
        "the authors of a research paper. You respond only with JSON."
    ),
    user_text=(
        "Paper title: {title}\n"
        "Abstract: {abstract}\n\n"
        "Discussion thread:\n{conversation}\n\n"
        "Split the reviewer's critique into self-contained feedback units. "
        "Rewrite each unit so it stands alone without unresolved references. "
        "Skip purely positive remarks but count how many you skipped.\n"
        "For each unit, find the authors' reply and label:\n"
        "- validity: one of " + ", ".join(_VALIDITY) + "\n"
        "- author_action: one of " + ", ".join(_ACTIONS) + "\n"
        "- dimensions: subset of " + ", ".join(_DIMENSIONS) + "\n"
        "- aspects: subset of " + ", ".join(_ASPECTS) + "\n"
        "- author_response_text: the relevant reply excerpt, or null\n\n"
        "Return a JSON object with keys 'units' (array of objects with keys "
        "feedback_text, author_response_text, validity, author_action, "
        "aspects, dimensions) and 'skipped_positive_count' (integer)."
    ),
    response_schema={
        "type": "object",
        "required": ["units", "skipped_positive_count"],
        "properties": {
            "units": {"type": "array", "items": _UNIT_SCHEMA},
            "skipped_positive_count": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
)

CORRUPTION = PromptTemplate(
    name="corruption",
    version="1",
    system_text=(
        "You rewrite paper feedback to make it worse along one controlled "
        "dimension at a time. You respond only with JSON."
    ),
    user_text=(
        "Paper title: {title}\n"
        "Abstract: {abstract}\n\n"
        "Original feedback unit:\n{feedback_text}\n\n"
        "Produce five rewrites of the feedback, each degrading exactly one "
        "dimension while leaving the others intact:\n"
        "- generic: strip paper-specific grounding so it could apply to any "
        "paper\n"
        "- vague: remove concrete, actionable detail\n"
        "- inaccurate: introduce a factual error about the paper\n"
        "- nonessential: shift focus to a trivial, low-impact concern\n"
        "- unsupportive: make the tone dismissive or hostile\n\n"
        "Return a JSON object with exactly the keys generic, vague, "
        "inaccurate, nonessential, unsupportive, each a string."
    ),
    response_schema={
        "type": "object",
        "required": list(CORRUPTION_DIMENSIONS),
        "properties": {
            d: {"type": "string", "minLength": 1} for d in CORRUPTION_DIMENSIONS
        },
        "additionalProperties": False,
    },
)

CORRUPTION_VERIFY = PromptTemplate(
    name="corruption_verify",
    version="1",
    system_text=(
        "You audit rewritten paper feedback for which quality dimension was "
        "degraded. You respond only with JSON."
    ),
    user_text=(
        "Paper title: {title}\n"
        "Abstract: {abstract}\n\n"
        "Original feedback unit:\n{feedback_text}\n\n"
        "Rewrites (JSON array, randomized order):\n{rewrites_json}\n\n"
        "For each rewrite, identify which single dimension was degraded "
        "(one of " + ", ".join(CORRUPTION_DIMENSIONS) + "), rate how strongly "
        "that dimension was degraded (1 = barely, 2 = clearly, 3 = severely) "
        "and how well the remaining dimensions were preserved (1 = badly "
        "damaged, 2 = mostly preserved, 3 = fully preserved).\n"
        "Return a JSON object with key 'results': an array with one entry "
        "per rewrite, each an object with keys rewrite_index (0-based "
        "position in the array above), predicted_dimension, "
        "target_degradation, collateral_preservation, reasoning."
    ),
    response_schema={
        "type": "object",
        "required": ["results"],
        "properties": {
            "results": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": [
                        "rewrite_index",
                        "predicted_dimension",
                        "target_degradation",
                        "collateral_preservation",
                    ],
                    "properties": {
                        "rewrite_index": {"type": "integer", "minimum": 0},
                        "predicted_dimension": {
                            "enum": list(CORRUPTION_DIMENSIONS)
                        },
                        "target_degradation": {
                            "type": "integer",
                            "minimum": 1,
                            "maximum": 3,
                        },
                        "collateral_preservation": {
                            "type": "integer",
                            "minimum": 1,
                            "maximum": 3,
                        },
                        "reasoning": {"type": "string"},
                    },
                    "additionalProperties": False,
                },
            }
        },
        "additionalProperties": False,
    },
)

PAIR_MATCH = PromptTemplate(
    name="pair_match",
    version="1",
    system_text=(
        "You decide whether two feedback units about the same paper raise "
        "the same point. You respond only with JSON."
    ),
    user_text=(
        "Paper abstract: {abstract}\n\n"
        "Feedback A:\n{left_text}\n\n"
        "Feedback B:\n{right_text}\n\n"
        "The two units match only if they agree on all four of: the part of "
        "the paper they target, the deficiency they identify, the quality "
        "dimension they appeal to, and the action they request.\n"
        "Return a JSON object with keys 'match' (the string \"1\" for a "
        "match, \"0\" otherwise) and 'explanation' (string)."
    ),
    response_schema={
        "type": "object",
        "required": ["match", "explanation"],
        "properties": {
            "match": {"enum": ["0", "1"]},
            "explanation": {"type": "string"},
        },
        "additionalProperties": False,
    },
)

_SCORE_ENTRY = {
    "type": "object",
    "required": ["score", "justification"],
    "properties": {
        "score": {"type": "integer", "minimum": 1, "maximum": 5},
        "justification": {"type": "string"},
    },
    "additionalProperties": False,
}

QUALITY_DIMENSIONS = (
    "accuracy",
    "prioritisation",
    "constructive_tone",
    "paper_specific_grounding",
    "actionability",
)

QUALITY_SCORE = PromptTemplate(
    name="quality_score",
    version="1",
    system_text=(
        "You grade the quality of one feedback unit about a research paper. "
        "You respond only with JSON."
    ),
    user_text=(
        "Paper title: {title}\n"
        "Abstract: {abstract}\n\n"
        "Feedback unit:\n{feedback_text}\n\n"
        "Score each dimension on an integer scale of 1 (worst) to 5 (best):\n"
        "- accuracy: are its claims about the paper correct?\n"
        "- prioritisation: does it target high-impact scientific issues over "
        "cosmetic ones?\n"
        "- constructive_tone: is it respectful and oriented toward "
        "improvement?\n"
        "- paper_specific_grounding: is it grounded in this paper's actual "
        "content?\n"
        "- actionability: could the authors act on it concretely?\n"
        "Return a JSON object with exactly those five keys, each an object "
        "with integer 'score' and string 'justification'."
    ),
    response_schema={
        "type": "object",
        "required": list(QUALITY_DIMENSIONS),
        "properties": {d: _SCORE_ENTRY for d in QUALITY_DIMENSIONS},
        "additionalProperties": False,
    },
)

RESPONSE_PREDICT = PromptTemplate(
    name="response_predict",
    version="1",
    system_text=(
        "You predict how a paper's authors would respond to one feedback "
        "unit. You respond only with JSON."
    ),
    user_text=(
        "Paper title: {title}\n"
        "Abstract: {abstract}\n\n"
        "Feedback unit:\n{feedback_text}\n\n"
        "Predict the authors' most likely reaction.\n"
        "Return a JSON object with keys 'validity' (one of "
        + ", ".join(_VALIDITY)
        + "), 'author_action' (one of "
        + ", ".join(_ACTIONS)
        + "), and optionally 'response_text' (a short predicted reply)."
    ),
    response_schema={
        "type": "object",
        "required": ["validity", "author_action"],
        "properties": {
            "validity": {"enum": _VALIDITY},
            "author_action": {"enum": _ACTIONS},
            "response_text": {"type": "string"},
        },
        "additionalProperties": False,
    },
)

REGISTRY: dict[str, PromptTemplate] = {
    t.name: t
    for t in (
        THREAD_PARSE,
        CORRUPTION,
        CORRUPTION_VERIFY,
        PAIR_MATCH,
        QUALITY_SCORE,
        RESPONSE_PREDICT,
    )
}


def prompt_versions() -> dict[str, str]:
    return {name: t.version for name, t in sorted(REGISTRY.items())}
