"""Declarative pipeline configuration: one JSON file, dotted overrides.

Validation collects every problem before failing, and the config hash
covers the resolved semantic content (paths are resolved against the
config file's directory first, so spelling a path differently does not
mint a new run directory).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .core import canonical_json
from .errors import ConfigError
from .judge import EndpointConfig

JUDGE_TASKS = (
    "thread_parse",
    "corruption",
    "corruption_verify",
    "pair_match",
    "quality_score",
    "response_predict",
    "embedding",
)

MODES = ("stub", "live")

# Endpoint settings that change how fast results arrive, not what they
# are; they stay out of the config hash.
THROUGHPUT_FIELDS = ("requests_per_minute", "max_concurrency")

FILTER_DIMENSIONS = (
    "accuracy",
    "paper_specific_grounding",
    "constructive_tone",
    "prioritisation",
)


@dataclass(frozen=True)
class QualityThresholds:
    """Minimum scores for the four filtering dimensions.

    Defaults are the published mean judge scores over the human
    reference feedback; actionability deliberately has no threshold.
    """

    accuracy: float = 4.37
    paper_specific_grounding: float = 4.36
    constructive_tone: float = 4.62
    prioritisation: float = 4.44

    def __post_init__(self) -> None:
        for dim in FILTER_DIMENSIONS:
            value = getattr(self, dim)
            if not 1.0 <= value <= 5.0:
                raise ConfigError(f"threshold {dim}={value} outside [1,5]")


@dataclass(frozen=True)
class Thresholds:
    dedup: float = 0.5
    human_human: float = 0.55
    human_model: float = 0.45
    delta: int = 2
    match_rate_cutoff: float = 0.1
    quality: QualityThresholds = field(default_factory=QualityThresholds)

    def validate(self, errors: list[str]) -> None:
        for name in ("dedup", "human_human", "human_model"):
            value = getattr(self, name)
            if not -1.0 <= value <= 1.0:
                errors.append(f"thresholds.{name}={value} outside [-1,1]")
        if self.delta < 1:
            errors.append(f"thresholds.delta={self.delta} must be >= 1")
        if not 0.0 < self.match_rate_cutoff <= 1.0:
            errors.append(
                f"thresholds.match_rate_cutoff={self.match_rate_cutoff} "
                "outside (0,1]"
            )


@dataclass(frozen=True)
class Sampling:
    k: int = 5
    iterations: int = 1000
    seed: int = 0
    pairs_per_paper: int = 1
    corruption_pairs_per_paper: int = 1
    max_corruption_units_per_paper: int = 1

    def validate(self, errors: list[str]) -> None:
        if self.k < 1:
            errors.append(f"sampling.k={self.k} must be >= 1")
        if self.iterations < 2:
            errors.append(
                f"sampling.iterations={self.iterations} must be >= 2"
            )
        for name in (
            "pairs_per_paper",
            "corruption_pairs_per_paper",
            "max_corruption_units_per_paper",
        ):
            if getattr(self, name) < 0:
                errors.append(f"sampling.{name} must be >= 0")
        if self.seed < 0:
            errors.append(f"sampling.seed={self.seed} must be >= 0")


@dataclass(frozen=True)
class PathsConfig:
    corpus_root: str = ""
    runs_root: str = "runs"
    model_feedback: str = ""
    annotations: str = ""
    annotated_pairs: str = ""

    def resolved(self, base: Path) -> dict[str, str]:
        out = {}
        for f in fields(self):
            raw = getattr(self, f.name)
            out[f.name] = str((base / raw).resolve()) if raw else ""
        return out


@dataclass(frozen=True)
class Flags:
    macro: bool = False
    cluster_level: bool = False
    require_partner_success: bool = False
    chosen_successful_only: bool = False
    quality_filter_in_proxy_modes: bool = True


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "stub"
    split: str = "test"
    stub_fixture: str = ""
    base_dir: Path = Path(".")
    endpoints: Mapping[str, EndpointConfig] = field(default_factory=dict)
    thresholds: Thresholds = field(default_factory=Thresholds)
    sampling: Sampling = field(default_factory=Sampling)
    paths: PathsConfig = field(default_factory=PathsConfig)
    flags: Flags = field(default_factory=Flags)

    def endpoint(self, task: str) -> EndpointConfig:
        if task not in JUDGE_TASKS:
            raise ConfigError(f"unknown judge task {task!r}")
        return self.endpoints.get(task, EndpointConfig())

    def resolved_paths(self) -> dict[str, str]:
        return self.paths.resolved(self.base_dir)

    def path(self, name: str) -> Path:
        raw = self.resolved_paths()[name]
        if not raw:
            raise ConfigError(f"paths.{name} is required but not configured")
        return Path(raw)

    def stub_fixture_path(self) -> Path | None:
        if not self.stub_fixture:
            return None
        return (self.base_dir / self.stub_fixture).resolve()

    def as_dict(self) -> dict[str, Any]:
        """Semantic content only; used for hashing and display.

        Every field enters except base_dir, against which paths and
        stub_fixture enter resolved, and each endpoint's
        THROUGHPUT_FIELDS, which change no result: raising them reuses
        the run directory and its cache.
        """
        out = asdict(self)
        del out["base_dir"]
        for endpoint in out["endpoints"].values():
            for name in THROUGHPUT_FIELDS:
                del endpoint[name]
        fixture = self.stub_fixture_path()
        out["stub_fixture"] = str(fixture) if fixture else ""
        out["paths"] = self.resolved_paths()
        return out


def config_hash(config: PipelineConfig) -> str:
    material = canonical_json(config.as_dict())
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _apply_override(data: dict[str, Any], spec: str, errors: list[str]) -> None:
    if "=" not in spec:
        errors.append(f"override {spec!r} is not KEY=VALUE")
        return
    key, _, raw = spec.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            errors.append(f"override {key!r}: {part!r} is not an object")
            return
        node = nxt
    node[parts[-1]] = value


_TYPE_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
}


def _object(value: Any, name: str, errors: list[str]) -> dict[str, Any]:
    """value if it is a JSON object; otherwise {} and an error."""
    if isinstance(value, dict):
        return value
    errors.append(f"{name} must be an object")
    return {}


def _has_type_of(value: Any, default: Any) -> bool:
    """Whether value may stand where the field's default stands."""
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _build_section(cls, data: Any, name: str, errors: list[str]):
    """cls from a config object; an unknown key or a value of the wrong
    type is reported and left at its default. A field whose default is
    a dataclass is built the same way, one level down."""
    defaults = {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(cls)
    }
    data = _object(data, name, errors)
    kwargs = {}
    for key in sorted(data):
        if key not in defaults:
            errors.append(f"{name}.{key} is not a recognized setting")
        elif is_dataclass(defaults[key]):
            kwargs[key] = _build_section(
                type(defaults[key]), data[key], f"{name}.{key}", errors
            )
        elif not _has_type_of(data[key], defaults[key]):
            expected = _TYPE_NAMES[type(defaults[key])]
            errors.append(f"{name}.{key} must be {expected}")
        else:
            kwargs[key] = data[key]
    try:
        return cls(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        errors.append(f"{name}: {exc}")
        return cls()


def parse_config(
    data: Mapping[str, Any],
    base_dir: Path,
    overrides: Sequence[str] = (),
) -> PipelineConfig:
    """Build and validate a config, reporting all problems at once."""
    errors: list[str] = []
    merged: dict[str, Any] = json.loads(json.dumps(dict(data)))
    for spec in overrides:
        _apply_override(merged, spec, errors)

    known_top = {f.name for f in fields(PipelineConfig)} - {"base_dir"}
    for key in sorted(set(merged) - known_top):
        errors.append(f"unknown config key {key!r}")

    mode = merged.get("mode", "stub")
    if mode not in MODES:
        errors.append(f"mode={mode!r} must be one of {MODES}")
    split = merged.get("split", "test")
    stub_fixture = merged.get("stub_fixture", "")
    for key, value in (("split", split), ("stub_fixture", stub_fixture)):
        if not isinstance(value, str):
            errors.append(f"{key} must be a string")

    endpoints: dict[str, EndpointConfig] = {}
    for task, spec in _object(merged.get("endpoints", {}), "endpoints", errors).items():
        if task not in JUDGE_TASKS:
            errors.append(
                f"endpoints.{task} is not a judge task (expected one of "
                f"{', '.join(JUDGE_TASKS)})"
            )
            continue
        endpoints[task] = _build_section(
            EndpointConfig, spec, f"endpoints.{task}", errors
        )
    if mode == "live":
        for task in JUDGE_TASKS:
            endpoint = endpoints.get(task)
            if endpoint is None or not endpoint.base_url:
                errors.append(
                    f"live mode: judge task {task!r} has no endpoint base_url"
                )

    thresholds = _build_section(
        Thresholds, merged.get("thresholds", {}), "thresholds", errors
    )
    sampling = _build_section(
        Sampling, merged.get("sampling", {}), "sampling", errors
    )
    paths = _build_section(PathsConfig, merged.get("paths", {}), "paths", errors)
    flags = _build_section(Flags, merged.get("flags", {}), "flags", errors)

    thresholds.validate(errors)
    sampling.validate(errors)
    # A set of k units has at most k successes, so no real-label pair
    # could be delta apart.
    if thresholds.delta > sampling.k:
        errors.append(
            f"thresholds.delta={thresholds.delta} exceeds sampling.k={sampling.k}"
        )

    if mode == "stub" and stub_fixture and isinstance(stub_fixture, str):
        fixture_path = (base_dir / stub_fixture).resolve()
        if not fixture_path.exists():
            errors.append(f"stub_fixture {fixture_path} does not exist")

    if errors:
        raise ConfigError(
            "configuration invalid:\n" + "\n".join(f"  - {e}" for e in errors)
        )
    return PipelineConfig(
        mode=mode,
        split=split,
        stub_fixture=stub_fixture,
        base_dir=base_dir,
        endpoints=endpoints,
        thresholds=thresholds,
        sampling=sampling,
        paths=paths,
        flags=flags,
    )


def load_config(
    path: str | Path, overrides: Sequence[str] = ()
) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return parse_config(data, base_dir=path.parent.resolve(), overrides=overrides)
