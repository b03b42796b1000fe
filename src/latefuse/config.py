"""Run configuration: INI-style key-value file plus command-line overrides.

Seeds are mandatory; nothing in the pipeline falls back to wall-clock
seeding. Flag overrides (``--set section.key=value``) win over file values.
Values are literal text: there is no ``%`` interpolation. Unparsable files,
malformed values and values outside the range the library accepts all raise
ConfigError naming the file or the section and key, and so does any
section or key that load_config does not read.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .synth import SynthSpec
from .tables import ColumnSchema

def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError("not a boolean")
    return states[text.lower()]


def _checked(parse, ok, expect: str):
    """`parse` followed by a range check; out-of-range values raise ValueError."""
    def parse_checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {expect}")
        return value
    return parse_checked


_count = _checked(int, lambda v: v >= 0, ">= 0")
_positive = _checked(int, lambda v: v >= 1, ">= 1")
_positive_list = _checked(_int_list, lambda v: v and min(v) >= 1,
                          "a non-empty list of positive integers")
_open_unit = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _pairs(text: str) -> tuple[tuple[int, float], ...]:
    """Parse "idx:value,idx:value" lists (planted shifts, correlation blocks)."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        left, right = tok.split(":")
        out.append((int(left), float(right)))
    return tuple(out)


@dataclass(frozen=True)
class RunConfig:
    modality_a: Path
    modality_b: Path
    schema: ColumnSchema
    out_dir: Path
    base_seed: int
    test_ids_file: Path | None
    test_benign: int
    test_malignant: int
    per_cohort: bool
    max_missing_fraction: float
    correlation_threshold: float
    alpha: float
    repeats: int
    lr_validation_fraction: float
    rf_validation_fraction: float
    delta_bic_stop: float
    rf_mtry: tuple[int, ...]
    rf_ntree: tuple[int, ...]
    synth: tuple[SynthSpec, SynthSpec] | None = None  # (modality a, modality b)


def load_config(path: str | Path, overrides: list[str] = ()) -> RunConfig:
    """Read the config file, apply ``section.key=value`` overrides, validate."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).splitlines())
        raise ConfigError(f"cannot parse config file {path}: {detail}") from None
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        section, option = (part.strip() for part in key.split(".", 1))
        try:
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, option, value)
        except (configparser.Error, ValueError) as exc:  # e.g. section DEFAULT
            raise ConfigError(f"invalid override {item!r}: {exc}") from None
    # [DEFAULT] keys reach every section, and no key is read in every section
    if parser.defaults():
        raise ConfigError(f"unknown config key [DEFAULT] {next(iter(parser.defaults()))}")

    read: set[tuple[str, str]] = set()

    def get(section: str, option: str, parse=str, fallback=None):
        """The option's text converted by `parse`; required unless a fallback is given."""
        read.add((section, option))
        if fallback is None and not parser.has_option(section, option):
            raise ConfigError(f"missing required config value [{section}] {option}")
        text = parser.get(section, option, fallback=fallback)
        try:
            return parse(text)
        except ValueError as exc:
            raise ConfigError(f"invalid config value [{section}] {option} = {text!r}: "
                              f"{exc}") from None

    base_seed = get("mrcv", "base_seed", _count)
    schema = ColumnSchema(
        id_column=get("schema", "id_column", fallback="id"),
        cohort_column=get("schema", "cohort_column", fallback="cohort"),
        label_column=get("schema", "label_column", fallback="label"),
    )
    synth = None
    if parser.has_section("synth"):
        seed = get("synth", "seed", _count)
        n_benign = get("synth", "n_benign", int)
        n_malignant = get("synth", "n_malignant", int)
        common = get("synth", "common_fraction", float, fallback=1.0)

        def spec_for(suffix: str) -> SynthSpec:
            return SynthSpec(
                n_benign=get("synth", f"n_benign_{suffix}", int, fallback=n_benign),
                n_malignant=get("synth", f"n_malignant_{suffix}", int, fallback=n_malignant),
                n_features=get("synth", f"n_features_{suffix}", int),
                planted=get("synth", f"planted_{suffix}", _pairs, fallback=""),
                correlation_blocks=get("synth", f"blocks_{suffix}", _pairs, fallback=""),
                common_fraction=common,
                seed=seed,
            )

        synth = spec_for("a"), spec_for("b")

    test_ids_file = get("split", "test_ids_file", fallback="").strip()
    cfg = RunConfig(
        modality_a=Path(get("inputs", "modality_a")),
        modality_b=Path(get("inputs", "modality_b")),
        schema=schema,
        out_dir=Path(get("output", "directory")),
        base_seed=base_seed,
        test_ids_file=Path(test_ids_file) if test_ids_file else None,
        test_benign=get("split", "test_benign", _count, fallback="20"),
        test_malignant=get("split", "test_malignant", _count, fallback="20"),
        per_cohort=get("preprocess", "per_cohort", _bool, fallback="false"),
        max_missing_fraction=get("preprocess", "max_missing_fraction",
                                 _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
                                 fallback="0.5"),
        correlation_threshold=get("preprocess", "correlation_threshold",
                                  _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                                  fallback="0.95"),
        alpha=get("univariate", "alpha", _open_unit, fallback="0.05"),
        repeats=get("mrcv", "repeats", _positive, fallback="100"),
        lr_validation_fraction=get("mrcv", "lr_validation_fraction", _open_unit,
                                   fallback="0.3"),
        rf_validation_fraction=get("mrcv", "rf_validation_fraction", _open_unit,
                                   fallback="0.2"),
        delta_bic_stop=get("mrcv", "delta_bic_stop",
                           _checked(float, lambda v: not math.isnan(v), "a number or +/-inf"),
                           fallback="2.0"),
        rf_mtry=get("mrcv", "rf_mtry", _positive_list, fallback="5,10,15,20,25,30"),
        # one tree has no importance spread, so its normalized importances are infinite
        rf_ntree=get("mrcv", "rf_ntree",
                     _checked(_int_list, lambda v: v and min(v) >= 2,
                              "a non-empty list of integers >= 2"),
                     fallback="100,500,1000,2000"),
        synth=synth,
    )
    # a key is known only if some read above asked for it
    for section in parser.sections():
        unread = [o for o in parser.options(section) if (section, o) not in read]
        if unread:
            raise ConfigError(f"unknown config key [{section}] {unread[0]}")
        if not any(s == section for s, _ in read):
            raise ConfigError(f"unknown config section [{section}]")
    return cfg
