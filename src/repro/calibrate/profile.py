"""Versioned on-disk calibration profiles.

A :class:`CalibrationProfile` is the persisted output of ``repro calibrate
--fit``: the fitted :class:`~repro.storage.iostats.CostRates`, the base
rates and per-field multipliers they came from, the fit configuration, and
the before/after sweep summaries that justify shipping it.  The file
contract mirrors the committed ``BENCH_*.json`` records (PR 7):

* JSON is written canonically (sorted keys, two-space indent, trailing
  newline), so ``load`` followed by ``save`` is **byte-identical** — a
  committed profile never churns in diffs, and the round-trip is gated by
  ``tests/test_calibrate_smoke.py``.
* A corrupt, schema-drifted, or missing file raises :class:`ValueError`
  naming *that file* and the failure, which the CLI surfaces as a usage
  error (exit 2) instead of a traceback.
* A profile written by a newer format version is rejected rather than
  half-read.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..storage.iostats import CostRates
from .observations import RATE_FIELDS

PathLike = Union[str, Path]

#: Format version of the persisted profile; bump on breaking layout change.
PROFILE_VERSION = 1

#: Self-identification tag, so a profile handed a BENCH record (or vice
#: versa) fails loudly instead of half-parsing.
PROFILE_KIND = "repro-calibration-profile"


def rates_to_dict(rates: CostRates) -> Dict[str, float]:
    """``CostRates`` as a plain field->value dict, in declaration order."""
    return rates.as_dict()


def rates_from_dict(data: object, context: str) -> CostRates:
    """Parse a rates dict strictly (see :meth:`CostRates.from_mapping`),
    naming ``context`` in error messages."""
    try:
        return CostRates.from_mapping(data)
    except ValueError as exc:
        raise ValueError(f"field {context!r}: {exc}") from exc


@dataclass(frozen=True)
class CalibrationProfile:
    """A fitted set of cost rates plus the provenance that produced it."""

    #: The rates consumers apply (pinned fields keep their base values).
    rates: CostRates
    #: The rates the fit started from (normally the hand-set defaults).
    base_rates: CostRates
    #: field -> fitted/base multiplier for every rate field.
    multipliers: Dict[str, float] = field(default_factory=dict)
    label: str = "paper"
    created_at: str = ""
    #: Workload the profile was fitted on.
    scale: Optional[float] = None
    tests: Tuple[str, ...] = ()
    algorithms: Tuple[str, ...] = ()
    #: Fit configuration (see :mod:`repro.calibrate.fitter`).
    fit_fields: Tuple[str, ...] = ()
    ridge: float = 0.0
    bounds: Tuple[float, float] = (0.0, 0.0)
    iterations: int = 0
    n_observations: int = 0
    #: Sweep summaries under the base and fitted rates
    #: (``CalibrationReport.summary()`` shape).
    before: Dict[str, object] = field(default_factory=dict)
    after: Dict[str, object] = field(default_factory=dict)
    version: int = PROFILE_VERSION

    # -- identity ------------------------------------------------------------

    def digest(self) -> str:
        """Short content hash of the fitted rates — the part of the profile
        that changes behaviour.  Two profiles with identical rates are
        interchangeable for fingerprinting, whatever their provenance."""
        canonical = json.dumps(rates_to_dict(self.rates), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def identity(self) -> Dict[str, str]:
        """What a benchmark fingerprint embeds: label + rates digest."""
        return {"label": self.label, "digest": self.digest()}

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": PROFILE_KIND,
            "version": self.version,
            "label": self.label,
            "created_at": self.created_at,
            "scale": self.scale,
            "tests": list(self.tests),
            "algorithms": list(self.algorithms),
            "fit": {
                "fields": list(self.fit_fields),
                "ridge": self.ridge,
                "bounds": list(self.bounds),
                "iterations": self.iterations,
                "n_observations": self.n_observations,
            },
            "base_rates": rates_to_dict(self.base_rates),
            "rates": rates_to_dict(self.rates),
            "multipliers": {
                f: self.multipliers.get(f, 1.0) for f in RATE_FIELDS
            },
            "before": self.before,
            "after": self.after,
        }

    @classmethod
    def from_dict(cls, data: object) -> "CalibrationProfile":
        """Parse and validate a profile dict; :class:`ValueError` on drift."""
        if not isinstance(data, dict):
            raise ValueError(
                f"profile must be a JSON object, got {type(data).__name__}"
            )
        kind = data.get("kind")
        if kind != PROFILE_KIND:
            raise ValueError(
                f"not a calibration profile (kind={kind!r}, expected "
                f"{PROFILE_KIND!r})"
            )
        version = data.get("version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise ValueError(
                f"field 'version' must be an integer, got "
                f"{type(version).__name__}"
            )
        if version > PROFILE_VERSION:
            raise ValueError(
                f"profile version {version} is newer than supported "
                f"({PROFILE_VERSION}); refusing to mis-apply"
            )
        fit = data.get("fit", {})
        if not isinstance(fit, dict):
            raise ValueError(
                f"field 'fit' must be an object, got {type(fit).__name__}"
            )
        scale = data.get("scale")
        if scale is not None and (
            isinstance(scale, bool) or not isinstance(scale, (int, float))
        ):
            raise ValueError(
                f"field 'scale' must be a number or null, got "
                f"{type(scale).__name__}"
            )
        multipliers = data.get("multipliers", {})
        if not isinstance(multipliers, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in multipliers.values()
        ):
            raise ValueError("field 'multipliers' must map fields to numbers")
        bounds = fit.get("bounds", [0.0, 0.0])
        if (
            not isinstance(bounds, list)
            or len(bounds) != 2
            or not all(isinstance(b, (int, float)) for b in bounds)
        ):
            raise ValueError("field 'fit.bounds' must be a two-number list")
        return cls(
            rates=rates_from_dict(data.get("rates"), "rates"),
            base_rates=rates_from_dict(data.get("base_rates"), "base_rates"),
            multipliers={str(k): float(v) for k, v in multipliers.items()},
            label=_typed_str(data, "label", "paper"),
            created_at=_typed_str(data, "created_at", ""),
            scale=float(scale) if scale is not None else None,
            tests=_str_tuple(data, "tests"),
            algorithms=_str_tuple(data, "algorithms"),
            fit_fields=_str_tuple(fit, "fields"),
            ridge=_typed_number(fit, "fit.ridge", "ridge", 0.0),
            bounds=(float(bounds[0]), float(bounds[1])),
            iterations=int(_typed_number(fit, "fit.iterations", "iterations", 0)),
            n_observations=int(
                _typed_number(fit, "fit.n_observations", "n_observations", 0)
            ),
            before=_typed_dict(data, "before"),
            after=_typed_dict(data, "after"),
            version=version,
        )

    def save(self, path: PathLike) -> Path:
        """Write the profile as canonical JSON; returns the path written."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, path: PathLike) -> "CalibrationProfile":
        """Load and validate a profile file.

        Every failure mode — missing file, unreadable JSON, drifted or
        version-mismatched layout — raises :class:`ValueError` naming the
        file, so callers need exactly one except clause.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise ValueError(
                f"no calibration profile at {path}; write one with "
                f"`repro calibrate --fit --profile {path}`"
            ) from None
        except OSError as exc:
            raise ValueError(f"unreadable calibration profile {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(
                f"calibration profile {path} is not valid JSON: {exc}"
            ) from exc
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"calibration profile {path}: {exc}") from exc


def _typed_str(data: dict, key: str, default: str) -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ValueError(
            f"field {key!r} must be a string, got {type(value).__name__}"
        )
    return value


def _typed_number(data: dict, label: str, key: str, default: float) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"field {label!r} must be a number, got {type(value).__name__}"
        )
    return float(value)


def _typed_dict(data: dict, key: str) -> Dict[str, object]:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(
            f"field {key!r} must be an object, got {type(value).__name__}"
        )
    return value


def _str_tuple(data: dict, key: str) -> Tuple[str, ...]:
    value = data.get(key, [])
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(f"field {key!r} must be a list of strings")
    return tuple(value)
