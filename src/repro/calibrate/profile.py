"""Versioned on-disk calibration profiles.

A :class:`CalibrationProfile` is the persisted output of ``repro calibrate
--fit``: the fitted :class:`~repro.storage.iostats.CostRates`, the base
rates and per-field multipliers they came from, the fit configuration, and
the before/after sweep summaries that justify shipping it.

JSON is written canonically (sorted keys, two-space indent, trailing
newline), so ``load`` followed by ``save`` is **byte-identical** — a
committed profile never churns in diffs, and the round-trip is gated by
``tests/test_calibrate_smoke.py``.  Loading follows docs/architecture.md
§"Files from outside the program"; a profile of a newer format version is
rejected rather than half-read.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..document import DocumentError, PathLike, field_of, load_json
from ..storage.iostats import CostRates
from .observations import RATE_FIELDS

#: Format version of the persisted profile; bump on breaking layout change.
PROFILE_VERSION = 1

#: Self-identification tag, so a profile handed a BENCH record (or vice
#: versa) fails loudly instead of half-parsing.
PROFILE_KIND = "repro-calibration-profile"


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
        canonical = json.dumps(self.rates.as_dict(), sort_keys=True)
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
            "base_rates": self.base_rates.as_dict(),
            "rates": self.rates.as_dict(),
            "multipliers": {
                f: self.multipliers.get(f, 1.0) for f in RATE_FIELDS
            },
            "before": self.before,
            "after": self.after,
        }

    @classmethod
    def from_dict(cls, data: object) -> "CalibrationProfile":
        """Parse and type a profile dict (docs/architecture.md §"Files from
        outside the program"); :class:`DocumentError` on drift."""
        kind = field_of(data, "kind", (str, None), None)
        if kind != PROFILE_KIND:
            raise DocumentError(
                f"not a calibration profile (kind={kind!r}, expected "
                f"{PROFILE_KIND!r})"
            )
        version = field_of(data, "version", int)
        if version > PROFILE_VERSION:
            raise DocumentError(
                f"profile version {version} is newer than supported "
                f"({PROFILE_VERSION}); refusing to mis-apply"
            )
        fit = field_of(data, "fit", dict, {})
        bounds = field_of(fit, "bounds", [float], [0.0, 0.0], "fit")
        if len(bounds) != 2:
            raise DocumentError("field 'fit.bounds' must be a two-number list")
        scale = field_of(data, "scale", (float, None), None)
        multipliers = field_of(data, "multipliers", dict, {})
        return cls(
            rates=CostRates.from_mapping(field_of(data, "rates", dict)),
            base_rates=CostRates.from_mapping(
                field_of(data, "base_rates", dict), "base_rates"
            ),
            multipliers={
                name: float(field_of(multipliers, name, float, where="multipliers"))
                for name in multipliers
            },
            label=field_of(data, "label", str, "paper"),
            created_at=field_of(data, "created_at", str, ""),
            scale=float(scale) if scale is not None else None,
            tests=tuple(field_of(data, "tests", [str], [])),
            algorithms=tuple(field_of(data, "algorithms", [str], [])),
            fit_fields=tuple(field_of(fit, "fields", [str], [], "fit")),
            ridge=float(field_of(fit, "ridge", float, 0.0, "fit")),
            bounds=(float(bounds[0]), float(bounds[1])),
            iterations=field_of(fit, "iterations", int, 0, "fit"),
            n_observations=field_of(fit, "n_observations", int, 0, "fit"),
            before=field_of(data, "before", dict, {}),
            after=field_of(data, "after", dict, {}),
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
        """Load and type a profile file; every failure is a
        :class:`DocumentError` naming the file."""
        return load_json(
            path, "calibration profile", cls.from_dict,
            hint=f"write one with `repro calibrate --fit --profile {path}`",
        )
