"""Metrics exposition: Prometheus text format and a stable JSON snapshot.

Two machine-readable views of a :class:`~repro.obs.metrics.MetricsRegistry`,
replacing ad-hoc report prints:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` comment lines, one sample line per value;
  histograms render as Prometheus *summaries* with ``quantile``-labelled
  samples plus ``_sum`` / ``_count``),
* :func:`metrics_snapshot` — a versioned, JSON-able dict whose scalar
  values agree exactly with :meth:`MetricsRegistry.as_dict`.

Metric names are sanitized for Prometheus (dots and dashes become
underscores: ``serve.stage.execute_ms`` → ``serve_stage_execute_ms``); the
JSON snapshot keeps the registry's dotted names verbatim.

Empty histograms have no quantiles (``Histogram.quantile`` returns None);
the text format renders the Prometheus-conventional ``NaN`` placeholder and
the JSON snapshot uses ``null``, so zero-traffic metrics never crash a
renderer.  :func:`parse_prometheus` is the inverse of
:func:`render_prometheus` — round-tripping is asserted by
``tests/test_obs_smoke.py`` and the ``repro metrics`` CLI self-check.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, Optional, Union

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, default_registry

PathLike = Union[str, Path]

#: Histogram quantiles exposed by both formats (matches ``Histogram.dump``).
QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str) -> str:
    """A registry metric name as a legal Prometheus metric name."""
    sanitized = _NAME_RE.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: Optional[float]) -> str:
    """One sample value in the text format (``NaN`` for missing)."""
    if value is None:
        return "NaN"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry in the Prometheus text exposition format.

    Deterministic: metrics render sorted by name, each preceded by its
    ``# HELP`` (the registered help string, or the dotted source name when
    unset) and ``# TYPE`` lines.  Histograms expose as summaries.
    """
    registry = registry if registry is not None else default_registry()
    lines = []
    for metric in registry:  # sorted by name
        pname = sanitize_name(metric.name)
        help_text = metric.help or f"source metric {metric.name}"
        if isinstance(metric, Histogram):
            dump = metric.dump()
            lines.append(f"# HELP {pname} {help_text}")
            lines.append(f"# TYPE {pname} summary")
            for q, key in QUANTILES:
                lines.append(
                    f'{pname}{{quantile="{q}"}} {_format_value(dump[key])}'
                )
            lines.append(f"{pname}_sum {_format_value(dump['sum'])}")
            lines.append(f"{pname}_count {_format_value(dump['count'])}")
        elif isinstance(metric, Counter):
            lines.append(f"# HELP {pname} {help_text}")
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_format_value(metric.dump())}")
        elif isinstance(metric, Gauge):
            lines.append(f"# HELP {pname} {help_text}")
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_format_value(metric.dump())}")
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)


def _parse_value(text: str) -> Optional[float]:
    if text == "NaN":
        return None
    return float(text)


def parse_prometheus(text: str) -> Dict[str, dict]:
    """Parse :func:`render_prometheus` output back into
    ``{sanitized_name: {"kind", "help", ...values}}``.

    Counters and gauges get a ``"value"`` key; summaries get ``"p50"`` /
    ``"p95"`` / ``"p99"`` (None where the text said ``NaN``), ``"sum"``,
    and ``"count"``.  Used by the CLI self-check and ``tests/test_obs_smoke.py``
    to prove the exposition agrees with ``MetricsRegistry.as_dict()``.
    """
    metrics: Dict[str, dict] = {}
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    quantile_keys = {str(q): key for q, key in QUANTILES}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind.strip()
            metrics[name] = {"kind": kind.strip(), "help": helps.get(name, "")}
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name = match.group("name")
        value = _parse_value(match.group("value"))
        labels = match.group("labels")
        if labels:
            base = name
            entry = metrics.setdefault(base, {"kind": "summary", "help": ""})
            label_match = re.match(r'^quantile="([^"]+)"$', labels)
            if not label_match:
                raise ValueError(f"unsupported labels: {labels!r}")
            key = quantile_keys.get(label_match.group(1))
            if key is None:
                raise ValueError(f"unknown quantile {label_match.group(1)!r}")
            entry[key] = value
        elif name.endswith("_sum") and name[:-4] in types:
            metrics[name[:-4]]["sum"] = value
        elif name.endswith("_count") and name[:-6] in types:
            metrics[name[:-6]]["count"] = (
                int(value) if value is not None else None
            )
        else:
            entry = metrics.setdefault(name, {"kind": types.get(name, "untyped"), "help": helps.get(name, "")})
            entry["value"] = value
    return metrics


SNAPSHOT_VERSION = 1


def metrics_snapshot(registry: Optional[MetricsRegistry] = None) -> dict:
    """A stable, versioned JSON-able snapshot of the registry.

    ``metrics`` is sorted by name; every entry carries ``name`` (dotted,
    verbatim), ``prometheus_name`` (sanitized), ``kind``, ``help``, and
    either ``value`` (counter/gauge) or ``summary`` (the histogram's
    ``dump()`` dict, quantiles ``null`` when empty).  The scalar content
    agrees exactly with :meth:`MetricsRegistry.as_dict`.
    """
    registry = registry if registry is not None else default_registry()
    entries = []
    for metric in registry:
        entry = {
            "name": metric.name,
            "prometheus_name": sanitize_name(metric.name),
            "kind": metric.kind,
            "help": metric.help,
        }
        if isinstance(metric, Histogram):
            entry["summary"] = metric.dump()
        else:
            entry["value"] = metric.dump()
        entries.append(entry)
    return {"version": SNAPSHOT_VERSION, "metrics": entries}


def snapshot_agrees(snapshot: dict, flat: dict) -> bool:
    """True when a :func:`metrics_snapshot` carries exactly the same values
    as a ``MetricsRegistry.as_dict()`` dump (same names, same scalars)."""
    by_name = {e["name"]: e for e in snapshot.get("metrics", ())}
    if set(by_name) != set(flat):
        return False
    for name, value in flat.items():
        entry = by_name[name]
        recorded = entry.get("summary", entry.get("value"))
        if recorded != value:
            return False
    return True


def write_prometheus(
    path: PathLike, registry: Optional[MetricsRegistry] = None
) -> Path:
    """Write the Prometheus text exposition; returns the path written."""
    path = Path(path)
    path.write_text(render_prometheus(registry))
    return path


def write_metrics_json(
    path: PathLike, registry: Optional[MetricsRegistry] = None, indent: int = 2
) -> Path:
    """Write the JSON snapshot; returns the path written."""
    path = Path(path)
    path.write_text(
        json.dumps(metrics_snapshot(registry), indent=indent, allow_nan=False)
        + "\n"
    )
    return path
