"""One declaration per counter: the model behind ``/stats``, ``/metrics`` and the CLI.

A counter set is a dataclass whose rendered fields carry a declaration made
with :func:`counter`, :func:`gauge`, :func:`histogram` or :func:`section`:
the value's kind, its unit and a one-line help text.  A computed value is a
property declared the same way with :func:`derived`.  A field without a
declaration is internal and no output shows it.

Every output is rendered from those declarations, so none can drift from
another:

* :func:`snapshot` — the JSON dict (``GET /stats``, ``--json``, bench
  artifacts);
* :func:`exposition` — Prometheus text, version 0.0.4 (``GET /metrics``);
* :func:`text_lines` — ``name  value`` lines of the scalar values, for the CLI;
* :func:`field_names` and :func:`family_names` — the names
  ``tools/check_docs.py`` requires in docs/OPERATIONS.md.

Prometheus names follow one rule: ``repro_``, then the field's ``/stats``
path joined by ``_`` (a map's keys become a label, not part of the name),
then the unit when the name does not already end with it, then ``_total``
on counters.  A null gauge renders as ``NaN``.  A histogram renders its
cumulative ``_bucket`` series, ``_sum`` (the exact total seconds) and
``_count``; in JSON it is its millisecond summary under ``<name>_ms``.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = [
    "counter",
    "derived",
    "exposition",
    "family_names",
    "field_names",
    "gauge",
    "histogram",
    "section",
    "snapshot",
    "text_lines",
]

COUNTER, GAUGE, HISTOGRAM, SECTION = "counter", "gauge", "histogram", "section"


def _declare(kind, help, unit=None, label=None, of=None, default=0) -> dataclasses.Field:
    metadata = {"kind": kind, "help": help, "unit": unit, "label": label, "of": of}
    if label is not None:
        return dataclasses.field(default_factory=dict, metadata=metadata)
    if of is not None:
        return dataclasses.field(default_factory=of, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


def counter(help: str, *, unit: str | None = None) -> dataclasses.Field:
    """Declare a count that only grows (starts at 0)."""
    return _declare(COUNTER, help, unit)


def gauge(
    help: str, *, unit: str | None = None, label: str | None = None, default=0
) -> dataclasses.Field:
    """Declare a value that can go up, down or be null (``None``).

    With ``label`` the field is a ``{key: value}`` map whose keys become
    that Prometheus label.
    """
    return _declare(GAUGE, help, unit, label, default=default)


def histogram(of: type, help: str) -> dataclasses.Field:
    """Declare a latency histogram in seconds, a new ``of()`` by default.

    ``of`` is :class:`~repro.obs.serving.StreamingHistogram` or anything
    with its ``latency_ms()``, ``buckets()``, ``total_seconds`` and ``count``.
    """
    return _declare(HISTOGRAM, help, "seconds", of=of)


def section(of: type, *, label: str | None = None) -> dataclasses.Field:
    """Declare a nested counter set of class ``of`` or, with ``label``, a
    ``{key: of}`` map whose keys become that Prometheus label."""
    return _declare(SECTION, "", label=label, of=of)


class _Derived(property):
    """A property rendered like a declared field."""


def derived(declaration: dataclasses.Field):
    """Declare a computed value: ``@derived(gauge("..."))`` over its getter."""

    def wrap(getter) -> property:
        prop = _Derived(getter)
        prop.metadata = declaration.metadata
        return prop

    return wrap


def _declarations(cls) -> list[tuple[str, dict]]:
    """``(name, metadata)`` of each rendered value of ``cls``, fields first."""
    found = [(f.name, f.metadata) for f in dataclasses.fields(cls) if "kind" in f.metadata]
    found += [(n, a.metadata) for n, a in vars(cls).items() if isinstance(a, _Derived)]
    return found


def _key(name: str, meta: dict) -> str:
    return f"{name}_ms" if meta["kind"] == HISTOGRAM else name


def _json(value, meta: dict):
    if meta["kind"] == HISTOGRAM:
        return value.latency_ms()
    return snapshot(value) if meta["kind"] == SECTION else value


def snapshot(stats) -> dict:
    """The JSON view of a counter set: nested sections as dicts, maps by key."""
    out = {}
    for name, meta in _declarations(type(stats)):
        value = getattr(stats, name)
        if meta["label"] is None:
            value = _json(value, meta)
        else:
            value = {key: _json(v, meta) for key, v in sorted(value.items())}
        out[_key(name, meta)] = value
    return out


def field_names(cls) -> set[str]:
    """Every key :func:`snapshot` can emit for ``cls`` (map keys excluded)."""
    names = set()
    for name, meta in _declarations(cls):
        names.add(_key(name, meta))
        if meta["kind"] == SECTION:
            names |= field_names(meta["of"])
        elif meta["kind"] == HISTOGRAM:
            names |= set(meta["of"]().latency_ms())
    return names


def text_lines(stats) -> list[str]:
    """The CLI view of a counter set: an aligned ``name  value`` line per
    scalar value (lists and maps, such as ``panel_rows``, are JSON-only)."""
    values = {k: v for k, v in snapshot(stats).items() if not isinstance(v, (list, dict))}
    width = max(map(len, values), default=0)
    return [f"{name:<{width}}  {_text(value)}" for name, value in values.items()]


def _text(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _number(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(name: str, labels: dict, value) -> str:
    if not labels:
        return f"{name} {_number(value)}"
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels.items())
    return f"{name}{{{inner}}} {_number(value)}"


def _family(path: str, meta: dict) -> str:
    unit = meta["unit"]
    if unit and not path.endswith(f"_{unit}"):
        path += f"_{unit}"
    return f"{path}_total" if meta["kind"] == COUNTER else path


def _render(cls, rows: list[tuple[dict, object]], path: str, lines: list[str]) -> None:
    """Append the families of ``cls`` at ``path``; ``rows`` are its
    ``(labels, instance)`` pairs, so one family holds every map entry."""
    for name, meta in _declarations(cls):
        label, values = meta["label"], []
        for labels, stats in rows:
            value = getattr(stats, name)
            if label is None:
                values.append((labels, value))
            else:
                values += [({**labels, label: key}, v) for key, v in sorted(value.items())]
        if meta["kind"] == SECTION:
            _render(meta["of"], values, f"{path}_{name}", lines)
            continue
        family = _family(f"{path}_{name}", meta)
        lines += [f"# HELP {family} {meta['help']}", f"# TYPE {family} {meta['kind']}"]
        for labels, value in values:
            if meta["kind"] != HISTOGRAM:
                lines.append(_sample(family, labels, value))
                continue
            lines += [
                _sample(f"{family}_bucket", {**labels, "le": _number(bound)}, count)
                for bound, count in value.buckets()
            ]
            lines.append(_sample(f"{family}_sum", labels, value.total_seconds))
            lines.append(_sample(f"{family}_count", labels, value.count))


def exposition(stats) -> str:
    """The Prometheus text of a counter set (see the module doc for names)."""
    lines: list[str] = []
    _render(type(stats), [({}, stats)], "repro", lines)
    return "\n".join(lines) + "\n"


def family_names(cls) -> list[str]:
    """Every Prometheus family :func:`exposition` emits for ``cls``."""
    lines: list[str] = []
    _render(cls, [], "repro", lines)
    return [line.split()[2] for line in lines if line.startswith("# TYPE ")]
