"""The declarative SLO/gate engine.

Run-health gates are *data*, not bespoke code: a ruleset is a list of

    {name, metric, comparator, threshold, severity, against, required}

rules evaluated against any target — an ``obs/v1`` run ledger or a
``trace/v2`` run envelope (``repro run --metrics-json``) — optionally
relative to a baseline of the same shape. The committed
``slo/default.yaml`` holds the repo's gates; ``repro report --slo
RULES TARGET`` evaluates and exits nonzero on breach. Speed is not
judged here: that is ``benchmarks/e2e/run.py --compare``.

Rule grammar
------------
``metric`` selects a value from the target:

- ``results.<dotted.path>`` / ``params.<dotted.path>`` — traverse the
  envelope's ``results``/``params`` block. A path segment applied to a
  *list of rows* maps over the rows; the aggregators ``max``, ``min``,
  ``sum``, ``mean``, ``count``, ``last`` reduce a list; a segment
  containing ``*`` matches dict keys by glob and yields the sub-dict
  of matches (compared elementwise).
- ``series:<name>{label=value,…}.peak|last`` — resolve metric series
  via :func:`repro.metrics.find_series`; multiple matching series
  yield a dict keyed by their sorted labels (compared elementwise).
- ``ledger.count`` / ``ledger.count:<kind>`` / ``ledger.parse_errors``
  / ``ledger.schema_problems`` — ledger stream facts.

``comparator`` is one of ``<= < >= > == !=`` and ``threshold`` the
bound. ``against`` is ``value`` (default: compare the resolved value),
``baseline-ratio`` (compare ``target/baseline``, the drift-gate shape)
or ``baseline-equal`` (compare the *count of mismatches* against the
baseline — the exact-match shape, normally ``<= 0``). ``severity``
``breach`` (default) fails the gate; ``warn`` only reports. A rule
whose metric is absent in the target is *skipped*, not breached — one
committed ruleset evaluates against ledgers and envelopes alike —
unless ``required: true``.

Rulesets load from JSON or from a small flat YAML subset (top-level
``rules:`` list of ``- key: value`` maps) parsed here directly, so the
gate engine works on CI images without PyYAML.
"""

from __future__ import annotations

import fnmatch
import json
import operator
import re
from dataclasses import dataclass, field

from repro.metrics import find_series, series_last, series_peak

COMPARATORS = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Aggregator segments usable at the end of a results/params path.
AGGREGATORS = {
    "max": lambda vs: max(vs),
    "min": lambda vs: min(vs),
    "sum": lambda vs: sum(vs),
    "mean": lambda vs: sum(vs) / len(vs),
    "count": lambda vs: len(vs),
    "last": lambda vs: vs[-1],
}

_SERIES_RE = re.compile(
    r"^series:(?P<name>[^{.]+)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\.(?P<reducer>peak|last)$"
)


@dataclass(frozen=True)
class SloRule:
    """One declarative gate."""

    name: str
    metric: str
    comparator: str
    threshold: float
    severity: str = "breach"
    against: str = "value"
    required: bool = False

    def __post_init__(self):
        if self.comparator not in COMPARATORS:
            raise ValueError(
                f"rule {self.name!r}: comparator must be one of "
                f"{sorted(COMPARATORS)}, got {self.comparator!r}"
            )
        if self.severity not in ("breach", "warn"):
            raise ValueError(
                f"rule {self.name!r}: severity must be 'breach' or "
                f"'warn', got {self.severity!r}"
            )
        if self.against not in ("value", "baseline-ratio",
                                "baseline-equal"):
            raise ValueError(
                f"rule {self.name!r}: against must be 'value', "
                f"'baseline-ratio' or 'baseline-equal', got "
                f"{self.against!r}"
            )


@dataclass
class Verdict:
    """Outcome of one rule against one target."""

    rule: SloRule
    #: The compared value (worst element for dict selections); None
    #: when the rule was skipped.
    value: object = None
    #: True = pass, False = fail, None = skipped (metric absent).
    ok: object = None
    note: str = ""
    details: dict = field(default_factory=dict)

    @property
    def status(self):
        if self.ok is None:
            return "skip"
        if self.ok:
            return "pass"
        return self.rule.severity


# ----------------------------------------------------------------------
# ruleset loading
# ----------------------------------------------------------------------
def load_ruleset(path):
    """Load a ruleset file into its raw scoped form: ``{scope:
    [entry, …]}``. The flat YAML subset groups entries under top-level
    ``<scope>:`` headers (``rules:`` for SLO gates, ``history:`` for
    the run-history trend rules — see
    :mod:`repro.observe.history`); a JSON file is either that dict
    shape already or a bare list (treated as the ``rules`` scope)."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        payload = json.loads(text)
    else:
        payload = _parse_flat_yaml(text)
    if isinstance(payload, list):
        payload = {"rules": payload}
    return payload


def load_rules(path):
    """Load a ruleset file (JSON, or the flat YAML subset documented
    in the module docstring) into a list of :class:`SloRule` — the
    ``rules`` scope only; other scopes (``history:``) have their own
    loaders."""
    payload = load_ruleset(path).get("rules", [])
    rules = []
    for entry in payload:
        rules.append(SloRule(
            name=entry["name"],
            metric=entry["metric"],
            comparator=entry["comparator"],
            threshold=entry["threshold"],
            severity=entry.get("severity", "breach"),
            against=entry.get("against", "value"),
            required=bool(entry.get("required", False)),
        ))
    if not rules:
        raise ValueError(f"{path}: no rules found")
    return rules


def _parse_flat_yaml(text):
    """Parse the flat YAML subset rulesets use: top-level ``<scope>:``
    headers (``rules:``, ``history:``, …) each followed by ``- key:
    value`` list items, scalars only, ``#`` comments. Entries before
    any header land in the default ``rules`` scope. Deliberately tiny
    — no dependency on PyYAML, identical behaviour everywhere."""
    scopes = {}
    scope = "rules"
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip() if "#" in raw else raw.rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        # An unindented bare `name:` line opens a new scope; entry
        # keys are always indented under their `- ` item, so this
        # cannot be confused with a rule field.
        if (not line[0].isspace() and stripped.endswith(":")
                and not stripped.startswith("- ")
                and ":" not in stripped[:-1]):
            scope = stripped[:-1].strip()
            scopes.setdefault(scope, [])
            current = None
            continue
        if stripped.startswith("- "):
            current = {}
            scopes.setdefault(scope, []).append(current)
            stripped = stripped[2:].strip()
            if not stripped:
                continue
        if current is None:
            raise ValueError(
                f"unexpected line outside a rule entry: {raw!r}"
            )
        key, sep, value = stripped.partition(":")
        if not sep:
            raise ValueError(f"expected 'key: value', got {raw!r}")
        current[key.strip()] = _yaml_scalar(value.strip())
    scopes.setdefault("rules", [])
    return scopes


def _yaml_scalar(value):
    if value == "":
        return None
    try:
        return json.loads(value)
    except ValueError:
        pass
    lowered = value.lower()
    if lowered in ("true", "yes"):
        return True
    if lowered in ("false", "no"):
        return False
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


# ----------------------------------------------------------------------
# target loading
# ----------------------------------------------------------------------
def load_slo_source(target):
    """Normalize an SLO target into one evaluable source dict.

    ``target`` is a path to a ``trace/v2`` envelope (JSON), a path to
    an ``obs/v1`` ledger (JSONL), or an already-loaded dict. Ledgers
    are summarized into a synthetic ``results`` block (event totals
    per kind, parse/schema problem counts) so results-rules and
    ``ledger.*`` selectors both work on them.
    """
    from repro.observe.ledger import read_ledger, validate_events

    if isinstance(target, dict):
        if "kind" in target and "ledger" in target:
            return target  # already a normalized source — pass through
        return {
            "kind": "envelope",
            "results": target.get("results") or {},
            "params": target.get("params") or {},
            "metrics": target.get("metrics"),
            "ledger": None,
            "ledger_problems": [],
        }
    try:
        with open(target) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError("not an envelope")
    except ValueError:
        events, problems = read_ledger(target)
        schema_problems = validate_events(events)
        kinds = {}
        for event in events:
            kind = event.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "kind": "ledger",
            "results": {
                "ledger_events": len(events),
                "ledger_parse_errors": len(problems),
                "ledger_schema_problems": len(schema_problems),
                **{f"events_{kind}": count
                   for kind, count in sorted(kinds.items())},
            },
            "params": {},
            "metrics": None,
            "ledger": events,
            "ledger_problems": problems,
        }
    return load_slo_source(payload)


# ----------------------------------------------------------------------
# metric resolution
# ----------------------------------------------------------------------
def resolve_metric(spec, source):
    """Resolve a metric spec against a normalized source; returns a
    scalar, a dict (elementwise selections), or None when absent."""
    if spec.startswith("series:"):
        return _resolve_series(spec, source)
    if spec == "ledger.count":
        events = source.get("ledger")
        return None if events is None else len(events)
    if spec.startswith("ledger.count:"):
        events = source.get("ledger")
        if events is None:
            return None
        kind = spec.split(":", 1)[1]
        return sum(1 for e in events if e.get("kind") == kind)
    if spec == "ledger.parse_errors":
        if source.get("ledger") is None:
            return None
        return len(source.get("ledger_problems") or ())
    if spec == "ledger.schema_problems":
        from repro.observe.ledger import validate_events

        events = source.get("ledger")
        return None if events is None else len(validate_events(events))
    for block in ("results", "params"):
        if spec == block or spec.startswith(block + "."):
            path = spec[len(block) + 1:] if spec != block else ""
            return _resolve_path(source.get(block), path)
    return None


def _resolve_series(spec, source):
    match = _SERIES_RE.match(spec)
    if match is None:
        raise ValueError(f"bad series spec: {spec!r}")
    metrics = source.get("metrics")
    if not metrics:
        return None
    labels = {}
    if match.group("labels"):
        for pair in match.group("labels").split(","):
            key, _, value = pair.partition("=")
            labels[key.strip()] = value.strip()
    series = find_series(metrics, match.group("name"), **labels)
    if not series:
        return None
    reducer = series_peak if match.group("reducer") == "peak" else series_last
    if len(series) == 1:
        return reducer(series[0])
    return {
        json.dumps(entry.get("labels", {}), sort_keys=True): reducer(entry)
        for entry in series
    }


def _resolve_path(value, path):
    if value is None:
        return None
    if not path:
        return value
    segments = path.split(".")
    for position, segment in enumerate(segments):
        if value is None:
            return None
        is_last = position == len(segments) - 1
        if isinstance(value, list):
            if is_last and segment in AGGREGATORS:
                values = [v for v in value if v is not None]
                return AGGREGATORS[segment](values) if values else None
            mapped = [
                item.get(segment) for item in value
                if isinstance(item, dict) and segment in item
            ]
            value = mapped if mapped else None
        elif isinstance(value, dict):
            if "*" in segment or "?" in segment:
                matches = {
                    key: value[key] for key in sorted(value)
                    if fnmatch.fnmatchcase(key, segment)
                }
                if not matches:
                    return None
                if is_last:
                    return matches
                value = matches
            else:
                value = value.get(segment)
        else:
            return None
    return value


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def evaluate_slo(rules, target, baseline=None):
    """Evaluate a ruleset; returns a list of :class:`Verdict`.

    ``target`` / ``baseline`` are anything :func:`load_slo_source`
    accepts. Baseline-relative rules are skipped when no baseline is
    given (unless ``required``).
    """
    source = load_slo_source(target)
    base_source = load_slo_source(baseline) if baseline is not None else None
    verdicts = []
    for rule in rules:
        verdicts.append(_evaluate_rule(rule, source, base_source))
    return verdicts


def _evaluate_rule(rule, source, base_source):
    value = resolve_metric(rule.metric, source)
    if value is None or (isinstance(value, dict) and not value):
        if rule.required:
            return Verdict(rule, ok=False,
                           note="required metric absent in target")
        return Verdict(rule, ok=None, note="metric absent; skipped")
    if rule.against == "value":
        return _compare(rule, value)
    if base_source is None:
        if rule.required:
            return Verdict(rule, ok=False,
                           note="baseline required but not given")
        return Verdict(rule, ok=None, note="no baseline; skipped")
    base = resolve_metric(rule.metric, base_source)
    if base is None or (isinstance(base, dict) and not base):
        if rule.required:
            return Verdict(rule, ok=False,
                           note="required metric absent in baseline")
        return Verdict(rule, ok=None,
                       note="metric absent in baseline; skipped")
    if rule.against == "baseline-equal":
        return _compare_equal(rule, value, base)
    return _compare_ratio(rule, value, base)


def _as_items(value):
    return value.items() if isinstance(value, dict) else [("", value)]


def _compare(rule, value):
    compare = COMPARATORS[rule.comparator]
    failing = {}
    worst = None
    for key, item in _as_items(value):
        try:
            ok = bool(compare(item, rule.threshold))
        except TypeError:
            ok = False
        if not ok:
            failing[key] = item
        worst = item if worst is None else _worse(rule, worst, item)
    if failing:
        shown = failing.get("", next(iter(failing.values())))
        return Verdict(
            rule, value=shown, ok=False, details=dict(failing),
            note=(f"{len(failing)} element(s) violate"
                  if isinstance(value, dict) else ""),
        )
    return Verdict(rule, value=worst, ok=True)


def _worse(rule, first, second):
    """The element closer to violating the rule (for reporting)."""
    try:
        if rule.comparator in ("<=", "<", "==", "!="):
            return max(first, second)
        return min(first, second)
    except TypeError:
        return second


def _compare_ratio(rule, value, base):
    values = dict(_as_items(value))
    bases = dict(_as_items(base))
    ratios = {}
    for key in values:
        if key not in bases:
            continue
        try:
            denominator = float(bases[key])
            if denominator == 0.0:
                # 0 -> 0 is flat (ratio 1); 0 -> x is infinite drift.
                ratios[key] = (
                    1.0 if float(values[key]) == 0.0 else float("inf")
                )
            else:
                ratios[key] = float(values[key]) / denominator
        except (TypeError, ValueError):
            continue
    if not ratios:
        if rule.required:
            return Verdict(rule, ok=False,
                           note="no comparable baseline elements")
        return Verdict(rule, ok=None,
                       note="no comparable baseline elements; skipped")
    verdict = _compare(rule, ratios if len(ratios) > 1 else
                       next(iter(ratios.values())))
    verdict.note = (verdict.note + " (target/baseline ratio)").strip()
    return verdict


def _compare_equal(rule, value, base):
    values = dict(_as_items(value))
    bases = dict(_as_items(base))
    shared = [key for key in values if key in bases]
    if not shared:
        return Verdict(rule, ok=None,
                       note="no shared elements with baseline; skipped")
    mismatches = {
        key: (values[key], bases[key])
        for key in shared if values[key] != bases[key]
    }
    verdict = _compare(rule, len(mismatches))
    verdict.details = {
        key: f"{new!r} != baseline {old!r}"
        for key, (new, old) in mismatches.items()
    }
    verdict.note = (f"{len(mismatches)} mismatch(es) over "
                    f"{len(shared)} shared element(s)")
    return verdict


def has_breach(verdicts):
    """True iff any failed verdict has breach severity."""
    return any(
        v.ok is False and v.rule.severity == "breach" for v in verdicts
    )


def render_slo(verdicts, title="SLO evaluation"):
    """ASCII table of verdicts, breaches first."""
    lines = [f"### {title} — {len(verdicts)} rules"]
    order = {"breach": 0, "warn": 1, "pass": 2, "skip": 3}
    for verdict in sorted(verdicts, key=lambda v: order[v.status]):
        rule = verdict.rule
        shown = verdict.value
        if isinstance(shown, float):
            shown = f"{shown:.6g}"
        lines.append(
            f"  [{verdict.status:6s}] {rule.name}: "
            f"{rule.metric} {rule.comparator} {rule.threshold}"
            + (f" — value {shown}" if verdict.ok is not None else "")
            + (f" ({verdict.note})" if verdict.note else "")
        )
        for key, detail in sorted(verdict.details.items()):
            if verdict.ok is False:
                lines.append(f"           {key or rule.metric}: {detail}")
    breaches = sum(1 for v in verdicts if v.status == "breach")
    warns = sum(1 for v in verdicts if v.status == "warn")
    passes = sum(1 for v in verdicts if v.status == "pass")
    skips = sum(1 for v in verdicts if v.status == "skip")
    lines.append(
        f"  {breaches} breach, {warns} warn, {passes} pass, {skips} skipped"
    )
    return "\n".join(lines)
