"""The declarative SLO/gate engine: the one judge of recorded runs.

Run-health gates are *data*, not bespoke code: a ruleset is a list of

    {name, metric, comparator, threshold, severity, against, required}

rules, and :func:`evaluate_slo` is the only code that judges a
recorded run. It reads ``runsum/v1`` records — what
:func:`repro.observe.history.summarize_ledger` builds from an
``obs/v1`` ledger — and judges each rule whose inputs it was given:

- ``repro report --slo RULES RUN [--baseline TWIN]`` passes a target
  (and optionally a baseline);
- ``repro history diff A B`` passes B as the target, A as the baseline;
- ``repro history trend`` passes the store's window of records.

All three print :func:`render_slo`'s verdict block and exit nonzero
iff a breach-severity rule fails. The committed ``slo/default.yaml``
holds the repo's gates. Speed is not judged here: that is
``benchmarks/e2e/run.py --compare``.

Rule grammar
------------
``metric`` is a dotted path into the record (``status``,
``problems.parse``, ``recovery.total``, ``memory.w0/user.peak_bytes``),
resolved by :func:`resolve_path`. A segment containing ``*`` or ``?``
matches dict keys by glob, at any depth, and the rule is then compared
elementwise over the matches (``knobs.*``, ``stages.*.sim_s``).

``comparator`` is one of ``<= < >= > == !=`` and ``threshold`` the
bound. ``against`` says what the comparator is applied to:

- ``value`` (default): the target's resolved value;
- ``baseline-ratio``: ``target/baseline`` per element both runs hold
  (``0 -> 0`` is 1, ``0 -> x`` is infinite) — the growth-gate shape;
- ``baseline-equal``: the *count of mismatches* against the baseline
  over the shared elements — the exact-match shape, normally ``<= 0``;
- ``trend``: the robust z-score of every run in the history window,
  per element series, ``z = (v - median) / scale`` with ``scale =
  max(1.4826·MAD, 0.05·|median|, 1e-9)`` (:func:`robust_scale`).
  Median/MAD instead of mean/stddev so one outlier run cannot mask
  itself by inflating the spread; the 5%-of-median floor keeps
  near-constant series (wall seconds that jitter by microseconds) from
  flagging noise. A series shorter than :data:`MIN_TREND_RUNS` is not
  judged — two runs cannot define "normal". ``<= 3.5`` flags the high
  tail, ``>= -3.5`` the low one.

``severity`` ``breach`` (default) fails the gate; ``warn`` only
reports. A rule whose inputs are absent — no target, no baseline, no
history, the metric matching nothing — is *skipped*, not breached,
unless ``required: true``.

A ruleset loads from JSON or from a small flat YAML subset (one
top-level ``rules:`` list of ``- key: value`` maps) parsed here
directly, so the gate engine works on CI images without PyYAML.
"""

from __future__ import annotations

import fnmatch
import json
import operator
import statistics
from dataclasses import dataclass, field

COMPARATORS = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "!=": operator.ne,
}

AGAINST = ("value", "baseline-ratio", "baseline-equal", "trend")

#: Fewest runs a trend series needs before it is judged.
MIN_TREND_RUNS = 3


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
        if self.against not in AGAINST:
            raise ValueError(
                f"rule {self.name!r}: against must be one of "
                f"{list(AGAINST)}, got {self.against!r}"
            )


@dataclass
class Verdict:
    """Outcome of one rule against its inputs."""

    rule: SloRule
    #: The compared value (worst element for dict selections); None
    #: when the rule was skipped.
    value: object = None
    #: True = pass, False = fail, None = skipped (inputs absent).
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
def load_rules(path):
    """Load a ruleset file (JSON — a bare list or ``{"rules": [...]}``
    — or the flat YAML subset documented in the module docstring) into
    a list of :class:`SloRule`."""
    with open(path) as handle:
        text = handle.read()
    if text.lstrip().startswith(("{", "[")):
        payload = json.loads(text)
        if isinstance(payload, dict):
            _check_scopes(payload)
            payload = payload.get("rules", [])
    else:
        payload = _parse_flat_yaml(text)
    rules = [
        SloRule(
            name=entry["name"],
            metric=entry["metric"],
            comparator=entry["comparator"],
            threshold=entry["threshold"],
            severity=entry.get("severity", "breach"),
            against=entry.get("against", "value"),
            required=bool(entry.get("required", False)),
        )
        for entry in payload
    ]
    if not rules:
        raise ValueError(f"{path}: no rules found")
    return rules


def _check_scopes(names):
    unknown = sorted(set(names) - {"rules"})
    if unknown:
        raise ValueError(
            f"unknown top-level key(s) {unknown}: a ruleset is one "
            "`rules:` list (trend rules are `against: trend`)"
        )


def _parse_flat_yaml(text):
    """Parse the flat YAML subset rulesets use: an optional top-level
    ``rules:`` header followed by ``- key: value`` list items, scalars
    only, ``#`` comments. Any other top-level header is a
    ``ValueError``. Deliberately tiny — no dependency on PyYAML,
    identical behaviour everywhere."""
    entries = []
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip() if "#" in raw else raw.rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        # An unindented bare `name:` line is a header; entry keys are
        # always indented under their `- ` item, so this cannot be
        # confused with a rule field.
        if (not line[0].isspace() and stripped.endswith(":")
                and not stripped.startswith("- ")
                and ":" not in stripped[:-1]):
            _check_scopes([stripped[:-1].strip()])
            current = None
            continue
        if stripped.startswith("- "):
            current = {}
            entries.append(current)
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
    return entries


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
# metric resolution
# ----------------------------------------------------------------------
def _resolve_elements(value, segments, prefix=""):
    """Recursive dotted-path traversal with glob fan-out at any
    segment: returns ``{element_key: leaf_value}`` where the element
    key names the concrete keys each glob matched (``stages.*.sim_s``
    over a run with a ``read`` stage yields ``{"read": …}``)."""
    if value is None:
        return {}
    if not segments:
        return {prefix: value}
    segment, rest = segments[0], segments[1:]
    if not isinstance(value, dict):
        return {}
    if "*" in segment or "?" in segment:
        out = {}
        for key in sorted(value):
            if fnmatch.fnmatchcase(str(key), segment):
                sub = f"{prefix}.{key}" if prefix else str(key)
                out.update(_resolve_elements(value[key], rest, sub))
        return out
    return _resolve_elements(value.get(segment), rest, prefix)


def resolve_path(record, spec):
    """Resolve a metric spec against one ``runsum/v1`` record (module
    docstring, "Rule grammar"). Returns a scalar (un-globbed spec), a
    dict of matches, or None when absent."""
    elements = _resolve_elements(record, spec.split("."))
    if not elements:
        return None
    if list(elements) == [""]:
        return elements[""]
    return elements


def trend_series(records, spec):
    """``{element_key: [(run_id, value), …]}`` in record order for one
    metric spec over a record list. Scalar specs land under the ``""``
    key; records where the metric is absent are skipped."""
    series = {}
    for record in records:
        for key, value in _as_items(resolve_path(record, spec)):
            try:
                value = float(value)
            except (TypeError, ValueError):
                continue
            series.setdefault(key, []).append(
                (record.get("run_id", "?"), value)
            )
    return series


def trend_key(label, run_id):
    """The detail key a ``trend`` verdict names one flagged point by."""
    return f"{label} run {run_id}"


def robust_scale(values):
    """``max(1.4826·MAD, 0.05·|median|, 1e-9)`` — the denominator of
    the robust z-score. The MAD term adapts to genuine spread, the
    5%-of-median floor keeps near-constant series from flagging
    numeric jitter, and the epsilon keeps all-zero series finite."""
    med = statistics.median(values)
    mad = statistics.median([abs(value - med) for value in values])
    return max(1.4826 * mad, 0.05 * abs(med), 1e-9)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def _as_record(target):
    if isinstance(target, dict):
        return target
    # Deferred: history imports this package.
    from repro.observe.history import summarize_path

    return summarize_path(target)[0]


def evaluate_slo(rules, target=None, baseline=None, history=None):
    """Evaluate a ruleset; returns a list of :class:`Verdict`.

    ``target`` / ``baseline`` are each a ``runsum/v1`` record or the
    path of an ``obs/v1`` ledger to summarize into one (``ValueError``
    for a file that is not a ledger); ``history`` is a list of records
    in ingest order. ``value`` rules read the target, baseline rules
    the target and the baseline, ``trend`` rules the history; a rule
    whose inputs were not given is skipped (unless ``required``).
    """
    record = _as_record(target) if target is not None else None
    base_record = _as_record(baseline) if baseline is not None else None
    return [_evaluate_rule(rule, record, base_record, history)
            for rule in rules]


def _skip(rule, reason):
    """A rule whose inputs are absent: skipped, or failed if required."""
    if rule.required:
        return Verdict(rule, ok=False, note=f"{reason} (required)")
    return Verdict(rule, ok=None, note=f"{reason}; skipped")


def _absent(value):
    return value is None or (isinstance(value, dict) and not value)


def _evaluate_rule(rule, record, base_record, history):
    if rule.against == "trend":
        if history is None:
            return _skip(rule, "no history")
        return _compare_trend(rule, history)
    if record is None:
        return _skip(rule, "no target")
    value = resolve_path(record, rule.metric)
    if _absent(value):
        return _skip(rule, "metric absent")
    if rule.against == "value":
        return _compare(rule, value)
    if base_record is None:
        return _skip(rule, "no baseline")
    base = resolve_path(base_record, rule.metric)
    if _absent(base):
        return _skip(rule, "metric absent in baseline")
    if rule.against == "baseline-equal":
        return _compare_equal(rule, value, base)
    return _compare_ratio(rule, value, base)


def _as_items(value):
    if value is None:
        return []
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


def _with_note(verdict, note):
    verdict.note = "; ".join(part for part in (verdict.note, note) if part)
    return verdict


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
        return _skip(rule, "no comparable baseline elements")
    # A globbed spec keeps its element keys even when one matched.
    compared = ratios if isinstance(value, dict) else ratios[""]
    return _with_note(_compare(rule, compared), "target/baseline ratio")


def _compare_equal(rule, value, base):
    values = dict(_as_items(value))
    bases = dict(_as_items(base))
    shared = [key for key in values if key in bases]
    if not shared:
        return _skip(rule, "no shared elements with baseline")
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


def _compare_trend(rule, history):
    zscores = {}
    shown = {}
    for element, points in sorted(trend_series(history,
                                               rule.metric).items()):
        if len(points) < MIN_TREND_RUNS:
            continue
        values = [value for _, value in points]
        med = statistics.median(values)
        scale = robust_scale(values)
        for run_id, value in points:
            key = trend_key(element or rule.metric, run_id)
            zscores[key] = (value - med) / scale
            shown[key] = (f"value {value:.6g} vs median {med:.6g} "
                          f"(z={zscores[key]:+.3g})")
    if not zscores:
        return _skip(rule, f"no series of {MIN_TREND_RUNS}+ runs")
    verdict = _compare(rule, zscores)
    verdict.details = {key: shown[key] for key in verdict.details}
    return _with_note(verdict, f"robust z over {len(history)} run(s)")


def has_breach(verdicts):
    """True iff any failed verdict has breach severity."""
    return any(
        v.ok is False and v.rule.severity == "breach" for v in verdicts
    )


def verdict_counts(verdicts):
    """``{status: count}`` over breach/warn/pass/skip."""
    counts = {"breach": 0, "warn": 0, "pass": 0, "skip": 0}
    for verdict in verdicts:
        counts[verdict.status] += 1
    return counts


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
    counts = verdict_counts(verdicts)
    lines.append(
        f"  {counts['breach']} breach, {counts['warn']} warn, "
        f"{counts['pass']} pass, {counts['skip']} skipped"
    )
    return "\n".join(lines)
