"""The declarative SLO/gate engine.

Run-health gates are *data*, not bespoke code: a ruleset is a list of

    {name, metric, comparator, threshold, severity, against, required}

rules evaluated against one recorded run — the ``runsum/v1`` record
:func:`repro.observe.history.summarize_ledger` builds from an
``obs/v1`` ledger — optionally relative to a baseline run. The
committed ``slo/default.yaml`` holds the repo's gates; ``repro report
--slo RULES LEDGER`` evaluates and exits nonzero on breach. Speed is
not judged here: that is ``benchmarks/e2e/run.py --compare``.

Rule grammar
------------
``metric`` is a dotted path into the record (``status``,
``problems.parse``, ``recovery.total``, ``memory.w0/user.peak_bytes``),
resolved by :func:`resolve_path`. A segment containing ``*`` or ``?``
matches dict keys by glob, at any depth, and the rule is then compared
elementwise over the matches (``knobs.*``, ``stages.*.sim_s``). The
``history:`` scope's trend rules (:mod:`repro.observe.history`) read
the same records through the same resolver.

``comparator`` is one of ``<= < >= > == !=`` and ``threshold`` the
bound. ``against`` is ``value`` (default: compare the resolved value),
``baseline-ratio`` (compare ``target/baseline``, the drift-gate shape)
or ``baseline-equal`` (compare the *count of mismatches* against the
baseline — the exact-match shape, normally ``<= 0``). ``severity``
``breach`` (default) fails the gate; ``warn`` only reports. A rule
whose metric is absent in the target is *skipped*, not breached,
unless ``required: true``.

Rulesets load from JSON or from a small flat YAML subset (top-level
``rules:`` list of ``- key: value`` maps) parsed here directly, so the
gate engine works on CI images without PyYAML.
"""

from __future__ import annotations

import fnmatch
import json
import operator
from dataclasses import dataclass, field

COMPARATORS = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "!=": operator.ne,
}


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


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def _as_record(target):
    if isinstance(target, dict):
        return target
    # Deferred: history imports this module for the resolver.
    from repro.observe.history import summarize_path

    return summarize_path(target)[0]


def evaluate_slo(rules, target, baseline=None):
    """Evaluate a ruleset; returns a list of :class:`Verdict`.

    ``target`` / ``baseline`` are each a ``runsum/v1`` record or the
    path of an ``obs/v1`` ledger to summarize into one (``ValueError``
    for a file that is not a ledger). Baseline-relative rules are
    skipped when no baseline is given (unless ``required``).
    """
    record = _as_record(target)
    base_record = _as_record(baseline) if baseline is not None else None
    return [_evaluate_rule(rule, record, base_record) for rule in rules]


def _evaluate_rule(rule, record, base_record):
    value = resolve_path(record, rule.metric)
    if value is None or (isinstance(value, dict) and not value):
        if rule.required:
            return Verdict(rule, ok=False,
                           note="required metric absent in target")
        return Verdict(rule, ok=None, note="metric absent; skipped")
    if rule.against == "value":
        return _compare(rule, value)
    if base_record is None:
        if rule.required:
            return Verdict(rule, ok=False,
                           note="baseline required but not given")
        return Verdict(rule, ok=None, note="no baseline; skipped")
    base = resolve_path(base_record, rule.metric)
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
