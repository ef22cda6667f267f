"""Rule-based CE pseudo-labeling from AU annotations.

A rule fires when all its required AUs are present and all its forbidden
AUs are absent; a missing CE label is filled only when exactly one distinct
class fires. Rules conservatively pair required and forbidden sets so the
inferred labels stay reliable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .data import AU_NAMES, CE_NAMES, N_AU, N_CE, undecodable, with_ce


class RuleParseError(ValueError):
    """Malformed rule file; carries the offending line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_AU_INDEX = {name.lower(): i for i, name in enumerate(AU_NAMES)}

_RULE_RE = re.compile(
    r"^REQ\s+(?P<req>[A-Za-z0-9,\s]+?)\s+FORBID\s+(?P<forbid>[A-Za-z0-9,\s]+?)\s*=>\s*(?P<ce>\d)$"
)


@dataclass(frozen=True)
class PseudoRule:
    required: frozenset
    forbidden: frozenset
    ce: int

    def fires(self, au_bits):
        return all(au_bits[i] == 1 for i in self.required) and \
            all(au_bits[i] == 0 for i in self.forbidden)


@dataclass
class PseudoRuleTable:
    rules: list = field(default_factory=list)

    def validate(self):
        for rule in self.rules:
            if rule.required & rule.forbidden:
                raise ValueError(f"rule for class {rule.ce} has overlapping "
                                 f"required/forbidden AUs")
            for i in rule.required | rule.forbidden:
                if not 0 <= i < N_AU:
                    raise ValueError(f"AU index {i} out of range")
            if not 0 <= rule.ce < N_CE:
                raise ValueError(f"CE class {rule.ce} out of range")
        return self


def default_rule_table():
    """FACS-motivated defaults mapping prototypical AU patterns to emotions."""

    def rule(req, forbid, ce_name):
        return PseudoRule(
            required=frozenset(_AU_INDEX[a] for a in req),
            forbidden=frozenset(_AU_INDEX[a] for a in forbid),
            ce=CE_NAMES.index(ce_name),
        )

    return PseudoRuleTable(rules=[
        rule(("au6", "au12"), ("au4", "au15"), "Happiness"),
        rule(("au1", "au4", "au15"), ("au12",), "Sadness"),
        rule(("au1", "au2", "au25"), ("au4",), "Surprise"),
        rule(("au4", "au7", "au23"), ("au12",), "Anger"),
    ]).validate()


def _parse_au_list(text, line_no):
    indices = set()
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in _AU_INDEX:
            raise RuleParseError(line_no, f"unknown AU name {token!r}")
        indices.add(_AU_INDEX[token])
    if not indices:
        raise RuleParseError(line_no, "empty AU list")
    return frozenset(indices)


def parse_rule_file(path):
    """Read a rule table: one `REQ ... FORBID ... => class` per line.

    Blank lines and '#' comments are ignored.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.read().splitlines()
    rules = []
    for line_no, line in enumerate(lines, start=1):
        if undecodable(line):
            raise RuleParseError(line_no, "not valid UTF-8 text")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _RULE_RE.match(stripped)
        if not m:
            raise RuleParseError(line_no, f"cannot parse rule {stripped!r}")
        ce = int(m.group("ce"))
        if ce >= N_CE:
            raise RuleParseError(line_no, f"CE class {ce} out of range 0..{N_CE - 1}")
        rule = PseudoRule(required=_parse_au_list(m.group("req"), line_no),
                          forbidden=_parse_au_list(m.group("forbid"), line_no),
                          ce=ce)
        if rule.required & rule.forbidden:
            raise RuleParseError(line_no, "required and forbidden AUs overlap")
        rules.append(rule)
    return PseudoRuleTable(rules=rules).validate()


def pseudo_infer(au_bits, table):
    """Inferred class for an AU pattern, or None when no or an ambiguous
    set of rules fires."""
    fired = {rule.ce for rule in table.rules if rule.fires(au_bits)}
    if len(fired) == 1:
        return next(iter(fired))
    return None


def pseudo_apply(records, table):
    """Fill missing CE labels from AU patterns; never overwrites.

    Returns (new record list, number filled). Applying twice equals
    applying once.
    """
    out = []
    filled = 0
    for rec in records:
        lab = rec.labels
        if lab.ce is None and lab.au is not None:
            inferred = pseudo_infer(lab.au, table)
            if inferred is not None:
                out.append(with_ce(rec, inferred))
                filled += 1
                continue
        out.append(rec)
    return out, filled
