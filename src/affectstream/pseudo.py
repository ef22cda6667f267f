"""Rule-based CE pseudo-labeling from AU annotations.

A rule fires when all its required AUs are present (bit == 1) and all its
forbidden AUs are absent (bit == 0); a missing CE label is filled only when
exactly one distinct class fires. Rules conservatively pair required and
forbidden sets so the inferred labels stay reliable. `rule_classes` is the
one evaluator: each rule runs once over a whole (N, 12) AU column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .data import AU_NAMES, CE_NAMES, N_AU, N_CE, LabelColumns, undecodable, with_ce


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

    def __post_init__(self):
        if self.required & self.forbidden:
            raise ValueError("required and forbidden AUs overlap")
        for i in self.required | self.forbidden:
            if not 0 <= i < N_AU:
                raise ValueError(f"AU index {i} out of range 0..{N_AU - 1}")
        if not 0 <= self.ce < N_CE:
            raise ValueError(f"CE class {self.ce} out of range 0..{N_CE - 1}")


@dataclass
class PseudoRuleTable:
    rules: list = field(default_factory=list)


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
    ])


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
        required = _parse_au_list(m.group("req"), line_no)
        forbidden = _parse_au_list(m.group("forbid"), line_no)
        try:
            rules.append(PseudoRule(required, forbidden, int(m.group("ce"))))
        except ValueError as exc:
            raise RuleParseError(line_no, str(exc)) from None
    return PseudoRuleTable(rules=rules)


def rule_classes(au, table):
    """Each row's inferred class for an (N, 12) AU column: the one class
    whose rules fire, or -1 when no rule fires or rules of two classes do."""
    au = np.asarray(au)
    fired = np.zeros((len(au), N_CE), dtype=bool)
    for rule in table.rules:
        fired[:, rule.ce] |= ((au[:, list(rule.required)] == 1).all(axis=1)
                              & (au[:, list(rule.forbidden)] == 0).all(axis=1))
    return np.where(fired.sum(axis=1) == 1, fired.argmax(axis=1), -1)


def pseudo_infer(au_bits, table):
    """Inferred class for an AU pattern, or None when no or an ambiguous
    set of rules fires."""
    inferred = int(rule_classes(np.asarray(au_bits)[None, :], table)[0])
    return None if inferred < 0 else inferred


def pseudo_apply(records, table):
    """Fill missing CE labels from AU patterns; never overwrites.

    The labels of the records to fill (AU present, CE missing) are checked
    by LabelColumns.from_labels, so a bad one raises ValueError. Returns
    (new record list, number filled). Applying twice equals applying once.
    """
    out = list(records)
    idx = [i for i, rec in enumerate(out) if rec.labels.ce is None and rec.labels.au is not None]
    inferred = rule_classes(LabelColumns.from_labels(out[i].labels for i in idx).au, table)
    filled = [(i, ce) for i, ce in zip(idx, inferred.tolist()) if ce >= 0]
    for i, ce in filled:
        out[i] = with_ce(out[i], ce)
    return out, len(filled)
