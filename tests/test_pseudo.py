import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affectstream.data import AffectRecord, LabelSet
from affectstream.engine import make_rng
from affectstream.pseudo import (PseudoRule, PseudoRuleTable, RuleParseError,
                                 default_rule_table, parse_rule_file,
                                 pseudo_apply, pseudo_infer, rule_classes)

# index map for the fixed AU order
AU = {"au1": 0, "au2": 1, "au4": 2, "au6": 3, "au7": 4, "au10": 5,
      "au12": 6, "au15": 7, "au23": 8, "au24": 9, "au25": 10, "au26": 11}

HAPPINESS, SADNESS, SURPRISE, ANGER = 4, 5, 6, 1


def bits(*names):
    v = np.zeros(12, dtype=np.int64)
    for name in names:
        v[AU[name]] = 1
    return v


def test_default_table_patterns():
    table = default_rule_table()
    assert len(table.rules) == 4
    assert pseudo_infer(bits("au6", "au12"), table) == HAPPINESS
    assert pseudo_infer(bits("au1", "au4", "au15"), table) == SADNESS
    assert pseudo_infer(bits("au1", "au2", "au25"), table) == SURPRISE
    assert pseudo_infer(bits("au4", "au7", "au23"), table) == ANGER


def test_extra_irrelevant_aus_do_not_block():
    table = default_rule_table()
    assert pseudo_infer(bits("au6", "au12", "au10", "au26"), table) == HAPPINESS


def test_forbidden_au_blocks_rule():
    table = default_rule_table()
    assert pseudo_infer(bits("au6", "au12", "au4"), table) is None
    assert pseudo_infer(bits("au6", "au12", "au15"), table) is None


def test_no_rule_fires():
    table = default_rule_table()
    assert pseudo_infer(np.zeros(12, dtype=np.int64), table) is None
    assert pseudo_infer(bits("au10", "au24"), table) is None


def test_ambiguous_firing_yields_none():
    table = default_rule_table()
    # happiness and surprise patterns simultaneously
    pattern = bits("au6", "au12", "au1", "au2", "au25")
    assert pseudo_infer(pattern, table) is None


def test_multiple_rules_same_class_still_fire():
    table = PseudoRuleTable(rules=[
        PseudoRule(required=frozenset({0}), forbidden=frozenset({1}), ce=2),
        PseudoRule(required=frozenset({3}), forbidden=frozenset({4}), ce=2),
    ])
    assert pseudo_infer(bits("au1", "au6"), table) == 2


def test_rule_rejects_overlap_and_ranges():
    with pytest.raises(ValueError):
        PseudoRule(frozenset({0}), frozenset({0}), 1)
    with pytest.raises(ValueError):
        PseudoRule(frozenset({12}), frozenset(), 1)
    with pytest.raises(ValueError):
        PseudoRule(frozenset({0}), frozenset(), 7)


# -- the column evaluator against the per-rule oracle ----------------------


def fires(rule, au_bits):
    """PseudoRule.fires as it stood before rule_classes became the one
    evaluator."""
    return all(au_bits[i] == 1 for i in rule.required) and \
        all(au_bits[i] == 0 for i in rule.forbidden)


def oracle_pseudo_infer(au_bits, table):
    """pseudo_infer as it stood before rule_classes: one record, one rule at
    a time."""
    fired = {rule.ce for rule in table.rules if fires(rule, au_bits)}
    if len(fired) == 1:
        return next(iter(fired))
    return None


@st.composite
def rules(draw):
    required = draw(st.frozensets(st.integers(0, 11), max_size=4))
    forbidden = draw(st.frozensets(st.integers(0, 11).filter(lambda i: i not in required),
                                   max_size=4))
    return PseudoRule(required, forbidden, draw(st.integers(0, 6)))


# AU entries that are not 0/1 (2, -1, 0.5, NaN) neither fire a rule nor block one
AU_ENTRIES = st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, np.nan]) | st.integers(0, 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(rules(), max_size=6),
       hnp.arrays(float, st.tuples(st.integers(0, 20), st.just(12)), elements=AU_ENTRIES))
def test_rule_classes_match_the_per_rule_oracle(table_rules, au):
    table = PseudoRuleTable(rules=table_rules)
    expected = [oracle_pseudo_infer(row, table) for row in au]
    assert rule_classes(au, table).tolist() == [-1 if c is None else c for c in expected]
    inferred = [pseudo_infer(row, table) for row in au]
    assert inferred == expected
    assert all(c is None or type(c) is int for c in inferred)


# -- applying to records -------------------------------------------------


def make_record(i, au=None, ce=None):
    return AffectRecord(id=f"r{i}", embedding=np.zeros(4),
                        labels=LabelSet(au=au, ce=ce))


def test_pseudo_apply_fills_only_eligible():
    table = default_rule_table()
    records = [
        make_record(0, au=bits("au6", "au12")),              # fillable
        make_record(1, au=bits("au6", "au12"), ce=0),        # already labeled
        make_record(2, au=None),                             # no AU bits
        make_record(3, au=bits("au10")),                     # no rule fires
    ]
    out, filled = pseudo_apply(records, table)
    assert filled == 1
    assert out[0].labels.ce == HAPPINESS
    assert out[1].labels.ce == 0          # never overwritten
    assert out[2].labels.ce is None
    assert out[3].labels.ce is None
    assert records[0].labels.ce is None   # input untouched


def test_pseudo_apply_rejects_a_bad_label_of_a_record_to_fill():
    records = [make_record(0, au=bits("au6", "au12")), make_record(1, au=np.full(12, 2))]
    with pytest.raises(ValueError, match="au labels"):
        pseudo_apply(records, default_rule_table())


def test_pseudo_apply_idempotent():
    table = default_rule_table()
    rng = make_rng(50)
    records = [make_record(i, au=rng.integers(0, 2, 12)) for i in range(200)]
    once, n1 = pseudo_apply(records, table)
    twice, n2 = pseudo_apply(once, table)
    assert n1 > 0 and n2 == 0
    for a, b in zip(once, twice):
        assert a.labels.ce == b.labels.ce


def test_pseudo_apply_matches_truth_on_synthetic_data():
    from affectstream.synth import SynthConfig, synth_generate
    table = default_rule_table()
    cfg = SynthConfig(n=400, latent_dim=8, embed_dim=16, lift_hidden=8,
                      missing_ce=1.0, seed=11)
    records, truth = synth_generate(cfg, rules=table)
    assert all(r.labels.ce is None for r in records)
    filled_records, filled = pseudo_apply(records, table)
    assert filled > 0
    truth_by_id = {t.id: t for t in truth}
    for rec in filled_records:
        if rec.labels.ce is not None:
            assert rec.labels.ce == truth_by_id[rec.id].labels.ce


# -- rule files ----------------------------------------------------------


def test_parse_rule_file_round_trip(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text(
        "# prototypical patterns\n"
        "\n"
        "REQ au6, au12 FORBID au4, au15 => 4\n"
        "REQ AU1,AU4,AU15 FORBID AU12 => 5\n")
    table = parse_rule_file(path)
    assert len(table.rules) == 2
    assert pseudo_infer(bits("au6", "au12"), table) == 4
    assert pseudo_infer(bits("au1", "au4", "au15"), table) == 5


@pytest.mark.parametrize("line, bad_line_no", [
    ("REQ au99 FORBID au4 => 1", 1),
    ("REQ au6 FORBID au6 => 1", 1),
    ("REQ au6 FORBID au4 => 9", 1),
    ("this is not a rule", 1),
    ("REQ FORBID au4 => 1", 1),
])
def test_parse_rule_file_errors(tmp_path, line, bad_line_no):
    path = tmp_path / "rules.txt"
    path.write_text(line + "\n")
    with pytest.raises(RuleParseError) as err:
        parse_rule_file(path)
    assert err.value.line_no == bad_line_no


def test_parse_rule_file_error_line_counts_comments(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("# header\n\nREQ au6 FORBID au4 => 4\nnonsense here\n")
    with pytest.raises(RuleParseError) as err:
        parse_rule_file(path)
    assert err.value.line_no == 4
