"""Streaming multi-task affective recognition on expression embeddings.

Trains and evaluates an AU -> CE -> VA network with masked multi-task
losses, rule-based CE pseudo-labeling, challenge-style metrics, and a
parallel-heads ablation variant, all on a deterministic double-precision
engine.
"""

from .data import (AU_NAMES, CE_NAMES, N_AU, N_CE, AffectRecord, Batch, LabelColumns,
                   LabelSet, batch_iter, kfold_split, load_dataset, save_dataset)
from .engine import Optimizer, ParamStore, finite_diff_check, make_rng
from .losses import LossBreakdown, ccc, multilabel_ce, softmax_ce, total_loss, va_loss
from .metrics import MetricReport, ScoreWeights, au_metrics, binary_f1, ce_metrics, \
    evaluate, track_scores
from .model import Model, NetConfig, Prediction, load_checkpoint, save_checkpoint
from .pseudo import PseudoRule, PseudoRuleTable, default_rule_table, parse_rule_file, \
    pseudo_apply, pseudo_infer
from .synth import SynthConfig, synth_generate
from .train import TrainSettings, evaluate_model, fit, run_kfold

__version__ = "0.1.0"
