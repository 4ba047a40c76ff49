"""Experiment drivers regenerating every paper table and figure.

Each module exposes a ``run_*`` function returning structured rows plus
a ``format_*`` helper that renders the paper-style table;
``python -m repro tables`` prints them and ``tests/experiments/``
asserts their claims.  See DESIGN.md §4 for the experiment index.
"""

from repro.experiments.runner import format_table
from repro.experiments.figure2 import run_figure2, run_figure2_masking, format_figure2
from repro.experiments.figure5 import run_figure5, format_figure5
from repro.experiments.figure7 import run_figure7, format_figure7, FIGURE7_SCENARIOS
from repro.experiments.scaling import run_scaling, format_scaling
from repro.experiments.strategy_eval import (
    run_strategy_eval,
    run_strategy_eval_ladder,
    format_strategy_eval,
)
from repro.experiments.learning_eval import run_learning_eval, format_learning_eval
from repro.experiments.multifault import run_multifault, format_multifault
from repro.experiments.dynamic_eval import run_dynamic_eval, format_dynamic_eval
from repro.experiments.atms_growth import run_atms_growth, format_atms_growth
from repro.experiments.dictionary_eval import run_dictionary_eval, format_dictionary_eval
from repro.experiments.ablations import (
    run_threshold_ablation,
    run_entropy_form_ablation,
    run_granularity_ablation,
    run_envelope_validation,
)

__all__ = [
    "format_table",
    "run_figure2",
    "run_figure2_masking",
    "format_figure2",
    "run_figure5",
    "format_figure5",
    "run_figure7",
    "format_figure7",
    "FIGURE7_SCENARIOS",
    "run_scaling",
    "format_scaling",
    "run_strategy_eval",
    "run_strategy_eval_ladder",
    "format_strategy_eval",
    "run_learning_eval",
    "format_learning_eval",
    "run_multifault",
    "format_multifault",
    "run_dynamic_eval",
    "format_dynamic_eval",
    "run_atms_growth",
    "format_atms_growth",
    "run_dictionary_eval",
    "format_dictionary_eval",
    "run_threshold_ablation",
    "run_entropy_form_ablation",
    "run_granularity_ablation",
    "run_envelope_validation",
]
