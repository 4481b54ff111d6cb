"""Multi-label loss laboratory built around none-class ranking.

Score vectors carry K+1 entries with the none class at index 0; losses,
prediction rules, metrics, data generation, and the experiment harness all
share that convention.
"""

from .consistency import (ConsistencyReport, bayes_ncre_risk,
                          ncre_conditional_risk, optimal_margin_closed_form,
                          run_consistency_experiment)
from .datagen import (Dataset, SyntheticConfig, class_prior_report, generate,
                      inject_false_negatives, inject_symmetric_noise, split,
                      strip_none_instances, take)
from .losses import (LOSS_KINDS, LossResult, atl, batch_loss, bce, bce_shifted,
                     margin_regularization, ncre_error, ncrl_final, ncrl_noreg,
                     ncrl_plain, pairwise_ranking, sigmoid, with_none_flag)
from .metrics import (ConfusionCounts, MetricsReport, average_precision,
                      confusion, evaluate, mean_average_precision, mean_ncre,
                      micro_macro_f1)
from .model import (Adam, LinearScorer, MlpScorer, TrainConfig, TrainHistory,
                    TrainResult, grad_check, learning_rate_at,
                    scorer_from_dict, scorer_to_dict, train)
from .prediction import (COARSE_GRID, FINE_GRID, adaptive_flags, global_flags,
                         native_flags, sweep_global_threshold,
                         sweep_per_label_thresholds)

__version__ = "0.1.0"
