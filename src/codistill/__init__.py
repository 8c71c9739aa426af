"""Online codistillation at desk scale.

Independent worker groups train replicas of one model, periodically exchange
parameter checkpoints, and add a distillation term pulling each model toward
the mean prediction of the others. The package bundles the minimal network
core, losses, optimizers, data plumbing, the distributed training engine, and
an experiment runner that reproduces the method's ablations on synthetic and
small-corpus tasks.
"""

from .nn import (Architecture, Batch, Parameters, backward, deserialize_checkpoint, forward,
                 forward_trace, init_params, param_count, predict_proba, serialize_params,
                 softmax)
from .losses import (CombinedLossSpec, SmoothingKind, combined_loss, hard_ce, kl_div,
                     logit_mse, smoothing_target, soft_ce)
from .optim import NonFiniteGradientError, OptimizerConfig, OptimizerState, init_state
from .data import (Dataset, ShardPlan, batch_stream, gen_classification, ingest_text,
                   make_shards, split_train_val, take, unigram)
from .distrib import (Checkpoint, CodistillConfig, CodistillResult, CommLedger,
                      CommReport, DivergenceError, FileCheckpointStore, GroupConfig,
                      GroupRunner, InMemoryCheckpointStore, OfflineResult, codistill_train,
                      codistill_train_concurrent, comm_report, mean_teacher_fn,
                      offline_distill, train_baseline, worker_streams)
from .metrics import (ChurnReport, MetricRecord, churn_experiment, ensemble_predict,
                      evaluate, prediction_churn, probs_nll, steps_to_target)

__version__ = "0.1.0"
