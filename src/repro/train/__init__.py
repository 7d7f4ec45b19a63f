"""Training harnesses reproducing the paper's experiment protocols."""

from repro.train.checkpoint import (
    RunState,
    checkpoint_name,
    load_checkpoint,
    load_model,
    load_run_state,
    save_checkpoint,
    save_run_state,
)
from repro.train.ddp_trainer import DDP_PHASES, DDPTrainer
from repro.train.graph_trainer import FaultTolerantRun, GraphClassificationTrainer
from repro.train.multi_gpu import multi_gpu_epoch_time
from repro.train.node_trainer import NodeClassificationTrainer
from repro.train.results import EpochRecord, ExperimentResult, RunResult
from repro.train.sampled_trainer import SampledNodeTrainer
from repro.train.stats import AccuracyComparison, compare_accuracies

__all__ = [
    "NodeClassificationTrainer",
    "GraphClassificationTrainer",
    "DDPTrainer",
    "DDP_PHASES",
    "SampledNodeTrainer",
    "FaultTolerantRun",
    "RunState",
    "save_run_state",
    "load_run_state",
    "multi_gpu_epoch_time",
    "EpochRecord",
    "ExperimentResult",
    "RunResult",
    "save_checkpoint",
    "load_checkpoint",
    "load_model",
    "checkpoint_name",
    "compare_accuracies",
    "AccuracyComparison",
]
