"""Boundary-guided three-branch attention model for per-spot gene
expression prediction, with training, evaluation and cross-validation on
precomputed or synthetic feature tokens."""

__version__ = "0.1.0"

from .autodiff import Tensor, grad_check
from .data import SpotDataset, load_dataset, synth_dataset
from .model import ModelConfig, ModelParams, forward_slide
from .training import TrainConfig, cross_validate, train

__all__ = [
    "Tensor",
    "grad_check",
    "SpotDataset",
    "load_dataset",
    "synth_dataset",
    "ModelConfig",
    "ModelParams",
    "forward_slide",
    "TrainConfig",
    "cross_validate",
    "train",
]
