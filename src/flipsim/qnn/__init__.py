"""Fixed-point neural network engine: quantization, inference, gradients,
bit flipping, and desk-scale quantization-aware training."""

from .architectures import (ARCHITECTURES, FloatSpec, blob_mlp, blob_resnet,
                            build_spec, lenet_like)
from .checkpoint import (checkpoint_bytes, header_pages, load_checkpoint,
                         model_from_bytes, save_checkpoint)
from .data import Dataset, gaussian_blobs, load_idx_dataset
from .layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, ResidualAdd
from .model import (BitRef, QuantizedModel, class_fraction, loss_and_accuracy,
                    metrics_from_logits, softmax_cross_entropy)
from .quant import (DegenerateQuantizerError, bit_coefficients, decode_bits,
                    dequantize, encode_bits, quantize, round_half_away,
                    toggle_bit)
from .train import TrainConfig, TrainingFailure, train_small

__all__ = [
    "ARCHITECTURES", "BitRef", "Conv2d", "Dataset", "DegenerateQuantizerError",
    "Dense", "Flatten", "FloatSpec", "MaxPool2d", "QuantizedModel", "ReLU",
    "ResidualAdd", "TrainConfig", "TrainingFailure", "bit_coefficients",
    "blob_mlp", "blob_resnet", "build_spec", "checkpoint_bytes",
    "class_fraction", "decode_bits", "dequantize", "encode_bits",
    "gaussian_blobs", "header_pages", "lenet_like", "load_checkpoint",
    "load_idx_dataset", "loss_and_accuracy", "metrics_from_logits",
    "model_from_bytes", "quantize", "round_half_away", "save_checkpoint",
    "softmax_cross_entropy", "toggle_bit", "train_small",
]
