"""``repro.nn`` — a from-scratch deep-learning substrate (PyTorch stand-in).

Provides tensors with reverse-mode autograd, a ``Module`` hierarchy with the
forward pre/post hooks that GoldenEye instruments, common layers, optimizers,
and state-dict serialization.
"""

from . import functional, init
from .attention import MultiHeadSelfAttention, TransformerEncoderBlock, TransformerMLP
from .layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from .module import HookHandle, Module, ModuleList, Sequential
from .optim import SGD, Adam, Optimizer
from .serialization import load_model, load_state_dict, save_model, save_state_dict
from .tensor import (
    Parameter,
    Tensor,
    arange,
    cat,
    is_grad_enabled,
    no_grad,
    ones,
    rand,
    randn,
    set_grad_enabled,
    stack,
    tensor,
    zeros,
)

__all__ = [
    "functional",
    "init",
    "Tensor",
    "Parameter",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "tensor",
    "zeros",
    "ones",
    "arange",
    "randn",
    "rand",
    "cat",
    "stack",
    "Module",
    "ModuleList",
    "Sequential",
    "HookHandle",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "Embedding",
    "MultiHeadSelfAttention",
    "TransformerEncoderBlock",
    "TransformerMLP",
    "Optimizer",
    "SGD",
    "Adam",
    "save_state_dict",
    "load_state_dict",
    "save_model",
    "load_model",
]
