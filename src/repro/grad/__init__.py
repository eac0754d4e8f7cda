"""A minimal reverse-mode autodiff engine on NumPy.

This package is the training substrate for the SCALES reproduction: the
paper's networks are expressed with :class:`~repro.grad.Tensor` operations
and trained with the optimizers in :mod:`repro.optim`.
"""

from .tensor import (Tensor, as_tensor, check_dtype, custom_op, default_dtype,
                     get_default_dtype, is_grad_enabled, no_grad,
                     process_default_dtype, set_default_dtype,
                     thread_default_dtype, unbroadcast)
from .activations import (
    absolute,
    clip,
    exp,
    gelu,
    leaky_relu,
    log,
    maximum,
    relu,
    sigmoid,
    softmax,
    sqrt,
    tanh,
    where,
)
from .reduce import maxval, mean, minval, sum, var  # noqa: A004 - mirrors numpy names
from .shape import (
    broadcast_to,
    concat,
    pad2d,
    pixel_shuffle,
    pixel_unshuffle,
    reshape,
    roll,
    stack,
    swapaxes,
    transpose,
)
from .conv import (
    avg_pool2d,
    conv1d,
    conv2d,
    conv2d_output_shape,
    global_avg_pool2d,
)

__all__ = [
    "Tensor", "as_tensor", "check_dtype", "custom_op", "default_dtype",
    "get_default_dtype", "is_grad_enabled", "no_grad",
    "process_default_dtype", "set_default_dtype", "thread_default_dtype",
    "unbroadcast",
    "absolute", "clip", "exp", "gelu", "leaky_relu", "log", "maximum", "relu",
    "sigmoid", "softmax", "sqrt", "tanh", "where",
    "maxval", "mean", "minval", "sum", "var",
    "broadcast_to", "concat", "pad2d", "pixel_shuffle", "pixel_unshuffle",
    "reshape", "roll", "stack", "swapaxes", "transpose",
    "avg_pool2d", "conv1d", "conv2d", "conv2d_output_shape",
    "global_avg_pool2d",
]
