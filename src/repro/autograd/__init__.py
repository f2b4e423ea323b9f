"""Minimal reverse-mode automatic differentiation engine on numpy.

This is the tensor substrate for the whole reproduction: the supernet, the
Gumbel-Softmax samplers, the hardware performance/resource formulas and the
combined EDD loss (Eq. 1) are all expressed as :class:`Tensor` graphs so a
single ``backward()`` produces gradients for DNN weights *and* implementation
variables alike — exactly the property the paper's formulation needs.

Design notes
------------
* Tensors hold numpy arrays in the policy dtype — ``float32`` by default,
  switchable via :func:`set_default_dtype` / the :func:`default_dtype`
  context manager (``float64`` is retained for gradcheck-grade numerics).
  Gradients are dense arrays of the same shape and dtype.
* Each primitive op records its parents and a backward closure; ``backward``
  runs a topological sort.  There is no tape object — the graph *is* the
  tape.
* Broadcasting follows numpy semantics; gradients are summed back to the
  parent shape.
"""

from repro.autograd.tensor import (
    Tensor,
    default_dtype,
    frozen,
    get_default_dtype,
    no_grad,
    set_default_dtype,
    tensor,
)
from repro.autograd.ops_basic import (
    add,
    div,
    exp,
    log,
    maximum,
    mul,
    neg,
    pow_,
    round_ste,
    sigmoid,
    sqrt,
    sub,
    tanh,
    where,
)
from repro.autograd.ops_shape import (
    broadcast_to,
    concat,
    flatten,
    getitem,
    pad2d,
    reshape,
    transpose,
)
from repro.autograd.ops_reduce import logsumexp, max_reduce, mean, sum_reduce
from repro.autograd.ops_nn import (
    avg_pool2d,
    max_pool2d,
    conv2d,
    global_avg_pool2d,
    linear,
    log_softmax,
    matmul,
    relu,
    relu6,
    softmax,
)
from repro.autograd.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "add",
    "default_dtype",
    "frozen",
    "get_default_dtype",
    "set_default_dtype",
    "avg_pool2d",
    "broadcast_to",
    "concat",
    "conv2d",
    "div",
    "exp",
    "flatten",
    "getitem",
    "global_avg_pool2d",
    "gradcheck",
    "linear",
    "log",
    "log_softmax",
    "logsumexp",
    "matmul",
    "max_pool2d",
    "max_reduce",
    "maximum",
    "mean",
    "mul",
    "neg",
    "no_grad",
    "pad2d",
    "pow_",
    "relu",
    "relu6",
    "reshape",
    "round_ste",
    "sigmoid",
    "softmax",
    "sqrt",
    "sub",
    "sum_reduce",
    "tanh",
    "tensor",
    "transpose",
    "where",
]
