"""Neural-network layers for the mode-recognition encoders.

Layout conventions: images are channels-last ``(batch, height, width,
channels)``, sequences are ``(batch, time, features)``, dense activations are
``(batch, features)``. Batch normalization always normalizes the trailing
axis over all leading axes.
``conv_block`` (conv, batch norm, 2x2 max-pool, ReLU, and optionally an
input norm in front of the conv) is one loop over
``CONV_BLOCK`` images at a time, and one node with a hand-written backward
while a graph is recorded. It computes in float32 inside, between float64
inputs and outputs. Under ``tensor.double_precision()`` it computes in
float64: then on running statistics its output has the bits of the chain of
standalone nodes, and batch statistics and the backward match it up to
rounding. Every other layer is float64. The standalone ``conv2d``,
``BatchNorm`` and ``max_pool`` serve the rest of the model, the gradient
checks and the per-layer probes.
``BiLSTM`` is one node with a hand-written backward through time, with the
bits of the per-step graph.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _sigmoid, conv_dtype, make_node, recording

__all__ = [
    "Module",
    "Dense",
    "Conv2D",
    "BatchNorm",
    "Dropout",
    "BiLSTM",
    "conv2d",
    "conv_block",
    "max_pool",
    "glorot_uniform",
]


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


CONV_BLOCK = 16  # images per im2col gemm and per conv_block pass; bounds the block buffers


class Module:
    """Base container: parameter/buffer discovery, freezing, state export.

    Parameters are ``Tensor`` attributes with ``requires_grad=True``; buffers
    (batch-norm running statistics) are registered explicitly. Traversal is
    sorted by attribute name, so parameter order is stable across runs.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._frozen = False

    # -- traversal -------------------------------------------------------------

    def _walk(self, prefix: str = "") -> list:
        """This module and every descendant in preorder, children by attribute name: each as
        (name prefix, module, its ``Tensor`` attributes sorted by name)."""
        attributes = sorted(vars(self).items())
        walk = [(prefix, self, [(name, value) for name, value in attributes if isinstance(value, Tensor)])]
        for name, value in attributes:
            if isinstance(value, Module):
                walk += value._walk(f"{prefix}{name}.")
        return walk

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(prefix + name, t) for prefix, _, tensors in self._walk() for name, t in tensors if t.requires_grad]

    def parameters(self) -> list[Tensor]:
        return [t for _, _, tensors in self._walk() for _, t in tensors if t.requires_grad]

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """All stored arrays: parameters (frozen or not) plus buffers."""
        arrays = []
        for prefix, module, tensors in self._walk():
            arrays += [(prefix + name, t.data) for name, t in tensors]
            arrays += [(prefix + name, array) for name, array in sorted(module._buffers.items())]
        return arrays

    # -- freezing ----------------------------------------------------------------

    def freeze(self):
        """Exclude this subtree from training: no gradients, no stat updates."""
        for _, module, tensors in self._walk():
            module._frozen = True
            for _, t in tensors:
                t.requires_grad = False
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- state -----------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: array.copy() for name, array in self.named_tensors()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_tensors())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise ValueError(f"state mismatch: missing={missing}, unexpected={unexpected}")
        for name, array in own.items():
            incoming = np.asarray(state[name], dtype=np.float64)
            if incoming.shape != array.shape:
                raise ValueError(f"shape mismatch for {name}: {incoming.shape} vs {array.shape}")
            array[...] = incoming


class Dense(Module):
    """Affine map ``x @ weight + bias`` with Glorot-uniform initialization."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        super().__init__()
        self.n_in = n_in
        self.n_out = n_out
        self.weight = Tensor(glorot_uniform(rng, (n_in, n_out), n_in, n_out), requires_grad=True)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.n_in:
            raise ValueError(f"expected {self.n_in} input features, got {x.shape[-1]}")
        return x @ self.weight + self.bias


def _conv_blocks(
    x: np.ndarray, kernel: np.ndarray, cols=None, out=None, dtype=np.float64, standardize=None, offset=None
):
    """Same-padded stride-1 cross-correlation, im2col and gemm ``CONV_BLOCK`` images at a
    time in ``dtype``; each block is copied into one zero-bordered buffer, so the batch is
    never padded whole. With ``standardize``, per-channel float64 ``(mean, inv)``, a block
    goes into the buffer as ``(x - mean) * inv`` (in float64, rounded once), and ``offset``, an
    (H, W, c_out) map, is added to each output image. ``cols`` and ``out`` (of ``dtype``) each
    hold the whole batch or one reused block (by default); yields each block's image range
    ``lo, hi`` and its (hi - lo, H, W, c_out) output."""
    batch, height, width, c_in = x.shape
    k_h, k_w, kc_in, c_out = kernel.shape
    if k_h != k_w or k_h % 2 == 0:
        raise ValueError("only odd square kernels are supported")
    if kc_in != c_in:
        raise ValueError(f"kernel expects {kc_in} input channels, input has {c_in}")
    if height < k_h or width < k_w:
        raise ValueError("spatial extent smaller than the kernel")
    pad = k_h // 2
    cols = np.empty((min(batch, CONV_BLOCK), height, width, k_h, k_w, c_in), dtype) if cols is None else cols
    out = np.empty((min(batch, CONV_BLOCK), height, width, c_out), dtype) if out is None else out
    padded = np.zeros((min(batch, CONV_BLOCK), height + 2 * pad, width + 2 * pad, c_in), dtype)  # border never written
    inside = padded[:, pad : pad + height, pad : pad + width]
    # im2col: each pixel's (k, k) window of all channels, in the kernel's (k, k, c_in) order
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k_h, k_w), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    k_flat = kernel.reshape(-1, c_out).astype(dtype, copy=False)
    if standardize is not None:  # tiled over W: no inner loop of c_in elements
        mean, inv = (np.tile(c, width) for c in standardize)
    for lo in range(0, batch, CONV_BLOCK):  # a gemm split by rows sums each output alike (tested)
        hi = min(lo + CONV_BLOCK, batch)
        block, out_block = (buf[lo:hi] if len(buf) == batch else buf[: hi - lo] for buf in (cols, out))
        if standardize is None:
            inside[: hi - lo] = x[lo:hi]
        else:  # (n, H, W * c_in) views of the buffer's inside and of x
            rows = inside[: hi - lo].reshape(hi - lo, height, -1)
            np.multiply(x[lo:hi].reshape(rows.shape) - mean, inv, out=rows)
        block[...] = windows[: hi - lo]
        np.matmul(block.reshape(-1, k_flat.shape[0]), k_flat, out=out_block.reshape(-1, c_out))
        if offset is not None:
            out_block += offset
        yield lo, hi, out_block


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Same-padded stride-1 cross-correlation.

    ``x`` is (batch, H, W, c_in), ``kernel`` is (k, k, c_in, c_out) with odd k.
    Output spatial size equals input spatial size. There is no bias: every conv
    of the model feeds batch normalization, whose mean takes one out.
    The im2col gemm runs ``CONV_BLOCK`` images at a time.
    """
    cols = np.empty((*x.shape[:3], *kernel.shape[:3])) if recording((kernel,)) else None
    out_data = np.empty((*x.shape[:3], kernel.shape[-1]))
    for _ in _conv_blocks(x.data, kernel.data, cols, out_data):
        pass
    return make_node(out_data, (x, kernel), lambda grad: _conv_backward(x, kernel, cols, grad))


def _kernel_gemm(cols: np.ndarray, grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``cols``ᵀ ``grad``: the float64 (k, k, c_in, c_out) kernel gradient of a conv whose
    im2col columns are ``cols``, one gemm in their dtype."""
    product = cols.reshape(-1, int(np.prod(shape[:3]))).T @ grad.reshape(-1, shape[-1])
    return product.reshape(shape).astype(np.float64, copy=False)


def _conv_backward(x: Tensor, kernel: Tensor, cols: np.ndarray | None, grad: np.ndarray) -> None:
    """Push ``grad``, the (batch, H, W, c_out) output gradient of a same-padded conv of ``x``,
    into ``kernel`` (one gemm on its kept im2col ``cols``) and into ``x``, each if it requires
    one, in ``grad``'s dtype; both reach the tensors as float64."""
    batch, height, width, c_in = x.shape
    k_h, k_w, _, c_out = kernel.shape
    pad = k_h // 2
    if kernel.requires_grad:
        kernel._accumulate(_kernel_gemm(cols, grad, kernel.shape))
    if x.requires_grad:
        # Input gradient tap by tap: one gemm per kernel offset, added
        # into the clipped region the padded slice actually overlaps.
        grad_flat = grad.reshape(batch * height * width, c_out)
        dx = np.zeros(x.shape, grad.dtype)
        tap = np.empty((batch * height * width, c_in), grad.dtype)
        k_data = kernel.data.astype(grad.dtype, copy=False)
        for i in range(k_h):
            for j in range(k_w):
                np.matmul(grad_flat, k_data[i, j].T, out=tap)
                di, dj = i - pad, j - pad
                src = tap.reshape(batch, height, width, c_in)[
                    :, max(0, -di) : height - max(0, di), max(0, -dj) : width - max(0, dj), :
                ]
                dx[:, max(0, di) : height - max(0, -di), max(0, dj) : width - max(0, -dj), :] += src
        x._accumulate(dx.astype(np.float64, copy=False))


def _tap_sums(image_sum: np.ndarray, k: int) -> np.ndarray:
    """The (k, k, c_out) sums of ``image_sum``, a same-padded k x k conv's (H, W, c_out) output
    gradient summed over images, over the positions where each tap reads inside the image."""
    height, width, _ = image_sum.shape
    pad = k // 2
    row_ranges = [slice(max(0, pad - i), height - max(0, i - pad)) for i in range(k)]
    col_ranges = [slice(max(0, pad - j), width - max(0, j - pad)) for j in range(k)]
    return np.array([[image_sum[r, c].sum(axis=(0, 1)) for c in col_ranges] for r in row_ranges])


class Conv2D(Module):
    """Same-padded 3x3 convolution with a Glorot-uniform kernel and no bias."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        super().__init__()
        self.kernel = Tensor(glorot_uniform(rng, (3, 3, c_in, c_out), 9 * c_in, 9 * c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.kernel)


def _pool(data: np.ndarray, out: np.ndarray | None = None):
    """2x2 stride-2 max of ``data`` into ``out``, and the four stride-2 slices and views
    it maxes over, in argmax's tie order over a block."""
    _, height, width, _ = data.shape
    if height < 2 or width < 2:
        raise ValueError("max_pool needs spatial extents >= 2")
    h2, w2 = height // 2, width // 2
    blocks = [(slice(i, 2 * h2, 2), slice(j, 2 * w2, 2)) for i in (0, 1) for j in (0, 1)]
    quads = [data[:, rows, cols] for rows, cols in blocks]
    return np.maximum(np.maximum(quads[0], quads[1]), np.maximum(quads[2], quads[3]), out=out), blocks, quads


def _first_winners(quads: list[np.ndarray], pooled: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (uint8) which of ``_pool``'s four views holds each 2x2 block's first
    maximum, NaN counting as one: argmax's pick, the element the gradient is routed to. It
    counts the leading views that lose, those neither equal to the maximum nor NaN."""
    nan = np.isnan(pooled).any()  # a 2x2 maximum is NaN exactly when one of its four is
    lost = np.ones(pooled.shape, dtype=bool)
    out[...] = 0
    for quad in quads[:3]:
        lost &= quad != pooled
        if nan:
            lost &= quad == quad
        out += lost


def _scatter(grad: np.ndarray, winners: np.ndarray, blocks, shape: tuple[int, ...]) -> np.ndarray:
    """The (``shape``) input gradient of a 2x2 pool over ``_pool``'s four ``blocks``: each
    pooled ``grad`` at its first winner, +0.0 elsewhere. That is ``np.where(won, grad, 0.0)``
    as the gradient's bits ANDed with all ones or zeros: as fast as ``grad * won`` (which
    leaves -0.0 and NaN off the winners), where ``np.copyto(..., where=)`` took 2.5x as long.
    ``dx`` has ``grad``'s dtype, its bits viewed as the signed integer of that width."""
    dx = np.zeros(shape, grad.dtype)
    bits = np.dtype(f"i{grad.itemsize}")
    grad_bits, dx_bits = grad.view(bits), dx.view(bits)
    for q, (rows, cols) in enumerate(blocks):
        won = np.negative((winners == q).view(np.int8))  # -1: every bit set
        np.bitwise_and(grad_bits, won, out=dx_bits[:, rows, cols])
    return dx


def max_pool(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; a trailing odd row/column is dropped."""
    out_data, blocks, quads = _pool(x.data)

    def backward(grad):
        winners = np.empty(out_data.shape, dtype=np.uint8)
        _first_winners(quads, out_data, winners)
        x._accumulate(_scatter(grad, winners, blocks, x.shape))

    return make_node(out_data, (x,), backward)


class BatchNorm(Module):
    """Normalize the trailing axis over all leading axes.

    Training mode uses batch statistics and updates running estimates with a
    keep rate of ``momentum``; inference mode (and frozen subtrees) use the
    running estimates only. ``eps`` is added to the variance.
    """

    eps = 1e-5
    momentum = 0.9

    def __init__(self, n_channels: int):
        super().__init__()
        self.n_channels = n_channels
        self.gain = Tensor(np.ones(n_channels), requires_grad=True)
        self.bias = Tensor(np.zeros(n_channels), requires_grad=True)
        self._buffers["running_mean"] = np.zeros(n_channels)
        self._buffers["running_var"] = np.ones(n_channels)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if training and not self._frozen:
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs a batch size >= 2 in training mode")
            return self._train_forward(x)
        wide, tile = self._wide(x.data)
        out_data, mean, inv = self._eval(wide, tile)
        mean, inv = tile(mean), tile(inv)
        gain, bias = self.gain, self.bias

        def backward(grad):
            grad_wide = grad.reshape(wide.shape)
            if bias.requires_grad:
                bias._accumulate(grad.reshape(-1, self.n_channels).sum(axis=0))
            if gain.requires_grad:
                gain._accumulate((grad_wide * ((wide - mean) * inv)).reshape(-1, self.n_channels).sum(axis=0))
            if x.requires_grad:
                x._accumulate((grad_wide * tile(gain.data) * inv).reshape(x.shape))

        return make_node(out_data.reshape(x.shape), (x, gain, bias), backward)

    def _eval(self, wide: np.ndarray, tile, out: np.ndarray | None = None):
        """Inference ``((x - mean) * inv) * gain + bias`` of a ``_wide`` view into ``out``
        (new by default, ``wide`` for in place); returns it and the per-channel running mean
        and ``inv`` = 1/sqrt(running var + eps)."""
        mean, inv = self._running()
        out = np.subtract(wide, tile(mean), out=out)
        out *= tile(inv)
        out *= tile(self.gain.data)
        out += tile(self.bias.data)
        return out, mean, inv

    def _running(self):
        """The running mean and ``inv`` = 1/sqrt(running var + eps)."""
        return self._buffers["running_mean"], 1.0 / np.sqrt(self._buffers["running_var"] + self.eps)

    def _fit(self, total: np.ndarray, total_sq: np.ndarray, count: int):
        """Batch statistics from the per-channel sums of x and x*x over ``count`` rows: updates
        the running estimates and returns the mean, ``inv`` = 1/sqrt(var + eps), and the scale
        and shift that normalize x as ``x * scale + shift``."""
        mean = total / count
        var = np.maximum(total_sq / count - mean * mean, 0.0)
        keep = self.momentum
        self._buffers["running_mean"] = keep * self._buffers["running_mean"] + (1.0 - keep) * mean
        self._buffers["running_var"] = keep * self._buffers["running_var"] + (1.0 - keep) * var
        inv = 1.0 / np.sqrt(var + self.eps)
        scale = self.gain.data * inv
        return mean, inv, scale, self.bias.data - scale * mean

    def _backprop(self, grad_sum: np.ndarray, grad_dot: np.ndarray, mean, inv, count: int):
        """Push the bias and gain gradients, from the per-channel sums of the output gradient g
        and of g*x over ``count`` rows (x normalized by ``mean`` and ``inv``), and return the
        per-channel A, B, C of the input gradient ``A*g + B*x + C`` under batch statistics, its
        closed form (Ioffe & Szegedy, arXiv:1502.03167). On running statistics it is ``A*g``."""
        grad_gain = inv * (grad_dot - mean * grad_sum)
        if self.bias.requires_grad:
            self.bias._accumulate(grad_sum)
        if self.gain.requires_grad:
            self.gain._accumulate(grad_gain)
        a_coef = self.gain.data * inv
        b_coef = -a_coef * inv * grad_gain / count
        return a_coef, b_coef, -a_coef * grad_sum / count - b_coef * mean

    def _wide(self, data: np.ndarray):
        """``data`` as (rows, W*C), W its width (1 if 2-D), and a function tiling per-channel
        constants W times in ``data``'s dtype: the (N, C) arithmetic without an inner loop of C
        elements, and without a float64 loop on a float32 map."""
        if data.shape[-1] != self.n_channels:
            raise ValueError(f"expected {self.n_channels} channels, got {data.shape[-1]}")
        width = data.shape[-2] if data.ndim > 2 else 1
        return data.reshape(-1, width * self.n_channels), lambda c: np.tile(c, width).astype(data.dtype, copy=False)

    def _train_forward(self, x: Tensor) -> Tensor:
        wide, tile = self._wide(x.data)
        flat = x.data.reshape(-1, self.n_channels)
        count = flat.shape[0]
        mean, inv, scale, shift = self._fit(flat.sum(axis=0), (flat * flat).sum(axis=0), count)
        out_data = wide * tile(scale)
        out_data += tile(shift)

        def backward(grad):
            grad_wide = grad.reshape(wide.shape)
            grad_dot = (grad_wide * wide).reshape(flat.shape).sum(axis=0)
            a_coef, b_coef, c_coef = self._backprop(grad.reshape(flat.shape).sum(axis=0), grad_dot, mean, inv, count)
            if x.requires_grad:
                dx = grad_wide * tile(a_coef)
                dx += wide * tile(b_coef)
                dx += tile(c_coef)
                x._accumulate(dx.reshape(x.shape))

        return make_node(out_data.reshape(x.shape), (x, self.gain, self.bias), backward)


def _image_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sum over images (the leading axis) of a (batch, ...) map, or of ``a * b``, in float64: each
    ``CONV_BLOCK``-image block is summed in the map's dtype (16 terms an element), and the block
    sums are added in float64. A float64 sum of a float32 map takes a casting loop several
    times slower."""
    total = np.zeros(a.shape[1:])
    for lo in range(0, len(a), CONV_BLOCK):
        rows = a[lo : lo + CONV_BLOCK].reshape(min(CONV_BLOCK, len(a) - lo), -1)
        if b is None:
            total += rows.sum(axis=0).reshape(total.shape)
        else:
            total += np.einsum("ij,ij->j", rows, b[lo : lo + CONV_BLOCK].reshape(rows.shape)).reshape(total.shape)
    return total


def _channel_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-channel float64 sum of a (batch, ..., W, C) map, or of ``a * b``: its ``_image_sum``,
    folded through its (rows, W*C) view. Folding an (N, C) view with C = 16-64 is several
    times slower."""
    width, channels = a.shape[-2:]
    return _image_sum(a, b).reshape(-1, width * channels).sum(axis=0).reshape(width, channels).sum(axis=0)


def conv_block(h: Tensor, conv: Conv2D, norm: BatchNorm, training: bool, input_norm: BatchNorm | None = None) -> Tensor:
    """``relu(max_pool(norm(conv(h), training)))`` of ``h`` (batch, H, W, c_in): (batch, H // 2,
    W // 2, c_out), ``CONV_BLOCK`` images at a time with no full-size normalized map.

    One loop normalizes each block, pools it into the quarter-size result (keeping each 2x2
    block's first winner as a uint8 index while a graph is recorded) and applies ReLU while it
    is in cache. The conv output ``y`` is kept whole only for batch statistics or a backward,
    the im2col columns only for a kernel (or input gain) gradient; otherwise each block is
    normalized in place right after its gemm. Batch statistics take every block's per-channel
    sums first, then normalize as ``y * scale + shift`` into one reused block buffer. Running
    statistics normalize through ``BatchNorm._eval``: inference and a recorded eval pass have
    the chain's bits.

    With ``input_norm`` it is ``conv(input_norm(h, training))`` that is normalized, pooled and
    rectified, and ``h`` gets no gradient. The input norm's statistics (batch statistics, which
    update its running ones, in training; running ones in eval mode or when it is frozen)
    standardize each block as it is written into the conv's zero-bordered buffer: x̂ = (h -
    mean) * inv. With gain γ and bias β the conv of γ x̂ + β inside the image is x̂'s conv with
    the kernel K scaled by γ, plus one map made once per call: the conv of β inside the image
    and zero on its padding. The backward takes S = cols(x̂)ᵀ dy, the kernel gemm, and the sums
    T of ``dy`` over the positions where each tap reads inside the image: dK = γ S + β T,
    dγ = Σ K∘S and dβ = Σ K∘T. That replaces a standalone input norm and conv1's input gradient.

    While a graph is recorded it is one node. Its backward scatters the pooled gradient to the
    winners once, as the map gradient ``dy``, and finishes it in place with the closed-form
    batch-norm gradient ``A*g + B*y + C`` (B = C = 0 on running statistics): the chain's values
    up to rounding, as the reductions run in another order.

    The im2col columns, ``y``, the normalized blocks and the backward's full-size maps are in
    ``tensor.conv_dtype()``: float32, or float64 under ``double_precision()``, where the
    statements above about the chain's bits hold (for the chain that computes the input norm as
    this block does). The per-channel statistics and constants are float64 (cast to the map's
    dtype only to apply them), their sums are taken per ``CONV_BLOCK`` images in the map's dtype
    and added in float64 (``_image_sum``), and the output and every gradient handed on are
    float64."""
    kernel = conv.kernel
    in_params = () if input_norm is None else (input_norm.gain, input_norm.bias)
    parents = (h, kernel, norm.gain, norm.bias, *in_params)
    record = recording(parents)
    if in_params and record and h.requires_grad:
        raise ValueError("a conv block with an input norm gives its input no gradient")
    batch_stats = training and not norm.frozen
    in_stats = input_norm is not None and training and not input_norm.frozen
    if (batch_stats or in_stats) and h.shape[0] < 2:
        raise ValueError("batch normalization needs a batch size >= 2 in training mode")
    batch, height, width, _ = h.shape
    out = np.empty((batch, height // 2, width // 2, kernel.shape[-1]))
    norm._wide(out)  # checks the channel count before any statistics are taken
    dtype = conv_dtype()
    count = batch * height * width
    k_data, standardize, offset = kernel.data, None, None
    if input_norm is not None:
        input_norm._wide(h.data)
        if in_stats:
            standardize = input_norm._fit(_channel_sum(h.data), _channel_sum(h.data, h.data), count)[:2]
        else:
            standardize = input_norm._running()
        k_data = kernel.data * input_norm.gain.data[:, None]
        beta_map = np.broadcast_to(input_norm.bias.data, (1, *h.shape[1:]))
        _, _, offset = next(_conv_blocks(beta_map, kernel.data, dtype=dtype))
    y = np.empty((batch, height, width, out.shape[-1]), dtype) if record or batch_stats else None
    keep_cols = recording((kernel, *in_params[:1]))  # the kernel gemm gives dK and the input gain's dγ
    cols = np.empty((*h.shape[:3], *kernel.shape[:3]), dtype) if keep_cols else None
    convs = _conv_blocks(h.data, k_data, cols, y, dtype, standardize, offset)
    if batch_stats:
        y_sum = y_sq = 0.0
        for _, _, block in convs:
            y_sum = y_sum + _channel_sum(block)
            y_sq = y_sq + _channel_sum(block, block)
        mean, inv, scale, shift = norm._fit(y_sum, y_sq, count)
        convs = ((lo, min(lo + CONV_BLOCK, batch), y[lo : lo + CONV_BLOCK]) for lo in range(0, batch, CONV_BLOCK))
    normed = None if y is None else np.empty_like(y[:CONV_BLOCK])
    winners = np.empty(out.shape, dtype=np.uint8) if record else None
    for lo, hi, block in convs:
        wide, tile = norm._wide(block)
        normed_block = block if normed is None else normed[: hi - lo]
        normed_wide = normed_block.reshape(wide.shape)
        if batch_stats:
            np.multiply(wide, tile(scale), out=normed_wide)
            normed_wide += tile(shift)
        else:  # mean and inv, like tile, are the same for every block
            _, mean, inv = norm._eval(wide, tile, out=normed_wide)
        pooled, quarters, quads = _pool(normed_block, out[lo:hi])
        if record:
            _first_winners(quads, pooled, winners[lo:hi])
        np.maximum(pooled, 0.0, out=pooled)

    def backward(grad):
        g = grad * (out > 0.0)
        dy = _scatter(g.astype(dtype, copy=False), winners, quarters, y.shape)
        a_coef, b_coef, c_coef = norm._backprop(_channel_sum(g), _channel_sum(dy, y), mean, inv, count)
        if not any(p.requires_grad for p in (h, kernel, *in_params)):
            return
        tile_a, tile_b, tile_c = tile(a_coef), tile(b_coef), tile(c_coef)
        b_y = np.empty_like(y[:CONV_BLOCK])  # B*y a block at a time: a full-size one costs page faults
        for lo in range(0, batch, CONV_BLOCK):
            hi = min(lo + CONV_BLOCK, batch)
            dy_wide = dy[lo:hi].reshape(-1, tile_a.size)
            dy_wide *= tile_a
            if batch_stats:
                b_y_wide = b_y[: hi - lo].reshape(dy_wide.shape)
                dy_wide += np.multiply(y[lo:hi].reshape(dy_wide.shape), tile_b, out=b_y_wide)
                dy_wide += tile_c
        if input_norm is None:
            _conv_backward(h, kernel, cols, dy)
            return
        gain, bias = in_params
        taps = _tap_sums(_image_sum(dy), kernel.shape[0])[:, :, None]  # (k, k, 1, c_out)
        s = None if cols is None else _kernel_gemm(cols, dy, kernel.shape)
        if kernel.requires_grad:
            kernel._accumulate(gain.data[:, None] * s + bias.data[:, None] * taps)
        if gain.requires_grad:
            gain._accumulate((kernel.data * s).sum(axis=(0, 1, 3)))
        if bias.requires_grad:
            bias._accumulate((kernel.data * taps).sum(axis=(0, 1, 3)))

    return make_node(out, parents, backward)


class Dropout(Module):
    """Inverted dropout: scaled masking in training, identity at inference."""

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate

    def __call__(self, x: Tensor, training: bool, rng: np.random.Generator | None) -> Tensor:
        if not training or self._frozen or self.rate == 0.0:
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)

        def backward(grad):
            if x.requires_grad:
                x._accumulate(grad * mask)

        return make_node(x.data * mask, (x,), backward)


class _LSTMDirection(Module):
    """The parameters of one LSTM direction and its recurrence on plain arrays.

    Gate layout along the packed weight axis is (input, forget, candidate,
    output); sigmoid gates, tanh candidate and output squashing.
    """

    def __init__(self, n_in: int, n_cells: int, rng: np.random.Generator):
        super().__init__()
        self.n_cells = n_cells
        self.w_input = Tensor(glorot_uniform(rng, (n_in, 4 * n_cells), n_in, 4 * n_cells), requires_grad=True)
        self.w_state = Tensor(glorot_uniform(rng, (n_cells, 4 * n_cells), n_cells, 4 * n_cells), requires_grad=True)
        self.bias = Tensor(np.zeros(4 * n_cells), requires_grad=True)

    def run(self, x: np.ndarray, order: range, keep: bool):
        """The final hidden state after the steps ``order`` of ``x`` (batch, time, features),
        and each step's (h, c before it, input, forget, candidate, output, tanh(c)) if ``keep``."""
        n = self.n_cells
        h = np.zeros((x.shape[0], n))
        c = np.zeros((x.shape[0], n))
        steps = []
        for t in order:
            gates = x[:, t, :] @ self.w_input.data
            gates += h @ self.w_state.data
            gates += self.bias.data
            gate_in = _sigmoid(gates[:, 0 * n : 1 * n])
            gate_forget = _sigmoid(gates[:, 1 * n : 2 * n])
            candidate = np.tanh(gates[:, 2 * n : 3 * n])
            gate_out = _sigmoid(gates[:, 3 * n : 4 * n])
            c_prev, c = c, gate_forget * c + gate_in * candidate
            tanh_c = np.tanh(c)
            if keep:
                steps.append((h, c_prev, gate_in, gate_forget, candidate, gate_out, tanh_c))
            h = gate_out * tanh_c
        return h, steps

    def backprop(self, x: np.ndarray, order: range, steps: list, dh: np.ndarray, dx: np.ndarray | None) -> None:
        """Backpropagate ``dh``, the final state's gradient, through ``steps`` in reverse: into
        the parameters that require one, and added into ``dx`` unless it is None. Each op's
        backward is ``tensor``'s in the same operand order, and each parameter sums its
        per-step gradients latest step first, so the bits are the step-by-step graph's."""
        n = self.n_cells
        sums = dc = None
        for t, (h_prev, c_prev, gate_in, gate_forget, candidate, gate_out, tanh_c) in zip(
            reversed(order), reversed(steps)
        ):
            dc_own = dh * gate_out * (1.0 - tanh_c * tanh_c)
            dc = dc_own if dc is None else dc_own + dc
            dgates = np.empty((len(dh), 4 * n))
            np.multiply(dc * candidate * gate_in, 1.0 - gate_in, out=dgates[:, 0 * n : 1 * n])
            np.multiply(dc * c_prev * gate_forget, 1.0 - gate_forget, out=dgates[:, 1 * n : 2 * n])
            np.multiply(dc * gate_in, 1.0 - candidate * candidate, out=dgates[:, 2 * n : 3 * n])
            np.multiply(dh * tanh_c * gate_out, 1.0 - gate_out, out=dgates[:, 3 * n : 4 * n])
            dgates += 0.0  # the graph's slice backward added each gate into zeros: -0.0 became 0.0
            grads = (x[:, t, :].T @ dgates, h_prev.T @ dgates, dgates.sum(axis=0))
            if sums is None:
                sums = grads
            else:
                for total, grad in zip(sums, grads):
                    total += grad
            if dx is not None:
                dx[:, t, :] += dgates @ self.w_input.data.T
            if t != order[0]:  # the first step's h and c are constants
                dh = dgates @ self.w_state.data.T
                dc = dc * gate_forget
        for param, total in zip((self.w_input, self.w_state, self.bias), sums):
            if param.requires_grad:
                param._accumulate(total)


class BiLSTM(Module):
    """Bi-directional LSTM returning the concatenated final states.

    The result is (batch, 2 * cells): the forward pass state aligned with the
    last time step followed by the backward pass state aligned with the first.
    It is one graph node with a hand-written backward through time, byte-equal
    to the graph of per-step ops it replaced (gate slices, sigmoids, products,
    one concat): the same ops in the same operand and summation order. Per-step
    arrays are kept only while a graph is recorded. Measured and left out: one
    input-projection gemm for all steps (not byte-equal in OpenBLAS 0.3.31);
    one sigmoid over the whole gate row (byte-equal, but about 3x slower at
    batch 128, its temporaries spill the L2 cache); keeping the per-step arrays
    at inference (a 128-bag pass went from 27 to 41 ms).
    """

    def __init__(self, n_in: int, n_cells: int, rng: np.random.Generator):
        super().__init__()
        self.n_in = n_in
        self.forward_dir = _LSTMDirection(n_in, n_cells, rng)
        self.backward_dir = _LSTMDirection(n_in, n_cells, rng)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ValueError("BiLSTM expects (batch, time, features)")
        if x.shape[1] < 1:
            raise ValueError("empty sequence")
        if x.shape[2] != self.n_in:
            raise ValueError(f"expected {self.n_in} input features, got {x.shape[2]}")
        directions = (self.forward_dir, self.backward_dir)
        parents = (x, *self.parameters())
        keep = recording(parents)
        orders = (range(x.shape[1]), range(x.shape[1] - 1, -1, -1))
        runs = [d.run(x.data, order, keep) for d, order in zip(directions, orders)]
        n = self.forward_dir.n_cells

        def backward(grad):
            dx = np.zeros_like(x.data) if x.requires_grad else None
            for k, (direction, order, (_, steps)) in enumerate(zip(directions, orders, runs)):
                direction.backprop(x.data, order, steps, grad[:, k * n : (k + 1) * n], dx)
            if dx is not None:
                x._accumulate(dx)

        return make_node(np.concatenate([h for h, _ in runs], axis=1), parents, backward)
