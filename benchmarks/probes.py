"""Per-layer probes: modemil's own layers and feature functions, timed on a
workload's real inputs and shapes.

The nn probes walk a freshly built model of the workload's architecture
layer by layer, in training mode, on one real batch of the workload's
training bags (B = 32 bags). Each layer gets its own leaf input, so
``Tensor.backward`` from its output runs that layer's backward alone. A
probe metric is the time of every call of one op type in one training step
(for example the three conv2d calls of the acceleration encoder), as the
median over repetitions.
"""

from __future__ import annotations

import numpy as np

from modemil.accel import WINDOW_SAMPLES, band_table, magnitude_jerk, mask_augment, spectrogram
from modemil.geo import WINDOW_MINUTES, fill_gaps, loc_features
from modemil.model import EMBED_DIM, SPEC_SHAPE, ClassifierHead, TransportModeClassifier
from modemil.nn import Tensor, max_pool, relu

from tracing import Tracer, median

OPS = ("conv2d", "batchnorm", "max_pool", "bilstm", "dense", "attention")
REPS = 3
BATCH = 32


class OpTimer:
    """Times forward and backward of single layer calls, grouped by op type."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.fwd: dict[str, float] = {op: 0.0 for op in OPS}
        self.bwd: dict[str, float] = {op: 0.0 for op in OPS}
        self.conv_flops = 0.0

    def __call__(self, op: str, fn, *inputs, params=(), grad_input: bool = True):
        leaves = [Tensor(x.data if isinstance(x, Tensor) else x, requires_grad=grad_input) for x in inputs]
        for p in params:
            p.grad = None
        with self.tracer.span(f"nn.{op}.fwd") as fwd:
            out = fn(*leaves)
        first = out[0] if isinstance(out, tuple) else out
        with self.tracer.span(f"nn.{op}.bwd") as bwd:
            first.backward(np.ones_like(first.data))
        self.fwd[op] += fwd.seconds
        self.bwd[op] += bwd.seconds
        return first.data


def _accel_stack(t: OpTimer, encoder, images: np.ndarray) -> np.ndarray:
    norm = encoder.input_norm
    h = t("batchnorm", lambda x: norm(x, True), images, params=norm.parameters(), grad_input=False)
    for conv, norm in ((encoder.conv1, encoder.norm1), (encoder.conv2, encoder.norm2), (encoder.conv3, encoder.norm3)):
        batch, height, width, c_in = h.shape
        c_out = conv.kernel.shape[-1]
        t.conv_flops += 2.0 * batch * height * width * conv.kernel.shape[0] * conv.kernel.shape[1] * c_in * c_out
        h = t("conv2d", conv, h, params=conv.parameters())
        h = t("batchnorm", lambda x, n=norm: n(x, True), h, params=norm.parameters())
        h = t("max_pool", max_pool, relu(Tensor(h)))
    h = h.reshape(h.shape[0], -1)
    for dense, norm in ((encoder.fc1, encoder.fc_norm1), (encoder.fc2, encoder.fc_norm2)):
        h = t("dense", dense, h, params=dense.parameters())
        h = np.maximum(t("batchnorm", lambda x, n=norm: n(x, True), h, params=norm.parameters()), 0.0)
    return h


def _loc_stack(t: OpTimer, encoder, seq: np.ndarray, scalars: np.ndarray) -> np.ndarray:
    norm = encoder.input_norm
    h = t("batchnorm", lambda x: norm(x, True), seq, params=norm.parameters(), grad_input=False)
    h = t("bilstm", encoder.lstm, h, params=encoder.lstm.parameters())
    h = np.concatenate([h, scalars], axis=1)
    for dense, norm in ((encoder.fc1, encoder.norm1), (encoder.fc2, encoder.norm2), (encoder.fc3, encoder.norm3)):
        h = t("dense", dense, h, params=dense.parameters())
        h = np.maximum(t("batchnorm", lambda x, n=norm: n(x, True), h, params=norm.parameters()), 0.0)
    return h


def _head(t: OpTimer, head, z: np.ndarray) -> None:
    if isinstance(head, ClassifierHead):
        h = t("dense", head.fc1, z, params=head.fc1.parameters())
        h = np.maximum(t("batchnorm", lambda x: head.norm(x, True), h, params=head.norm.parameters()), 0.0)
        t("dense", head.fc2, h, params=head.fc2.parameters())
    else:
        t("dense", head.fc, z, params=head.fc.parameters())


def probe_model(arch: str, batch: dict, tracer: Tracer, seed: int) -> dict[str, float]:
    """Per-step forward/backward ms of each op type in one training step of ``arch``."""
    model = TransportModeClassifier(arch=arch, seed=seed)
    runs = []
    for _ in range(REPS + 1):  # the first repetition warms caches and is dropped
        t = OpTimer(tracer)
        embeddings = []
        if model.uses_accel:
            acc = batch["acc"][:, batch["acc"].shape[1] - model.n_accel_instances :]
            images = acc.reshape((-1,) + SPEC_SHAPE)
            h = _accel_stack(t, model.accel_encoder, images)
            embeddings.append(h.reshape(acc.shape[0], model.n_accel_instances, EMBED_DIM))
        if model.uses_loc:
            h = _loc_stack(t, model.loc_encoder, batch["loc_seq"], batch["loc_scalars"])
            embeddings.append(h.reshape(h.shape[0], 1, EMBED_DIM))
        if model.uses_attention:
            bag = np.concatenate(embeddings[:1] if arch == "fusion_concat_pp" else embeddings, axis=1)
            z = t("attention", model.attention, bag, params=model.attention.parameters())
        else:
            z = embeddings[0][:, 0]
        _head(t, model.head, z)
        runs.append(t)
    runs = runs[1:]
    out = {}
    for op in OPS:
        out[f"nn.{op}.fwd_ms"] = 1e3 * median([r.fwd[op] for r in runs])
        out[f"nn.{op}.bwd_ms"] = 1e3 * median([r.bwd[op] for r in runs])
    conv_s = median([r.fwd["conv2d"] for r in runs])
    out["nn.conv2d.fwd_gflops"] = runs[0].conv_flops / conv_s / 1e9 if conv_s > 0 else 0.0
    return out


def probe_features(sessions, features, tracer: Tracer, seed: int) -> dict[str, float]:
    """accel and geo functions on the workload's own first session."""
    session = sessions[0]
    bands = band_table()
    samples = session.accel[sorted(session.accel)[0]]
    jerk_s, spec_s = [], []
    for m in range(session.n_minutes):
        start = m * WINDOW_SAMPLES
        previous = samples[start - 1] if start > 0 else None
        with tracer.span("accel.magnitude_jerk") as span:
            window = magnitude_jerk(samples[start : start + WINDOW_SAMPLES], previous, session.accel_rate)
        jerk_s.append(span.seconds)
        with tracer.span("accel.spectrogram") as span:
            spectrogram(window, bands)
        spec_s.append(span.seconds)
    gaps_s = []
    for _ in range(5):
        with tracer.span("geo.fill_gaps") as span:
            grid = fill_gaps(session.location, session.start_time, session.n_minutes)
        gaps_s.append(span.seconds)
    loc_s = []
    for m in range(WINDOW_MINUTES - 1, session.n_minutes):
        with tracer.span("geo.loc_features") as span:
            loc_features(grid, m - (WINDOW_MINUTES - 1))
        loc_s.append(span.seconds)
    rng = np.random.default_rng(seed)
    specs = features[0].spectrograms[0]
    mask_s = []
    for m in range(min(len(specs), 300)):
        with tracer.span("accel.mask_augment") as span:
            mask_augment(specs[m], rng)
        mask_s.append(span.seconds)
    return {
        "accel.magnitude_jerk_ms": 1e3 * median(jerk_s),
        "accel.spectrogram_ms": 1e3 * median(spec_s),
        "accel.mask_augment_ms": 1e3 * median(mask_s),
        "geo.fill_gaps_ms": 1e3 * median(gaps_s),
        "geo.loc_features_ms": 1e3 * median(loc_s),
    }
