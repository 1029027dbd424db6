"""Model zoo (LeNet-5 and a small MLP) as an extractor/classifier split,
plus the per-client linear gating network."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .numerics import graph
from .numerics.tensor import Tensor

ARCHITECTURES = ("lenet5", "mlp")
GATE_INPUT_MODES = ("raw", "feature")

LENET5_FEATURE_DIM = 400  # 16 filters x 5 x 5 after the second pool


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    channels: int = 1
    side: int = 32
    classes: int = 10
    hidden_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"architecture: unsupported {self.architecture!r}, expected one of {ARCHITECTURES}")
        if self.channels < 1:
            raise ConfigError(f"channels: must be positive, got {self.channels}")
        if self.classes < 2:
            raise ConfigError(f"classes: need at least 2, got {self.classes}")
        if self.architecture == "lenet5" and self.side != 32:
            raise ConfigError(f"side: lenet5 expects 32x32 inputs, got {self.side}")
        if self.architecture == "mlp" and not self.hidden_sizes:
            raise ConfigError("hidden_sizes: mlp needs at least one hidden layer")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if min(self.hidden_sizes, default=1) < 1:
            raise ConfigError(f"hidden_sizes: every width must be positive, got {list(self.hidden_sizes)}")

    def to_json(self) -> dict:
        """The spec as plain JSON data, as checkpoints and run manifests record it."""
        return {**asdict(self), "hidden_sizes": list(self.hidden_sizes)}

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.side, self.side)

    @property
    def raw_input_dim(self) -> int:
        return self.channels * self.side * self.side

    @property
    def feature_dim(self) -> int:
        """Width of the activations between extractor and classifier."""
        if self.architecture == "lenet5":
            return LENET5_FEATURE_DIM
        return self.hidden_sizes[-1]


@dataclass(frozen=True)
class ModelParams:
    """Ordered, named parameter tensors for one ModelSpec: the feature
    extractor's layers first, then the classifier's."""

    spec: ModelSpec
    tensors: dict[str, Tensor]

    def count(self) -> int:
        return sum(t.size for t in self.tensors.values())

    @property
    def extractor(self) -> dict[str, Tensor]:
        """The feature extractor's tensors, shared with ``tensors``."""
        return self._part(0)

    @property
    def classifier(self) -> dict[str, Tensor]:
        """The classifier head's tensors, shared with ``tensors``."""
        return self._part(1)

    def _part(self, index: int) -> dict[str, Tensor]:
        layers = {name for _, name, _ in _layer_plan(self.spec)[index] if name}
        return {key: t for key, t in self.tensors.items() if key.split(".", 1)[0] in layers}


# Layer plans. Each entry is (kind, name, meta): conv (filters, kernel),
# dense (in, out), and parameter-free relu / pool / flatten steps.
# LeNet-5 pools before its relu. Max is monotone, so relu(pool(x)) ==
# pool(relu(x)) bit for bit, gradients included: a window with a positive
# maximum routes to the same first-maximum cell, and one without passes no
# gradient either way. The relu then touches a quarter of the elements.


def _layer_plan(spec: ModelSpec) -> tuple[list, list]:
    if spec.architecture == "lenet5":
        extractor = [
            ("conv", "conv1", (6, spec.channels, 5)),
            ("pool", None, None),
            ("relu", None, None),
            ("conv", "conv2", (16, 6, 5)),
            ("pool", None, None),
            ("relu", None, None),
            ("flatten", None, None),
        ]
        classifier = [
            ("dense", "fc1", (LENET5_FEATURE_DIM, 120)),
            ("relu", None, None),
            ("dense", "fc2", (120, 84)),
            ("relu", None, None),
            ("dense", "fc3", (84, spec.classes)),
        ]
        return extractor, classifier
    extractor = [("flatten", None, None)]
    prev = spec.raw_input_dim
    for i, width in enumerate(spec.hidden_sizes, start=1):
        extractor.append(("dense", f"hidden{i}", (prev, width)))
        extractor.append(("relu", None, None))
        prev = width
    classifier = [("dense", "out", (prev, spec.classes))]
    return extractor, classifier


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter tensor of a spec, in ``build_model``'s order."""
    shapes = {}
    for kind, name, meta in _layer_plan(spec)[0] + _layer_plan(spec)[1]:
        if name is None:
            continue
        if kind == "conv":
            filters, in_ch, k = meta
            shapes[f"{name}.weight"], shapes[f"{name}.bias"] = (filters, in_ch, k, k), (filters,)
        else:
            fan_in, out = meta
            shapes[f"{name}.weight"], shapes[f"{name}.bias"] = (fan_in, out), (out,)
    return shapes


def build_model(spec: ModelSpec, seed: int) -> ModelParams:
    """Initialize parameters: weights uniform in +-1/sqrt(fan_in), biases zero.
    A conv weight (F, C, k, k) reads C*k*k inputs, a dense weight (in, out) reads in."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith(".bias"):
            tensors[name] = Tensor._wrap(np.zeros(shape))
            continue
        bound = 1.0 / np.sqrt(math.prod(shape[1:]) if len(shape) == 4 else shape[0])
        tensors[name] = Tensor._wrap(rng.uniform(-bound, bound, size=shape))
    return ModelParams(spec, tensors)


def split_model(params: ModelParams) -> ModelParams:
    """The model itself, which exposes ``extractor`` and ``classifier``; the
    benchmark's output checks still call this name."""
    return params


def _run_plan(plan: list, values: dict[str, graph.Value], x: graph.Value) -> graph.Value:
    out = x
    for kind, name, _ in plan:
        if kind == "conv":
            out = graph.conv2d(out, values[f"{name}.weight"], values[f"{name}.bias"])
        elif kind == "dense":
            out = graph.dense(out, values[f"{name}.weight"], values[f"{name}.bias"])
        elif kind == "relu":
            out = graph.relu(out)
        elif kind == "pool":
            out = graph.max_pool2x2(out)
        else:
            out = graph.flatten(out)
    return out


def param_consts(tensors: dict[str, Tensor]) -> dict[str, graph.Value]:
    """Constant parameters for inference, which records no graph."""
    return {name: graph.const(t) for name, t in tensors.items()}


def extract_graph(spec: ModelSpec, values: dict[str, graph.Value], x: graph.Value) -> graph.Value:
    return _run_plan(_layer_plan(spec)[0], values, x)


def classify_graph(spec: ModelSpec, values: dict[str, graph.Value], a: graph.Value) -> graph.Value:
    return _run_plan(_layer_plan(spec)[1], values, a)


def forward_graph(spec: ModelSpec, values: dict[str, graph.Value], x: graph.Value) -> graph.Value:
    return classify_graph(spec, values, extract_graph(spec, values, x))


def gate_graph(values: dict[str, graph.Value], v: graph.Value) -> graph.Value:
    """Mixing weight g = sigmoid(v.w + b) of gate parameters ``{"weight",
    "bias"}`` for gate inputs (..., input_dim); g has shape (...). A stack of
    G gates has weight (G, D, 1) and bias (G, 1)."""
    w, b = values["weight"], values["bias"]
    ws, bs = w.data.shape, b.data.shape
    if len(ws) < 2 or ws[-1] != 1 or bs != ws[:-2] + (1,):
        raise DimensionError(f"gate weight {ws} and bias {bs} are not (..., input_dim, 1) and (..., 1)")
    if v.data.shape[-1] != ws[-2]:
        raise DimensionError(f"gate input {v.data.shape} does not match gate dim {ws[-2]}")
    return graph.sigmoid(graph.reshape(graph.dense(v, w, b), v.data.shape[:-1]))


def _check_input(spec: ModelSpec, x: Tensor) -> tuple[np.ndarray, bool]:
    single = x.ndim == 3
    data = x.data[None] if single else x.data
    if data.ndim != 4 or data.shape[1:] != spec.input_shape:
        raise DimensionError(f"model input {x.shape} does not match spec {spec.input_shape}")
    return data, single


def forward(model: ModelParams, x: Tensor) -> Tensor:
    """Raw logits for a batch (B,C,S,S) or a single example (C,S,S)."""
    data, single = _check_input(model.spec, x)
    out = forward_graph(model.spec, param_consts(model.tensors), graph.const(data)).data
    return Tensor._wrap(out[0] if single else out)


def extract_features(model: ModelParams, x: Tensor) -> Tensor:
    """Activations between extractor and classifier (length feature_dim)."""
    data, single = _check_input(model.spec, x)
    out = extract_graph(model.spec, param_consts(model.extractor), graph.const(data)).data
    return Tensor._wrap(out[0] if single else out)


def classify(model: ModelParams, a: Tensor, classifier: dict[str, Tensor] | None = None) -> Tensor:
    """Classifier logits from features; ``classifier`` overrides the model's head."""
    head = model.classifier if classifier is None else classifier
    single = a.ndim == 1
    data = a.data[None] if single else a.data
    dim = model.spec.feature_dim
    if data.ndim != 2 or data.shape[1] != dim:
        raise DimensionError(f"features {a.shape} do not match feature_dim {dim}")
    out = classify_graph(model.spec, param_consts(head), graph.const(data)).data
    return Tensor._wrap(out[0] if single else out)


def gate_input_dim(spec: ModelSpec, input_mode: str) -> int:
    if input_mode == "raw":
        return spec.raw_input_dim
    if input_mode == "feature":
        return spec.feature_dim
    raise ConfigError(f"input_mode: expected one of {GATE_INPUT_MODES}, got {input_mode!r}")


def init_gate(spec: ModelSpec, input_mode: str) -> dict[str, Tensor]:
    """Zero-initialized gate ``{"weight": (input_dim, 1), "bias": (1,)}``,
    so the first mixing weight is 0.5 everywhere."""
    dim = gate_input_dim(spec, input_mode)
    return {"weight": Tensor._wrap(np.zeros((dim, 1))), "bias": Tensor._wrap(np.zeros(1))}
