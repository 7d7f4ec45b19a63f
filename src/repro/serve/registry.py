"""Model registry: trained checkpoints behind a framework-uniform API.

Serving must not care whether a model came from the PyG-style or DGL-style
pack: the registry loads a checkpoint for any ``(framework, model,
dataset)`` key, puts the network in ``eval`` mode, and exposes one
``collate`` / ``forward`` pair.  Collation goes through the same code paths as the
training loaders (``Batch.from_data_list`` / ``dglx.batch``), so the cost
of serving-time batching lands in the clock's ``data_loading`` phase and a
serving run decomposes exactly like Figs. 1-2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.device import current_device
from repro.graph import GraphSample
from repro.loader import loading
from repro.models import ModelConfig, graph_config
from repro.nn import Module
from repro.packs import get_pack
from repro.tensor import Tensor, no_grad
from repro.train.checkpoint import PathLike, load_model


class InferenceModel:
    """One loaded model serving inference for a fixed dataset schema."""

    def __init__(self, framework: str, model: Module, config: ModelConfig, dataset: str) -> None:
        self.pack = get_pack(framework)
        self.framework = framework
        self.model = model.eval()
        self.config = config
        self.dataset = dataset
        #: Compiled forward step (``repro.compile``) when enabled; serving
        #: batches bucket by feature width, so replays dominate quickly.
        self._compiled = None

    # ------------------------------------------------------------------
    def enable_compile(self, **kwargs) -> "InferenceModel":
        """Capture-and-replay the forward pass through ``repro.compile``.

        Keyword arguments pass through to
        :class:`~repro.compile.CompiledStep` (passes, fusion config, ...).
        Returns ``self`` for chaining.
        """
        from repro.compile import CompiledStep

        self._compiled = CompiledStep(self.model, **kwargs)
        return self

    @property
    def compiled(self):
        """The active :class:`~repro.compile.CompiledStep`, or ``None``."""
        return self._compiled

    # ------------------------------------------------------------------
    def collate(self, samples: Sequence[GraphSample]):
        """Batch raw graphs the way the framework's training loader does.

        Runs under the ``data_loading`` phase: serving-time batching is the
        same CPU-side collation work the paper charges to data loading.
        """
        with loading(current_device(), len(samples)):
            inputs, _ = self.pack.collate(samples)
        return inputs

    def forward(self, batch) -> Tensor:
        """Gradient-free forward pass under the ``forward`` phase."""
        clock = current_device().clock
        with no_grad(), clock.phase("forward"):
            if self._compiled is not None:
                return self._compiled(batch)
            return self.model(batch)

    def __repr__(self) -> str:
        return (
            f"InferenceModel({self.framework}/{self.config.model}/{self.dataset}, "
            f"params={self.model.num_parameters()})"
        )


class ModelRegistry:
    """Maps ``(framework, model, dataset)`` keys to inference-ready models.

    Models can be registered in-memory (a freshly trained network) or as a
    checkpoint path; checkpoint entries are built and loaded lazily on first
    :meth:`get` and cached afterwards.
    """

    def __init__(self) -> None:
        self._loaded: Dict[Tuple[str, str, str], InferenceModel] = {}
        self._checkpoints: Dict[Tuple[str, str, str], Tuple[PathLike, ModelConfig]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _key(framework: str, model_name: str, dataset: str) -> Tuple[str, str, str]:
        return (framework, model_name.lower(), dataset.lower())

    def register_checkpoint(
        self,
        framework: str,
        model_name: str,
        dataset: str,
        path: PathLike,
        config: Optional[ModelConfig] = None,
    ) -> None:
        """Register a checkpoint to be loaded lazily on first use.

        Without an explicit ``config`` the registry derives the paper's
        Table III configuration from the dataset's feature/class counts.
        """
        get_pack(framework)  # rejects an unknown framework up front
        if config is None:
            from repro.datasets import load_dataset

            ds = load_dataset(dataset)
            config = graph_config(
                model_name, in_dim=ds.num_features, n_classes=ds.num_classes
            )
        self._checkpoints[self._key(framework, model_name, dataset)] = (path, config)

    # ------------------------------------------------------------------
    def get(self, framework: str, model_name: str, dataset: str) -> InferenceModel:
        """Return the inference model for a key, loading its checkpoint if needed."""
        key = self._key(framework, model_name, dataset)
        if key in self._loaded:
            return self._loaded[key]
        if key in self._checkpoints:
            path, config = self._checkpoints[key]
            model = load_model(framework, config, path)
            entry = InferenceModel(framework, model, config, key[2])
            self._loaded[key] = entry
            return entry
        raise KeyError(
            f"no model registered for {key}; known: {sorted(self.keys())}"
        )

    def keys(self) -> List[Tuple[str, str, str]]:
        return sorted(set(self._loaded) | set(self._checkpoints))

    def __contains__(self, key: Tuple[str, str, str]) -> bool:
        return self._key(*key) in self._loaded or self._key(*key) in self._checkpoints

    def __len__(self) -> int:
        return len(self.keys())
