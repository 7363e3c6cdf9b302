"""Word-level RNN language modeling with a trainable gate, computed from the
current input word, that rescales the model's output logits before the
softmax. Includes corpus handling, two-phase training, perplexity
evaluation, model ensembling with a single shared gate, and gate-weight
inspection.

Submodules are imported lazily so the command-line entry point can configure
thread limits before any numerical library loads.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "kernels",
    "corpus",
    "model",
    "gate",
    "recipe",
    "training",
    "evaluate",
    "checkpoint",
    "synthdata",
    "cli",
)

__all__ = list(_SUBMODULES)


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
