"""Names other code looks up in the package: every `__all__` entry, and the
functions and methods the benchmark tracer in bench/tracer.py wraps."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import seshadri

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets() -> tuple[tuple[str, str], ...]:
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracer_targets_resolve():
    # the tracer replaces a module attribute, or a method in its class __dict__
    for module_name, attr in _tracer_targets():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)


def test_every_exported_name_exists():
    modules = [seshadri] + [importlib.import_module(f"seshadri.{info.name}")
                            for info in pkgutil.iter_modules(seshadri.__path__)
                            if info.name != "__main__"]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
