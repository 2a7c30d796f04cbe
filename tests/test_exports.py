"""Names other code looks up in the package: every `__all__` entry, the
functions and methods the benchmark tracer in bench/tracer.py wraps, and
the private names one library module takes from another."""

from __future__ import annotations

import ast
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


def test_private_names_cross_only_the_listed_module_boundaries():
    # integer numerators over one denominator are the series layer's own
    # representation; spreading it to another module is a decision to make
    # here, in the open. Both a private name imported from another library
    # module and a private attribute of an imported name (Name._attr) count.
    allowed_imports = {("series", "exact", "_pack"), ("series", "exact", "_unpack")}
    allowed_attributes = {("cluster", "series", "BiSeries._normal")}
    src = Path(seshadri.__file__).parent
    imports, attributes = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sources = {}  # local name -> the library module it was imported from
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                source = node.module or ""
            elif (node.module or "").startswith("seshadri."):
                source = node.module.removeprefix("seshadri.")
            else:
                continue
            for alias in node.names:
                sources[alias.asname or alias.name] = source or alias.name
                if _private(alias.name):
                    imports.add((path.stem, source, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in sources and _private(node.attr)):
                attributes.add((path.stem, sources[node.value.id], f"{node.value.id}.{node.attr}"))
    assert imports <= allowed_imports, sorted(imports - allowed_imports)
    assert attributes <= allowed_attributes, sorted(attributes - allowed_attributes)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")
