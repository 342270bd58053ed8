"""Every function the benchmark tracer wraps must still exist in tabflow.

perfbench/tracer.py looks each (module, attribute) of TRACED up by name when
a traced run starts; a refactor that deletes or renames one of them would
break every traced benchmark run, so the fast suite checks the names.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for module_name, attr, _ in traced:
        assert module_name.startswith("tabflow."), module_name
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
