"""The names that the traced benchmark wraps are still there, and the
package exports exactly the public names it binds.

`perfbench/tracing.Tracer.install` wraps every attribute that `SPANS`
lists, read as `owner.__dict__[attr]`, so a name deleted or moved out of
its module or class fails a traced run with a KeyError, after a full
run. This checks every listed name at once.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import hypermatch

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS


def test_every_traced_name_is_bound_where_it_is_wrapped():
    missing = []
    for path, attrs in _spans().values():
        module, _, cls = path.partition(".")
        owner = importlib.import_module(f"hypermatch.{module}")
        if cls:
            owner = getattr(owner, cls)
        missing += [f"{path}.{attr}" for attr in attrs if attr not in owner.__dict__]
    assert not missing, missing


def test_the_export_list_is_every_public_name():
    # an import left behind by a deletion, or a name missing from
    # __all__, shows here; the submodules are bound too, and left out
    bound = {
        name for name, value in vars(hypermatch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(hypermatch.__all__)
    assert len(hypermatch.__all__) == len(bound)
