"""The benchmark's tracer wraps functions by name; those names must exist."""

import importlib.util
import pathlib

import qheisenberg  # noqa: F401  (loads every module the tracer resolves)
import qheisenberg.cli  # noqa: F401

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_is_defined_on_its_owner():
    # install() reads owner.__dict__[attr]: a rename or a move to a base
    # class would break a traced benchmark run, so check without installing
    tracer = load_tracer()
    missing = [f"{layer}.{name}: {owner_path}.{attr}"
               for layer, table in tracer.BOUNDARIES.items()
               for name, (owner_path, attrs) in table.items()
               for attr in attrs
               if attr not in vars(tracer._resolve(owner_path))]
    assert missing == []
