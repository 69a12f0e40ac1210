"""The package namespace resolves lazily, and each subcommand loads only its modules."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import azsperner

SRC = str(Path(azsperner.__file__).resolve().parents[1])

GEN = {"cli", "core", "errors", "families", "gf"}
STRUCTURE = GEN | {"properties", "flows"}
IDENTITY = STRUCTURE | {"az", "sperner"}


def _loaded_after(code: str) -> tuple[set[str], str]:
    """The azsperner submodules a fresh interpreter holds after running code,
    and what the code printed before them."""
    code += (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('azsperner.')]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": SRC}, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    *printed, loaded = done.stdout.splitlines()
    return {m.split(".", 1)[1] for m in json.loads(loaded)}, "\n".join(printed)


def test_import_loads_no_submodule():
    loaded, _ = _loaded_after("import azsperner")
    assert loaded == set()


# argv -> the modules it may load
COMMANDS = [
    (["gen", "--poset", "boolean:3"], GEN),
    (["check", "--poset", "boolean:3", "--property", "normal"], STRUCTURE),
    (["check", "--poset", "boolean:3", "--property", "strongly-regular"], STRUCTURE),
    (["cover", "--poset", "chains:3,2,2"], STRUCTURE),
    (["az", "verify", "--poset", "boolean:3", "--family", "1,2", "--identity", "thm1"], IDENTITY),
    (["sperner", "strict", "--poset", "boolean:3", "--k", "1"], STRUCTURE | {"sperner"}),
    (
        ["twopart", "verify-strict", "--p", "boolean:2", "--q", "chains:3"],
        IDENTITY | {"twopart", "mis"},
    ),
    (["suite", "--criterion", "2"], IDENTITY | {"acceptance"}),
]


@pytest.mark.parametrize("argv, allowed", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_a_command_loads_only_its_modules(argv, allowed):
    code = f"from azsperner.cli import main\nprint(main({argv!r}))"
    loaded, printed = _loaded_after(code)
    assert printed.splitlines()[-1] == "0"
    assert loaded <= allowed, loaded - allowed


def test_namespace_lists_every_public_name():
    names = azsperner.__all__
    assert len(names) == len(set(names)) == 56
    assert set(names) <= set(dir(azsperner))
    assert "__version__" in dir(azsperner)


def test_each_name_is_its_home_modules_object():
    for name, home in azsperner._HOMES.items():
        module = importlib.import_module(f"azsperner.{home}")
        assert getattr(azsperner, name) is getattr(module, name)
        namespace = {}
        exec(f"from azsperner import {name}", namespace)
        assert namespace[name] is getattr(module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        azsperner.not_a_name  # noqa: B018
    assert not hasattr(azsperner, "_not_a_name_either")
    with pytest.raises(ImportError):
        exec("from azsperner import not_a_name", {})
