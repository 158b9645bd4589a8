"""The package namespace: lazy exports, __all__, and which submodules a call loads."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import kgcontinuum

# every exported name, in __all__ order, under the submodule that defines it
EXPORTS = {
    "context": [
        "PER_DIMENSION",
        "Dimension",
        "FeatureRegistry",
        "Finding",
        "FormalContext",
        "RegistryEntry",
        "ValidationReport",
        "attribute_frequency",
        "merge_contexts",
        "normalize_name",
        "parse_cxt",
        "parse_json_context",
        "register_feature",
        "registry_from_contexts",
        "serialize_cxt",
        "serialize_json_context",
        "singleton_features",
        "universal_features",
        "validate_context",
        "validation_json",
    ],
    "corpus": ["KG_NAMES", "ProvenanceCorpus", "load_corpus", "verify_corpus"],
    "errors": ["ContinuumError", "InputError", "IntegrityError"],
    "fca": [
        "ConceptLattice",
        "FormalConcept",
        "Implication",
        "build_lattice",
        "close_attributes",
        "close_under_implications",
        "derive_attributes",
        "derive_objects",
        "enumerate_concepts",
        "follows_from",
        "implication_basis",
        "implication_holds",
        "join",
        "lattice_json",
        "meet",
        "next_closure",
    ],
    "profiles": [
        "CostModel",
        "FeatureDelta",
        "FitnessReport",
        "KgProfile",
        "RequirementSet",
        "common_position",
        "cost_model_from_json",
        "delta_json",
        "evaluate_fitness",
        "fitness_json",
        "gap_cost",
        "object_concept",
        "profile_of",
        "requirement_from_json",
        "transformation_delta",
    ],
    "render": ["EMPTY_MARK", "Legend", "assign_layers", "legend", "to_dot"],
}
SRC = str(Path(kgcontinuum.__file__).resolve().parents[1])


def test_all_keeps_its_names_and_order():
    assert kgcontinuum.__all__ == [name for names in EXPORTS.values() for name in names]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_the_defining_modules_object(module):
    defining = importlib.import_module(f"kgcontinuum.{module}")
    for name in EXPORTS[module]:
        assert getattr(kgcontinuum, name) is getattr(defining, name)
        assert vars(kgcontinuum)[name] is getattr(defining, name)  # cached after the first read


def test_dir_and_star_import_list_every_export():
    assert set(kgcontinuum.__all__) <= set(dir(kgcontinuum))
    assert set(EXPORTS) <= set(dir(kgcontinuum))
    namespace = {}
    exec("from kgcontinuum import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(kgcontinuum.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kgcontinuum.no_such_name
    with pytest.raises(ImportError):
        exec("from kgcontinuum import no_such_name", {})


# prints the kgcontinuum.* modules loaded after each step; only the package's
# own modules are compared, whatever site imports
PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "kgcontinuum" or m.startswith("kgcontinuum."))
steps = {}
import kgcontinuum
steps["import"] = loaded()
steps["fca"] = kgcontinuum.fca.__name__
steps["after-fca"] = loaded()
print(json.dumps(steps))
"""

# runs the CLI command given in argv in a fresh interpreter and prints the kgcontinuum.* modules
# loaded after the import and after the command, and every module the two steps added. The added
# set is taken against the modules loaded before the import, so whatever site preloads does not count
CLI_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
def loaded():
    return sorted(m for m in sys.modules if m == "kgcontinuum" or m.startswith("kgcontinuum."))
before = set(sys.modules)
steps = {}
import kgcontinuum.cli
steps["import"] = loaded()
with redirect_stdout(io.StringIO()):
    steps["exit"] = kgcontinuum.cli.main(sys.argv[1:])
steps["command"] = loaded()
steps["added"] = sorted(set(sys.modules) - before)
print(json.dumps(steps))
"""
CLI_BASE = ["kgcontinuum", "kgcontinuum.cli", "kgcontinuum.context", "kgcontinuum.errors", "kgcontinuum.fca"]


def _probe(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env={"PYTHONPATH": SRC}, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_import_loads_no_submodule_until_one_is_read():
    steps = _probe(PROBE)
    assert steps["import"] == ["kgcontinuum"]
    assert steps["fca"] == "kgcontinuum.fca"
    assert steps["after-fca"] == ["kgcontinuum", "kgcontinuum.context", "kgcontinuum.errors", "kgcontinuum.fca"]


# corpus falls back to hashlib, and so to OpenSSL's _hashlib, only where the interpreter has no builtin SHA-256
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


@pytest.mark.parametrize(
    "command", [["lattice", "--corpus", "builtin", "--dimension", "combined"], ["corpus", "verify"]], ids=["lattice", "verify"]
)
def test_cli_loads_only_what_its_command_uses(command):
    steps = _probe(CLI_PROBE, *command)
    assert steps["import"] == CLI_BASE
    assert steps["exit"] == 0
    assert steps["command"] == sorted([*CLI_BASE, "kgcontinuum.corpus"])
    # the checksum uses the builtin SHA-256 and the payload is read by the module's own loader;
    # importlib.resources would import inspect on Python 3.12 and later
    unwanted = {"importlib.resources", "inspect"} | ({"_hashlib"} if BUILTIN_SHA256 else set())
    assert unwanted.isdisjoint(steps["added"])


@pytest.mark.parametrize(
    "command,modules",
    [
        (["lattice", "--context", "{context}"], []),
        (["legend", "--context", "{context}"], ["kgcontinuum.render"]),
        (["fit", "--context", "{context}", "--kg", "g", "--require", "{requirement}"], ["kgcontinuum.profiles"]),
    ],
    ids=["lattice", "legend", "fit"],
)
def test_cli_commands_load_no_dataclass_machinery(tmp_path, command, modules):
    files = {"context": tmp_path / "context.json", "requirement": tmp_path / "requirement.json"}
    files["context"].write_text(
        json.dumps({"dimension": "semantic-property", "objects": ["g", "h"], "attributes": ["a", "b"], "incidence": [[1, 0], [1, 1]]})
    )
    files["requirement"].write_text(json.dumps({"community": "c", "task": "t", "required": {"semantic-property": ["a", "b"]}}))
    steps = _probe(CLI_PROBE, *(arg.format_map(files) for arg in command))
    assert steps["import"] == CLI_BASE
    assert steps["exit"] == 0
    assert steps["command"] == sorted([*CLI_BASE, *modules])
    # the value classes are plain classes, so neither the dataclass machinery nor what it imports loads
    assert {"dataclasses", "inspect"}.isdisjoint(steps["added"])
