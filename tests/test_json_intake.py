"""The field-typed JSON codec (``faultcast.io.from_json``/``to_json``).

Scenarios, suite configs, run manifests and a baseline's ``config`` block
are read and written by their classes' annotations.  Each kind is checked
against the hand-written reader and writer it replaced, kept in
``tests/oracles.py``: on the bundled files and the quick-start manifests,
one field spoiled, the codec rejects exactly what the oracle rejected, with
the same message, save for the names and nested objects the oracle never
checked.  The CLI tests drive ``cli.main`` in process, and the intake fuzz
mutates one field of one input JSON of ``simulate``, ``detect``,
``train-signature`` and ``predict``: each run exits 0, or 1 with one
``error:`` line, and never raises.
"""

import copy
import json
import math
import re
import warnings
from dataclasses import asdict, fields
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faultcast import cli
from faultcast.baseline import BaselineConfig
from faultcast.core import FailureClass, FaultType, KpiId, SchemaVersionError, parse_timestamp
from faultcast.evaluate import SuiteConfig
from faultcast.io import InjectedFault, RunManifest, check_fields, from_json, to_json
from faultcast.sim import FaultSpec, Pattern, Scenario, WorkloadModel, default_topology, load_scenario

import oracles

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: The values a spoiled file may hold in place of one of its own, as in the
#: baseline file's property (``test_baseline.SPOILS``).
SPOILS = [True, "3", None, math.nan, math.inf, -math.inf, 0, -1.5]

#: What ``load_json`` reports as a malformed or a foreign file.
MALFORMED = (ValueError, KeyError, TypeError, AttributeError, OverflowError, SchemaVersionError)


def bundled(kind):
    """The bundled files of one ``kind``, by name."""
    files = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in sorted(CONFIGS.glob("*.json"))}
    return {name: data for name, data in files.items() if data["kind"] == kind}


@lru_cache(maxsize=None)
def quick_start_manifests():
    """The manifests ``simulate`` writes for the quick start's leak run and
    for a fault-free run, which holds no fault and no failure."""
    return {
        name: load_scenario(CONFIGS / f"{name}.json").generate()[1].to_dict()
        for name in ("leak-sprout-constant", "deviated-healthy")
    }


def _baseline_configs():
    # a fitted model's config block: BaselineConfig's defaults, as asdict writes them
    return {"quick-start": asdict(BaselineConfig())}


#: kind -> (documents, codec reader, oracle reader, codec writer, oracle writer)
KINDS = {
    "scenario": (lambda: bundled("faultcast-scenario"), Scenario.from_dict, oracles.scenario_from_dict, None, None),
    "suite": (
        lambda: bundled("faultcast-suite"),
        SuiteConfig.from_dict,
        oracles.suite_config_from_dict,
        SuiteConfig.to_dict,
        oracles.suite_config_to_dict,
    ),
    "manifest": (
        quick_start_manifests,
        RunManifest.from_dict,
        oracles.manifest_from_dict,
        RunManifest.to_dict,
        oracles.manifest_to_dict,
    ),
    "baseline-config": (
        _baseline_configs,
        lambda data: from_json(BaselineConfig, data, prefix="config "),
        oracles.baseline_config_from_dict,
        to_json,
        asdict,
    ),
}


def _nodes(node, path=()):
    """The key path of every value below the top of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def spoiled_documents(draw):
    """(kind, path, document): one bundled document of a kind, as it is or
    with the value at ``path`` (None for none) replaced by a spoil."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    documents = KINDS[kind][0]()
    data = copy.deepcopy(documents[draw(st.sampled_from(sorted(documents)))])
    path = draw(st.none() | st.sampled_from(sorted(_nodes(data), key=repr)))
    if path is not None:
        _at(data, path[:-1])[path[-1]] = draw(st.sampled_from(SPOILS))
    return kind, path, data


def _outcome(read, data):
    try:
        return read(copy.deepcopy(data))
    except MALFORMED as exc:
        return exc


#: Nested objects: the oracles read them with ``dict()`` or by subscript, so a
#: spoiled one failed with Python's own TypeError, where the codec says
#: ``<field> <value> must be a JSON object``
NESTED = {("suite", ("workload",)), ("scenario", ("workload",)), ("manifest", ("fault",))}


@settings(max_examples=600, deadline=None)
@given(spoiled_documents())
def test_the_codec_reads_each_kind_as_its_oracle_did(case):
    kind, path, data = case
    _, read, oracle_read, write, oracle_write = KINDS[kind]
    got, expected = _outcome(read, data), _outcome(oracle_read, data)
    value = None if path is None else _at(data, path)
    if kind == "manifest" and path == ("run_id",) and not isinstance(value, str):
        # the oracle took any run_id but an empty one
        assert str(got) == f"run_id {value!r} must be a string"
    elif kind == "manifest" and path == ("fault", "pattern"):
        # the oracle took any pattern; no spoil is a Pattern value
        assert str(got) == f"{value!r} is not a valid Pattern"
    elif isinstance(expected, Exception):
        assert isinstance(got, Exception), (path, expected)
        if (kind, path) in NESTED:
            assert str(got) == f"{path[-1]} {value!r} must be a JSON object"
        elif kind == "baseline-config" and type(value) is int:
            # the oracle cast a number field's integer to a float, as no other reader did
            assert str(got) == str(expected).replace(repr(float(value)), repr(value))
        else:
            assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        assert not isinstance(got, Exception), (path, got)
        assert got == expected
        if write is not None:
            assert write(got) == oracle_write(expected)
            # and what it writes reads back to the same object
            assert read(json.loads(json.dumps(write(got)))) == got


@pytest.mark.parametrize("name", sorted(quick_start_manifests()))
def test_a_manifest_is_written_as_the_oracle_wrote_it(name):
    data = quick_start_manifests()[name]
    assert json.dumps(data) == json.dumps(oracles.manifest_to_dict(RunManifest.from_dict(data)))


#: A valid instance of each class whose constructor checks its field types
TYPED_CLASSES = {
    "suite": SuiteConfig(),
    "workload": WorkloadModel(),
    "fault": FaultSpec(FaultType.CPU_HOG, "Homer", Pattern.RANDOM, 600),
    "scenario": Scenario("run", 0, 600, 1),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(TYPED_CLASSES)), st.data())
def test_check_fields_checks_as_check_types_did_and_names_too(name, data):
    obj = copy.copy(TYPED_CLASSES[name])
    field = data.draw(st.sampled_from([f for f in fields(obj)]), label="field")
    value = data.draw(st.sampled_from(SPOILS + [2, 2.5, "x", False]), label="value")
    object.__setattr__(obj, field.name, value)  # past the constructor's own checks
    got, expected = _outcome(check_fields, obj), _outcome(oracles.check_types, obj)
    if field.type == "str" and not isinstance(value, str):
        assert str(got) == f"{field.name} {value!r} must be a string"
    else:
        assert str(got) == str(expected)


def test_the_default_topology_passes_the_checks_its_constructor_made():
    topology = default_topology()
    oracles.check_topology(topology)
    ghost = {**topology.callees, "Bono": ("Ghost",)}
    with pytest.raises(ValueError, match="callee Ghost is not an app VM"):
        oracles.check_topology(type(topology)(**{**vars(topology), "callees": ghost}))


# ---------------------------------------------------------------------------
# unknown keys and names that are not strings


@pytest.mark.parametrize(
    "kind, where",
    [
        ("scenario", ()),
        ("scenario", ("fault",)),
        ("suite", ()),
        ("suite", ("workload",)),
        ("manifest", ()),
        ("manifest", ("fault",)),
    ],
)
def test_a_key_that_is_no_field_is_rejected_by_name(kind, where):
    documents, read = KINDS[kind][:2]
    data = copy.deepcopy(next(doc for doc in documents().values() if _at(doc, where) is not None))
    _at(data, where)["workload_devation"] = 1.0
    with pytest.raises(ValueError, match=r"^unknown key 'workload_devation'$"):
        read(data)


def test_a_scenario_gives_the_injection_time_one_way():
    data = copy.deepcopy(bundled("faultcast-scenario")["leak-sprout-constant"])
    data["fault"]["injection_time"] = "2026-01-19T10:15:00Z"
    with pytest.raises(ValueError, match=r"^unknown key 'injection_time'$"):
        Scenario.from_dict(data)
    del data["fault"]["injection_min"]
    assert Scenario.from_dict(data).fault.injection_time == parse_timestamp("2026-01-19T10:15:00Z")
    data["duration_s"] = 60
    with pytest.raises(ValueError, match=r"^unknown key 'duration_s'$"):
        Scenario.from_dict(data)


def test_names_that_are_not_strings_are_rejected():
    with pytest.raises(ValueError, match=r"^KpiId.metric 5 must be a string$"):
        KpiId("Homer", 5)
    with pytest.raises(ValueError, match=r"^resource 5 must be a string$"):
        FailureClass(FaultType.MEMORY_LEAK, 5)
    with pytest.raises(ValueError, match=r"^resource \['x'\] must be a string$"):
        InjectedFault(FaultType.MEMORY_LEAK, ["x"], Pattern.CONSTANT, 0)


# ---------------------------------------------------------------------------
# manifest faults


@pytest.mark.parametrize(
    "edit, said",
    [
        (lambda d: d["fault"].update(fault_type="Normal"), "a run's fault cannot be Normal"),
        (lambda d: d["fault"].update(resource="Sprout", fault_type="ExcessiveWorkload"), "must target the SYSTEM"),
        (lambda d: d["fault"].update(resource=""), "MemoryLeak requires a resource"),
        (lambda d: d["fault"].update(pattern="Bogus"), "'Bogus' is not a valid Pattern"),
        (lambda d: d["fault"].update(injection_time="2026-01-19T13:01:00Z"), "injection_time 2026-01-19T13:01:00Z"),
        (lambda d: d["fault"].update(injection_time="2026-01-19T09:59:00Z"), "injection_time 2026-01-19T09:59:00Z"),
        (lambda d: d.update(failure_time="2026-01-19T09:00:00Z"), "failure_time 2026-01-19T09:00:00Z must lie within"),
        (lambda d: d.update(run_id=5), "run_id 5 must be a string"),
    ],
    ids=[
        "normal",
        "workload-on-a-host",
        "no-resource",
        "bogus-pattern",
        "injection-after-end",
        "injection-before-start",
        "failure-before-start",
        "numeric-run-id",
    ],
)
def test_a_manifest_fault_no_run_could_hold_is_rejected(edit, said):
    data = copy.deepcopy(quick_start_manifests()["leak-sprout-constant"])
    edit(data)
    with pytest.raises(ValueError, match=re.escape(said)):
        RunManifest.from_dict(data)


def test_a_manifest_may_place_its_fault_and_failure_at_its_ends():
    data = copy.deepcopy(quick_start_manifests()["leak-sprout-constant"])
    data["fault"]["injection_time"], data["failure_time"] = data["start"], data["end"]
    manifest = RunManifest.from_dict(data)
    assert (manifest.fault.injection_time, manifest.failure_time) == (manifest.start, manifest.end)


# ---------------------------------------------------------------------------
# the CLI, in process


def run_main(capsys, *args):
    """``cli.main(args)``'s exit code and stderr, with Python warnings as
    errors."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([str(arg) for arg in args])
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def intake(short_pipeline, tmp_path_factory):
    """The JSON inputs of one small pass, as text, and the arguments of each
    command that reads them: a 30-minute leak scenario for ``simulate``, the
    one-day baseline for ``detect``, the leak run's anomaly log and manifest
    for ``train-signature``, with the fault-free training run's, and the
    signature trained on them for ``predict``."""
    root = tmp_path_factory.mktemp("intake")
    scenario = json.loads(short_pipeline["fault_scenario"].read_text(encoding="utf-8"))
    scenario["duration_min"] = 30
    log, signature = root / "leak-anomalies.csv", root / "signature.json"
    baseline, data, manifest = (short_pipeline[key] for key in ("baseline", "fault_csv", "fault_manifest"))
    start = ["--run-start", short_pipeline["run_start"]]
    assert cli.main(["detect", "--baseline", str(baseline), "--data", str(data), "--out", str(log), *start]) == 0
    # a fault-free run, so that the windows hold two classes
    normal = ["--run", root / "training-anomalies.csv", short_pipeline["train_csv"].with_suffix(".manifest.json")]
    detect_normal = ["detect", "--baseline", baseline, "--data", short_pipeline["train_csv"], "--out", normal[1]]
    assert cli.main([str(arg) for arg in detect_normal]) == 0
    args = ["train-signature", "--baseline", str(baseline), "--run", str(log), str(manifest), *map(str, normal)]
    assert cli.main([*args, "--out", str(signature)]) == 0
    texts = {
        "scenario": json.dumps(scenario),
        "baseline": baseline.read_text(encoding="utf-8"),
        "manifest": manifest.read_text(encoding="utf-8"),
        "signature": signature.read_text(encoding="utf-8"),
    }
    commands = {
        "simulate": lambda f, out: ["simulate", "--scenario", f["scenario"], "--out", out],
        "detect": lambda f, out: ["detect", "--baseline", f["baseline"], "--data", data, "--out", out, *start],
        "train-signature": lambda f, out: [
            "train-signature", "--baseline", f["baseline"], "--run", log, f["manifest"], *normal, "--out", out,
        ],
        "predict": lambda f, out: [
            "predict", "--baseline", f["baseline"], "--signature", f["signature"], "--data", data, "--out", out,
            *start,
        ],
    }
    return texts, commands


#: The JSON files each command reads
READS = {
    "simulate": ["scenario"],
    "detect": ["baseline"],
    "train-signature": ["baseline", "manifest"],
    "predict": ["baseline", "signature"],
}

#: Values a mutated field may take: the spoils, and text, a list, an object,
#: a number past a float and a name no fault has
MUTANTS = SPOILS + ["x", ["x"], {}, 2**1024, "Normal", -1]


@st.composite
def mutations(draw, texts):
    """(command, file, text): one command and one of its JSON inputs with one
    field replaced, deleted, or joined by an unknown key."""
    command = draw(st.sampled_from(sorted(READS)))
    name = draw(st.sampled_from(READS[command]))
    data = json.loads(texts[name])
    # a field first, then one of its values: each field is as likely as a list of thousands
    groups = {}
    for path in _nodes(data):
        groups.setdefault(tuple("*" if isinstance(key, int) else key for key in path), []).append(path)
    path = draw(st.sampled_from(groups[draw(st.sampled_from(sorted(groups, key=repr)))]))
    parent = _at(data, path[:-1])
    how = draw(st.sampled_from(["replace", "replace", "delete", "unknown"]))
    if how == "replace" or not isinstance(parent, dict):
        parent[path[-1]] = draw(st.sampled_from(MUTANTS))
    elif how == "delete":
        del parent[path[-1]]
    else:
        parent["bogus"] = 1
    return command, name, json.dumps(data)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_mutated_json_input_exits_0_or_with_one_error_line(intake, tmp_path, capsys, data):
    texts, commands = intake
    command, name, text = data.draw(mutations(texts))
    files = {key: tmp_path / f"{key}.json" for key in texts}
    for key, path in files.items():
        path.write_text(text if key == name else texts[key], encoding="utf-8")
    code, err = run_main(capsys, *commands[command](files, tmp_path / "out.csv"))
    assert code in (0, 1)
    if code:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_a_manifest_resource_that_is_a_list_is_one_error_line(intake, tmp_path, capsys):
    texts, commands = intake
    manifest = json.loads(texts["manifest"])
    manifest["fault"]["resource"] = ["x"]
    files = {key: tmp_path / f"{key}.json" for key in texts}
    for key, path in files.items():
        path.write_text(json.dumps(manifest) if key == "manifest" else texts[key], encoding="utf-8")
    code, err = run_main(capsys, *commands["train-signature"](files, tmp_path / "out.csv"))
    assert (code, err) == (1, f"error: malformed {files['manifest']}: ValueError resource ['x'] must be a string\n")


@pytest.mark.parametrize(
    "name, edit, said",
    [
        ("signature", lambda d: d["classes"][-1].__setitem__(1, 5), "resource 5 must be a string"),
        ("manifest", lambda d: d.update(run_id=5), "run_id 5 must be a string"),
        ("manifest", lambda d: d.update(unexpected=True), "unknown key 'unexpected'"),
        ("manifest", lambda d: d["fault"].update(fault_type="Normal"), "a run's fault cannot be Normal"),
        ("manifest", lambda d: d["fault"].update(injection_time=d["end"][:11] + "23:00:00Z"), "must lie within"),
        ("manifest", lambda d: d["fault"].update(pattern="Bogus"), "'Bogus' is not a valid Pattern"),
        ("scenario", lambda d: d.update(run_id=7), "run_id 7 must be a string"),
        ("scenario", lambda d: d.update(workload_devation=1.0), "unknown key 'workload_devation'"),
        ("baseline", lambda d: d["config"].update(lag=3), "unknown config key 'lag'"),
    ],
    ids=[
        "signature-class-resource",
        "manifest-run-id",
        "manifest-unknown-key",
        "manifest-normal-fault",
        "manifest-late-injection",
        "manifest-bogus-pattern",
        "scenario-run-id",
        "scenario-unknown-key",
        "baseline-config-unknown-key",
    ],
)
def test_a_json_input_the_codec_rejects_is_one_error_line(intake, tmp_path, capsys, name, edit, said):
    texts, commands = intake
    command = {"signature": "predict", "manifest": "train-signature", "scenario": "simulate"}.get(name, "detect")
    data = json.loads(texts[name])
    edit(data)
    files = {key: tmp_path / f"{key}.json" for key in texts}
    for key, path in files.items():
        path.write_text(json.dumps(data) if key == name else texts[key], encoding="utf-8")
    code, err = run_main(capsys, *commands[command](files, tmp_path / "out.csv"))
    assert code == 1
    assert err.startswith(f"error: malformed {files[name]}: ValueError ") and len(err.splitlines()) == 1, err
    assert said in err, err
    assert not (tmp_path / "out.csv").exists()


def test_the_intake_commands_accept_their_unmutated_inputs(intake, tmp_path, capsys):
    texts, commands = intake
    files = {key: tmp_path / f"{key}.json" for key in texts}
    for key, path in files.items():
        path.write_text(texts[key], encoding="utf-8")
    for command in sorted(commands):
        assert run_main(capsys, *commands[command](files, tmp_path / f"{command}.csv")) == (0, ""), command
