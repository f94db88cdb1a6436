"""The public surface: the names framefuse exports, the counts, reals and
arrays among their parameters, the names the benchmark in ``perfbench/``
looks up in the package and its modules, the README's Python API
section, which names every export and whose example runs, the README's
`module.NAME` citations, which resolve and name every size constant, the
three size constants themselves, the one JSON reader and one file writer
that every command goes through, and the one runner that works out the
workers of every stage."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import framefuse
from framefuse.cli import main
from test_rejections import ARRAYS, COUNTS, REALS, SEEDED

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SOURCE = ROOT / "src" / "framefuse"

PUBLIC = [
    "Clustering",
    "CompressConfig",
    "FormatError",
    "FrameFeatures",
    "FrameFuseError",
    "ParameterError",
    "Scene",
    "SceneSet",
    "attn_projections",
    "bench",
    "compress",
    "dataset_stats",
    "fit_fusion_weights",
    "generate_synthetic",
    "kmeans",
    "load_clip_manifest",
    "load_features",
    "merge_scene",
    "pack_clips",
    "representative_features",
    "save_features",
    "select_scenes_bsm",
    "select_scenes_kmeans",
]


def test_public_names_are_pinned():
    assert sorted(framefuse.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(framefuse, name) is not None, name


def _public_parameters(annotations):
    """(entry, parameter) of each parameter or dataclass field of the public
    surface annotated as one of *annotations*; Clustering is a result
    record nothing passes in."""
    found = set()
    for name in PUBLIC:
        obj = getattr(framefuse, name)
        if name == "Clustering" or not (
                dataclasses.is_dataclass(obj) or inspect.isfunction(inspect.unwrap(obj))):
            continue
        for param in inspect.signature(obj, eval_str=True).parameters.values():
            if param.annotation in annotations:
                found.add((name, param.name))
    return found


def test_every_public_count_has_a_count_rule_case():
    # a parameter or field annotated int, or int | None, is a count; seeds
    # have their own rule
    counts = {(entry, name) for entry, name in _public_parameters((int, int | None))
              if name != "seed"}
    assert ("load_features", "sample") in counts and ("SceneSet", "r") in counts
    assert counts <= set(COUNTS), sorted(counts - set(COUNTS))


def test_every_public_seed_has_a_seed_rule_case():
    seeds = {entry for entry, name in _public_parameters((int, int | None)) if name == "seed"}
    assert {"merge_scene", "CompressConfig"} <= seeds
    assert seeds <= set(SEEDED), sorted(seeds - set(SEEDED))


@pytest.mark.parametrize("annotations, table, known", [
    ((float,), REALS, ("fit_fusion_weights", "lr")),
    ((np.ndarray, np.ndarray | None, list[np.ndarray]), ARRAYS, ("compress", "weights")),
], ids=["reals", "arrays"])
def test_every_public_real_and_array_has_a_rule_case(annotations, table, known):
    found = _public_parameters(annotations)
    assert known in found
    assert found <= set(table), sorted(found - set(table))


def test_tracing_targets_resolve():
    # tracing.py imports only the stdlib, so loading it runs no benchmark code
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_worker_hooks_resolve():
    assert callable(framefuse.pipeline.select_scenes_kmeans)
    assert callable(framefuse.pipeline.select_scenes_bsm)
    assert callable(framefuse.select.kmeans)


def test_worker_hooks_see_every_compress(tmp_path, monkeypatch, capsys):
    # perfbench/worker.py replaces these three module globals with wrappers
    # that record each result, then checks the output against the records
    captured = {}

    def keep(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            captured[name] = result = fn(*args, **kwargs)
            return result
        monkeypatch.setattr(module, name, wrapper)

    keep(framefuse.pipeline, "select_scenes_kmeans")
    keep(framefuse.pipeline, "select_scenes_bsm")
    keep(framefuse.select, "kmeans")
    video = tmp_path / "video.fvt"
    timestamps = [0.5 * i for i in range(40)]
    data = np.random.default_rng(3).standard_normal((40, 2, 8)).astype(np.float32)
    framefuse.save_features(framefuse.FrameFeatures(data, timestamps), video)
    sampled = [timestamps[i] for i in range(0, 40, 2)]  # --frames 20 of 40
    for select, hooked in (("kmeans", "select_scenes_kmeans"), ("bsm", "select_scenes_bsm")):
        out = tmp_path / f"{select}.fvt"
        captured.clear()
        assert main(["compress", str(video), "--k", "5", "--r", "1", "--frames", "20",
                     "--select", select, "--merge", "fusion", "--seed", "4",
                     "-o", str(out)]) == 0
        expected = {hooked, "kmeans"} if select == "kmeans" else {hooked}
        assert set(captured) == expected
        if select == "kmeans":
            assert captured["kmeans"].assignments.shape == (20,)
        scenes = captured[hooked].scenes
        assert framefuse.load_features(out).frame_timestamps == tuple(
            sampled[s.representative] for s in scenes)
    capsys.readouterr()


def test_benchmark_package_lookups_are_exported():
    used = set()
    for script in ("selftest.py", "worker.py"):
        used |= set(re.findall(r"\bff\.([A-Za-z_]\w*)", (PERFBENCH / script).read_text()))
    assert used
    for name in sorted(used):
        value = getattr(framefuse, name, None)
        assert name in framefuse.__all__ or inspect.ismodule(value), name


def _python_api_section():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Python API"):]
    return section[:section.index("\n## ", 1)]


def test_readme_python_api_names_every_public_name():
    section = _python_api_section()
    missing = [name for name in framefuse.__all__ if not re.search(rf"\b{name}\b", section)]
    assert missing == []


def _readme_citations():
    # every `module.NAME` in README whose module is framefuse or one of its modules
    modules = {"framefuse", *(path.stem for path in SOURCE.glob("*.py"))}
    cited = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", (ROOT / "README.md").read_text())
    return {(module, name) for module, name in cited if module in modules}


def test_readme_citations_resolve():
    missing = []
    for module, name in sorted(_readme_citations()):
        path = "framefuse" if module == "framefuse" else f"framefuse.{module}"
        if not hasattr(importlib.import_module(path), name):
            missing.append(f"{module}.{name}")
    assert missing == []


def _size_constants():
    """(module, NAME) of each public module-level *_BYTES or *_VALUES
    constant of the package: each sizes memory or work."""
    constants = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            constants |= {(path.stem, t.id) for t in targets if isinstance(t, ast.Name)
                          and re.fullmatch(r"[A-Z][A-Z0-9_]*_(BYTES|VALUES)", t.id)}
    return constants


def test_readme_cites_every_size_constant():
    # README names every size constant; with the first test, a deleted one cannot linger
    constants = _size_constants()
    assert constants
    assert sorted(constants - _readme_citations()) == []


def test_one_size_constant_a_concept():
    # a unit of work shared among workers, a block of work memory kept in
    # L2, and the frame size below which a merge stays on one worker
    assert {c for c in _size_constants() if c[1].endswith("_BYTES")} == {
        ("parallel", "UNIT_BYTES"), ("parallel", "CACHE_BYTES"), ("merge", "THREAD_MIN_FRAME_BYTES")}


def test_readme_python_api_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", _python_api_section(), re.S)
    monkeypatch.chdir(tmp_path)
    # the inputs of the README's CLI quick start
    assert main(["gen", "--frames", "96", "--patches", "16", "--dim", "32", "--scenes", "4",
                 "--seed", "7", "-o", "f.fvt"]) == 0
    Path("clips.json").write_text(json.dumps([
        {"id": f"clip-{i}", "duration": 20.0 + 7.5 * (i % 13), "caption": f"scene {i}"}
        for i in range(60)
    ]))
    capsys.readouterr()
    exec(compile(block, "README.md", "exec"), {})
    assert "This video samples 32 frames" in capsys.readouterr().out


def _reads_or_makes_files_itself(node) -> bool:
    """Whether *node* reads text in the locale's encoding, parses JSON, or
    brings in tempfile."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        return func.attr == "read_text" or (
            func.attr == "loads" and isinstance(func.value, ast.Name) and func.value.id == "json")
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "tempfile" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")[0]
        return module == "tempfile" or (module == "json" and
                                        any(alias.name == "loads" for alias in node.names))
    return False


def test_one_json_reader_and_one_file_writer():
    # errors._read_json reads every JSON input as UTF-8 and maps its errors
    # one way; features._atomic_write writes every output file
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = set()
        if path.name == "errors.py":
            (reader,) = [node for node in tree.body
                         if isinstance(node, ast.FunctionDef) and node.name == "_read_json"]
            allowed = {id(node) for node in ast.walk(reader)}
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                  if id(node) not in allowed and _reads_or_makes_files_itself(node)]
    assert found == []



_WORKER_RULE = {"_workers", "_blas_threads"}


def _works_out_workers(node) -> bool:
    """Whether *node* imports threading or ctypes, or refers to
    parallel._workers or parallel._blas_threads."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in ("threading", "ctypes") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[0] in ("threading", "ctypes")
                or any(alias.name in _WORKER_RULE for alias in node.names))
    return (isinstance(node, ast.Name) and node.id in _WORKER_RULE
            or isinstance(node, ast.Attribute) and node.attr in _WORKER_RULE)


def test_only_parallel_works_out_the_workers():
    # parallel._run_units works out W from OpenBLAS's own thread count,
    # read through ctypes, and starts every worker thread; a stage passes
    # it a worker factory and its units
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name != "parallel.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                      if _works_out_workers(node)]
    assert found == []


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _reads_the_environment(node) -> bool:
    """Whether *node* reaches os.environ or os.getenv, by attribute or import."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in _ENVIRONMENT for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT


def test_no_module_reads_the_environment():
    # W follows numpy's OpenBLAS's own thread count; no variable is read
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                  if _reads_the_environment(node)]
    assert found == []


def test_only_parallel_states_the_worker_rule():
    # when W is 1 is said in parallel._workers and README "Workers" alone;
    # another docstring points there instead of restating it
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name != "parallel.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            found += [f"{path.name}:{getattr(node, 'lineno', 1)}" for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and "BLAS" in (ast.get_docstring(node) or "")]
    assert found == []
