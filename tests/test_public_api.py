"""Public API surface tests: everything README documents must import."""

import dataclasses
import glob
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"
    assert repro.__version__


def test_core_exports():
    from repro import core

    for name in core.__all__:
        assert hasattr(core, name), f"repro.core.{name} missing"


def _modules_after(imports: str, then: str = "") -> set[str]:
    """``sys.modules`` of a clean interpreter after ``import <imports>``
    and the statements *then*."""
    probe = f"import sys, {imports}\n{then}\nprint('\\n'.join(sys.modules))\n"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return set(out.stdout.split())


def test_import_repro_does_not_load_the_batch_kernel():
    """The kernel is a serve accelerator: the library loads without it."""
    loaded = _modules_after("repro, repro.core, repro.stream")
    assert not {m for m in loaded if m.startswith("repro.core.backends")}


_FIT_AND_EVALUATE = """
from repro import CLUSEQ, CluseqParams, generate_clustered_database
from repro.evaluation import evaluate_clustering
db = generate_clustered_database(
    num_sequences=40, num_clusters=2, avg_length=30, alphabet_size=4, seed=7
).database
result = CLUSEQ(CluseqParams(k=2, significance_threshold=3, seed=0)).fit(db)
report = evaluate_clustering(db.labels, result.labels())
assert report.num_sequences == 40
"""


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.serve", "repro.stream", "repro.evaluation"]
)
def test_import_does_not_load_scipy(module):
    """numpy is the one runtime dependency: no import, fit or evaluation
    loads scipy."""
    loaded = _modules_after(module, _FIT_AND_EVALUATE)
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_sequences_exports():
    from repro import sequences

    for name in sequences.__all__:
        assert hasattr(sequences, name)


def test_baselines_exports():
    from repro import baselines

    for name in baselines.__all__:
        assert hasattr(baselines, name)


def test_evaluation_exports():
    from repro import evaluation

    for name in evaluation.__all__:
        assert hasattr(evaluation, name)


def test_datasets_exports():
    from repro import datasets

    for name in datasets.__all__:
        assert hasattr(datasets, name)


@pytest.mark.parametrize(
    "module",
    [
        "repro.experiments.table2_model_comparison",
        "repro.experiments.table3_protein_families",
        "repro.experiments.table4_languages",
        "repro.experiments.table5_initial_k",
        "repro.experiments.table6_initial_t",
        "repro.experiments.fig3_similarity_histogram",
        "repro.experiments.fig4_pst_size",
        "repro.experiments.fig5_sample_size",
        "repro.experiments.fig6_scalability",
        "repro.experiments.ordering_policies",
        "repro.experiments.outlier_robustness",
        "repro.experiments.ablation_modes",
        "repro.experiments.ablation_pruning",
        "repro.experiments.ablation_smoothing",
        "repro.cli",
        "repro.__main__",
    ],
)
def test_modules_importable(module):
    importlib.import_module(module)


def test_docstrings_present():
    """Every public module and class carries a docstring."""
    import repro
    from repro.core import cluseq, pst, similarity, threshold
    from repro.sequences import alphabet, database

    for module in (repro, cluseq, pst, similarity, threshold, alphabet, database):
        assert module.__doc__, f"{module.__name__} missing docstring"

    from repro import CLUSEQ, Cluster, CluseqParams, ProbabilisticSuffixTree

    for cls in (CLUSEQ, Cluster, CluseqParams, ProbabilisticSuffixTree):
        assert cls.__doc__, f"{cls.__name__} missing docstring"


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", os.path.join("docs", "*.md")]


def _documented_references() -> set[str]:
    """Every backticked ``repro.<dotted>`` name in the docs, minus
    schema names such as ``repro.bench/v1``."""
    refs = set()
    for pattern in DOCS:
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path, encoding="utf-8") as handle:
                spans = re.findall(r"`([^`\n]+)`", handle.read())
            for span in spans:
                for match in re.finditer(r"(?<![\w.])(repro(?:\.\w+)+)(/v)?", span):
                    if not match.group(2):
                        refs.add(match.group(1))
    return refs


def _resolve(dotted: str) -> object:
    """Import the longest module prefix of *dotted*, then ``getattr``
    the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _exported_classes() -> dict[str, type]:
    """Every class in the ``__all__`` of a ``repro`` package, by name."""
    import repro

    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return {
        name: obj
        for package in packages
        for name in getattr(package, "__all__", ())
        if inspect.isclass(obj := getattr(package, name))
    }


def _documented_class_attributes(classes: dict[str, type]) -> set[tuple[str, str]]:
    """Every backticked ``Class.attr`` or ``Class.attr()`` in the docs
    whose ``Class`` is one of *classes*."""
    refs = set()
    for pattern in DOCS:
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path, encoding="utf-8") as handle:
                spans = re.findall(r"`([^`\n]+)`", handle.read())
            for span in spans:
                match = re.fullmatch(r"(\w+)\.(\w+)(?:\(\))?", span)
                if match and match.group(1) in classes:
                    refs.add((match.group(1), match.group(2)))
    return refs


def _has_attribute(cls: type, attr: str) -> bool:
    """A class attribute, method or property, or a dataclass field."""
    if hasattr(cls, attr):
        return True
    return dataclasses.is_dataclass(cls) and attr in {
        field.name for field in dataclasses.fields(cls)
    }


#: The document whose "Removed metrics" table may name undeclared metrics.
OBSERVABILITY_DOC = os.path.join("docs", "OBSERVABILITY.md")


def _removed_metrics() -> set[str]:
    """The first-cell names of the "Removed metrics" table: metrics the
    registry no longer holds, each with the home of its fact."""
    with open(os.path.join(ROOT, OBSERVABILITY_DOC), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Removed metrics\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE))


#: A dotted lowercase name: ``similarity.calls``, ``span.cluseq.seed``.
_DOTTED_NAME = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+")


def _harness_metrics() -> set[str]:
    """The metric names ``BENCHMARK.json`` declares, and the harness
    layer behind each ``share.<layer>`` metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = {metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]}
    return names | {name.removeprefix("share.") for name in names}


def _is_span_path(name: str) -> bool:
    """A declared span, or a chain of them, each nested in the one
    before it (``cluseq.recluster``, ``stream.batch.stream.score``)."""
    from repro.obs.names import SPAN_PREFIXES, SPANS

    if name in SPANS or name.startswith(SPAN_PREFIXES):
        return True
    parts = name.split(".")
    return any(
        ".".join(parts[:cut]) in SPANS and _is_span_path(".".join(parts[cut:]))
        for cut in range(1, len(parts))
    )


def _is_module_attribute(name: str) -> bool:
    """An attribute of ``repro.core.<first>`` or ``repro.<first>``
    (``similarity.score_row``)."""
    for package in ("repro.core", "repro"):
        try:
            _resolve(f"{package}.{name}")
        except (ImportError, AttributeError):
            continue
        return True
    return False


def _telemetry_name_resolves(name: str, harness: set[str]) -> bool:
    from repro.obs.names import METRIC_PREFIXES, METRICS

    return (
        name in METRICS
        or _is_span_path(name)
        or any(
            name.startswith(prefix) and _is_span_path(name[len(prefix):])
            for prefix in METRIC_PREFIXES
        )
        or name in harness
        or _is_module_attribute(name)
    )


def _documented_telemetry_names(harness: set[str]) -> dict[str, set[str]]:
    """Every backticked dotted lowercase name in the docs whose first
    part is the first part of a declared name (a ``repro.obs.names``
    metric or span, or a ``BENCHMARK.json`` metric), with the documents
    that use it. File names such as ``cluseq.py`` are left out."""
    from repro.obs.names import METRICS, SPANS

    roots = {name.split(".", 1)[0] for name in METRICS | SPANS | harness}
    names: dict[str, set[str]] = {}
    for pattern in DOCS:
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path, encoding="utf-8") as handle:
                spans = re.findall(r"`([^`\n]+)`", handle.read())
            for span in spans:
                if (
                    _DOTTED_NAME.fullmatch(span)
                    and span.split(".", 1)[0] in roots
                    and not _FILE_PATH.fullmatch(span)
                ):
                    names.setdefault(span, set()).add(os.path.relpath(path, ROOT))
    return names


def test_documented_references_resolve():
    """A renamed or deleted name fails here, not in a reader's session."""
    refs = _documented_references()
    assert refs, "no repro.* references found in the docs"
    missing = []
    for ref in sorted(refs):
        try:
            _resolve(ref)
        except (ImportError, AttributeError):
            missing.append(ref)
    assert not missing, f"docs name what does not exist: {missing}"
    classes = _exported_classes()
    members = _documented_class_attributes(classes)
    assert members, "no Class.attr references found in the docs"
    missing_members = [
        f"{name}.{attr}"
        for name, attr in sorted(members)
        if not _has_attribute(classes[name], attr)
    ]
    assert not missing_members, f"docs name what does not exist: {missing_members}"
    harness = _harness_metrics()
    names = _documented_telemetry_names(harness)
    assert names, "no telemetry names found in the docs"
    removed = _removed_metrics()
    unknown = sorted(
        f"{name} ({', '.join(sorted(paths))})"
        for name, paths in names.items()
        if not _telemetry_name_resolves(name, harness)
        and not (name in removed and paths == {OBSERVABILITY_DOC})
    )
    assert not unknown, f"docs name telemetry that is not declared: {unknown}"
    from repro.obs.names import METRICS

    assert removed, "no removed metrics found in the docs"
    assert not sorted(removed & METRICS), "a removed metric is still declared"


#: Backticked file names the docs use as examples of a run's output,
#: not as files of the repository.
EXAMPLE_OUTPUT_FILES = {"checkpoint.json", "journal.jsonl", "model.json"}

#: Where a documented path may be rooted: the repository, the source
#: tree (``repro/...``), the package (``core/...``) and the benchmarks.
PATH_BASES = ["", "src", os.path.join("src", "repro"), "benchmarks"]

_FILE_PATH = re.compile(
    r"([\w.-]+(?:/[\w.-]+)*\.(?:py|md|json|jsonl|toml|ya?ml|txt|cfg|sh))"
    r"(?:::[\w:\[\]-]*|:\d[\d–-]*)?"
)


def test_documented_file_paths_exist():
    """Every backticked file path in the docs (a pytest id's or line
    reference's file included) names a file that exists, relative to
    one of ``PATH_BASES`` or to the document itself."""
    checked = 0
    missing = []
    for pattern in DOCS:
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path, encoding="utf-8") as handle:
                spans = re.findall(r"`([^`\n]+)`", handle.read())
            bases = [os.path.join(ROOT, base) for base in PATH_BASES]
            bases.append(os.path.dirname(path))
            for span in spans:
                match = _FILE_PATH.fullmatch(span)
                if match is None or match.group(1) in EXAMPLE_OUTPUT_FILES:
                    continue
                checked += 1
                name = match.group(1)
                if not any(os.path.exists(os.path.join(b, name)) for b in bases):
                    missing.append(f"{os.path.relpath(path, ROOT)}: {name}")
    assert checked, "no file paths found in the docs"
    assert not missing, f"docs name files that do not exist: {missing}"
