"""Tests for the repo's AST invariant checker (``tools.checkers``).

Every rule gets a firing fixture (the acceptance criterion: prove the
rule can fail), a passing fixture, and a suppression fixture. Fixture
files are written under ``tmp_path`` with a ``src/repro/...`` layout so
``module_name_for`` resolves them into the package the rules scope to.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.checkers import (  # noqa: E402
    Checker,
    all_rules,
    get_rule,
    iter_python_files,
)
from tools.checkers.engine import (  # noqa: E402
    is_test_code,
    module_name_for,
    parse_suppressions,
)


def check_source(tmp_path: Path, relpath: str, source: str, rule_id: str):
    """Write *source* at ``tmp_path/relpath`` and run one rule on it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return Checker(rules=[get_rule(rule_id)]).check_file(path)


def rule_ids(violations):
    return [v.rule_id for v in violations]


# -- engine plumbing ----------------------------------------------------------


class TestEngine:
    def test_module_name_from_src_layout(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "pst.py"
        assert module_name_for(path) == "repro.core.pst"

    def test_module_name_init_maps_to_package(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "__init__.py"
        assert module_name_for(path) == "repro.core"

    def test_test_code_detection(self):
        assert is_test_code(Path("tests/test_pst.py"))
        assert is_test_code(Path("benchmarks/bench_scaling.py"))
        assert is_test_code(Path("src/repro/conftest.py"))
        assert not is_test_code(Path("src/repro/core/pst.py"))

    def test_parse_suppressions(self):
        source = (
            "x = 1  # cluseq: ignore\n"
            "y = 2  # cluseq: ignore[CLQ002]\n"
            "z = 3  # cluseq: ignore[CLQ001, CLQ003]\n"
            "plain = 4\n"
        )
        sup = parse_suppressions(source)
        assert sup[1] is None  # bare ignore = all rules
        assert sup[2] == {"CLQ002"}
        assert sup[3] == {"CLQ001", "CLQ003"}
        assert 4 not in sup

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        found = list(iter_python_files([tmp_path]))
        assert [p.name for p in found] == ["a.py"]

    def test_all_rules_registered(self):
        assert [r.rule_id for r in all_rules()] == [
            "CLQ001",
            "CLQ002",
            "CLQ003",
            "CLQ004",
            "CLQ005",
            "CLQ006",
            "CLQ007",
            "CLQ008",
            "CLQ009",
            "CLQ010",
        ]

    def test_syntax_error_raises_checker_error(self, tmp_path):
        from tools.checkers.engine import CheckerError

        bad = tmp_path / "src" / "repro" / "core" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        with pytest.raises(CheckerError):
            Checker().check_file(bad)


# -- CLQ001: import layering --------------------------------------------------


class TestImportLayering:
    def test_core_importing_experiments_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from repro.experiments import common\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_core_relative_import_of_cli_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from ..cli import main\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_core_importing_sequences_is_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/good.py",
            "from ..sequences.database import SequenceDatabase\nimport numpy\n",
            "CLQ001",
        )
        assert violations == []

    def test_obs_importing_numpy_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/obs/bad.py",
            "import numpy as np\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_obs_stdlib_and_intra_obs_is_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/obs/good.py",
            "import json\nimport logging\nfrom .metrics import get_registry\n",
            "CLQ001",
        )
        assert violations == []

    def test_core_importing_stream_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from repro.stream import StreamingCluseq\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_core_relative_import_of_stream_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from ..stream.engine import StreamingCluseq\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_stream_importing_cli_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/bad.py",
            "from repro.cli import main\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_stream_relative_import_of_evaluation_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/bad.py",
            "from ..evaluation.metrics import evaluate_clustering\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_stream_importing_experiments_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/bad.py",
            "import repro.experiments.common\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_stream_allowed_layers_are_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/good.py",
            "from ..core.cluseq import ClusteringResult\n"
            "from ..sequences.alphabet import Alphabet\n"
            "from ..obs import get_registry\n"
            "from ..typing import PSTFactory\n"
            "from .pool import OutlierPool\n"
            "import numpy as np\nimport json\n",
            "CLQ001",
        )
        assert violations == []

    def test_backends_importing_sequences_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/backends/bad.py",
            "from ...sequences.database import SequenceDatabase\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_backends_importing_stream_fires(self, tmp_path):
        # Fires twice: once as core->stream, once as backends->stream.
        violations = check_source(
            tmp_path,
            "src/repro/core/backends/bad.py",
            "import repro.stream.engine\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001", "CLQ001"]

    def test_backends_allowed_layers_are_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/backends/good.py",
            "from ..pst import ProbabilisticSuffixTree\n"
            "from ..similarity import SimilarityResult\n"
            "from ...obs import get_registry\n"
            "from ...typing import PSTFactory\n"
            "from .flatten import FlattenedPST\n"
            "import numpy as np\nimport math\n",
            "CLQ001",
        )
        assert violations == []

    def test_core_importing_backends_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from .backends import PstBatchScorer\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_core_importing_backends_as_submodule_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from . import backends\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_stream_importing_backends_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/bad.py",
            "from ..core.backends.flatten import flatten_pst\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_shard_importing_backends_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/shard/bad.py",
            "from ..core.backends.flatten import flatten_pst\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_cli_importing_backends_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/cli.py",
            "from .core.backends import PstBatchScorer\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_core_importing_serve_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from repro.serve import ServeApp\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_backends_importing_serve_fires(self, tmp_path):
        # Fires twice: once as core->serve, once as backends->serve.
        violations = check_source(
            tmp_path,
            "src/repro/core/backends/bad.py",
            "from ...serve.registry import ModelRegistry\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001", "CLQ001"]

    def test_stream_importing_serve_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/bad.py",
            "import repro.serve.app\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_serve_importing_cli_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/serve/bad.py",
            "from repro.cli import main\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_serve_relative_import_of_evaluation_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/serve/bad.py",
            "from ..evaluation.metrics import evaluate_clustering\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_serve_importing_experiments_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/serve/bad.py",
            "import repro.experiments.common\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_serve_allowed_layers_are_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/serve/good.py",
            "from ..core.cluseq import ClusteringResult\n"
            "from ..core.backends.dispatch import PstBatchScorer\n"
            "from ..stream.checkpoint import read_checkpoint\n"
            "from ..sequences.alphabet import Alphabet\n"
            "from ..obs import get_registry\n"
            "from .http import HttpServer\n"
            "import asyncio\nimport json\n",
            "CLQ001",
        )
        assert violations == []

    def test_shard_importing_cli_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/shard/bad.py",
            "from repro.cli import main\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_shard_relative_import_of_evaluation_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/shard/bad.py",
            "from ..evaluation.metrics import evaluate_clustering\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_shard_importing_serve_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/shard/bad.py",
            "import repro.serve.app\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_core_importing_shard_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from repro.shard import ShardedStreamingCluseq\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_stream_importing_shard_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/bad.py",
            "from ..shard.engine import ShardedStreamingCluseq\n",
            "CLQ001",
        )
        assert rule_ids(violations) == ["CLQ001"]

    def test_shard_allowed_layers_are_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/shard/good.py",
            "from ..stream.engine import StreamingCluseq\n"
            "from ..core.pst import ProbabilisticSuffixTree\n"
            "from ..sequences.alphabet import Alphabet\n"
            "from ..obs import get_registry\n"
            "from ..typing import PSTFactory\n"
            "from .router import route\n"
            "import multiprocessing\nimport json\n",
            "CLQ001",
        )
        assert violations == []

    @pytest.mark.parametrize(
        "source",
        [
            "from scipy.optimize import linear_sum_assignment\n",
            "import scipy\n",
            "try:\n    import scipy.stats\nexcept ImportError:\n    pass\n",
            "class Mapper:\n    from scipy import optimize\n",
        ],
    )
    def test_module_level_scipy_import_fires(self, tmp_path, source):
        violations = check_source(
            tmp_path, "src/repro/evaluation/bad.py", source, "CLQ001"
        )
        assert rule_ids(violations) == ["CLQ001"]
        assert "at module level" in violations[0].message

    def test_function_level_scipy_import_is_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/evaluation/good.py",
            "def assign(cost):\n"
            "    from scipy.optimize import linear_sum_assignment\n"
            "    return linear_sum_assignment(cost)\n"
            "class Mapper:\n"
            "    async def run(self):\n"
            "        import scipy.stats\n",
            "CLQ001",
        )
        assert violations == []

    def test_suppression_comment_silences(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from repro.cli import main  # cluseq: ignore[CLQ001]\n",
            "CLQ001",
        )
        assert violations == []


# -- CLQ002: determinism ------------------------------------------------------


class TestDeterminism:
    def test_unseeded_default_rng_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/sequences/bad.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "CLQ002",
        )
        assert rule_ids(violations) == ["CLQ002"]

    def test_global_numpy_random_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/sequences/bad.py",
            "import numpy as np\nx = np.random.random()\n",
            "CLQ002",
        )
        assert rule_ids(violations) == ["CLQ002"]

    def test_stdlib_random_module_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/sequences/bad.py",
            "import random\nx = random.random()\n",
            "CLQ002",
        )
        assert rule_ids(violations) == ["CLQ002"]

    def test_seeded_generator_is_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/sequences/good.py",
            "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.random()\n",
            "CLQ002",
        )
        assert violations == []

    def test_test_code_is_exempt(self, tmp_path):
        violations = check_source(
            tmp_path,
            "tests/test_whatever.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "CLQ002",
        )
        assert violations == []

    def test_suppression_comment_silences(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/sequences/bad.py",
            "import numpy as np\n"
            "rng = np.random.default_rng()  # cluseq: ignore[CLQ002]\n",
            "CLQ002",
        )
        assert violations == []


# -- CLQ003: float equality in core -------------------------------------------


class TestFloatEquality:
    def test_float_literal_equality_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "def f(x: float) -> bool:\n    return x == 0.5\n",
            "CLQ003",
        )
        assert rule_ids(violations) == ["CLQ003"]
        assert "math.isclose" in violations[0].message

    def test_division_result_equality_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "def f(a: float, b: float, c: float) -> bool:\n"
            "    return a / b != c\n",
            "CLQ003",
        )
        assert rule_ids(violations) == ["CLQ003"]

    def test_int_equality_is_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/good.py",
            "def f(n: int) -> bool:\n    return n == 3\n",
            "CLQ003",
        )
        assert violations == []

    def test_outside_core_is_exempt(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/evaluation/loose.py",
            "def f(x: float) -> bool:\n    return x == 0.5\n",
            "CLQ003",
        )
        assert violations == []

    def test_suppression_comment_silences(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "def f(x: float) -> bool:\n"
            "    return x == 0.5  # cluseq: ignore[CLQ003]\n",
            "CLQ003",
        )
        assert violations == []


# -- CLQ004: mutable defaults -------------------------------------------------


class TestMutableDefaults:
    def test_list_literal_default_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "def f(items=[]):\n    return items\n",
            "CLQ004",
        )
        assert rule_ids(violations) == ["CLQ004"]

    def test_dict_call_default_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "def f(mapping=dict()):\n    return mapping\n",
            "CLQ004",
        )
        assert rule_ids(violations) == ["CLQ004"]

    def test_kwonly_mutable_default_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "def f(*, seen=set()):\n    return seen\n",
            "CLQ004",
        )
        assert rule_ids(violations) == ["CLQ004"]

    def test_none_and_tuple_defaults_are_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/good.py",
            "def f(items=None, pair=(1, 2), name=\"x\"):\n    return items\n",
            "CLQ004",
        )
        assert violations == []

    def test_suppression_comment_silences(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "def f(items=[]):  # cluseq: ignore[CLQ004]\n    return items\n",
            "CLQ004",
        )
        assert violations == []


# -- CLQ005: paper anchors ----------------------------------------------------


class TestPaperAnchors:
    def test_public_core_function_without_anchor_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            'def score(x: float) -> float:\n    """Score a thing."""\n    return x\n',
            "CLQ005",
        )
        assert rule_ids(violations) == ["CLQ005"]

    def test_missing_docstring_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "def score(x: float) -> float:\n    return x\n",
            "CLQ005",
        )
        assert rule_ids(violations) == ["CLQ005"]

    def test_section_anchor_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/good.py",
            'def score(x: float) -> float:\n'
            '    """The paper\'s similarity measure (§4.3)."""\n'
            "    return x\n",
            "CLQ005",
        )
        assert violations == []

    def test_private_functions_exempt(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/good.py",
            "def _helper(x: float) -> float:\n    return x\n",
            "CLQ005",
        )
        assert violations == []

    def test_methods_exempt(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/good.py",
            "class Thing:\n"
            "    def compute(self) -> int:\n"
            '        """No anchor needed on methods."""\n'
            "        return 1\n",
            "CLQ005",
        )
        assert violations == []

    def test_outside_core_is_exempt(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/evaluation/free.py",
            "def score(x: float) -> float:\n    return x\n",
            "CLQ005",
        )
        assert violations == []

    def test_suppression_comment_silences(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "def score(x: float) -> float:  # cluseq: ignore[CLQ005]\n    return x\n",
            "CLQ005",
        )
        assert violations == []


# -- CLQ006: observability naming ---------------------------------------------


class TestObservabilityNaming:
    def test_bare_metric_name_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/bad.py",
            "def f(registry):\n"
            '    registry.counter("hits").inc()\n',
            "CLQ006",
        )
        assert rule_ids(violations) == ["CLQ006"]

    def test_uppercase_metric_name_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/bad.py",
            "def f(registry):\n"
            '    registry.gauge("Stream.PoolSize").set(1)\n',
            "CLQ006",
        )
        assert rule_ids(violations) == ["CLQ006"]

    def test_dotted_metric_name_is_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/good.py",
            "def f(registry):\n"
            '    registry.counter("stream.batches").inc()\n'
            '    registry.gauge("stream.clusters").set(3)\n',
            "CLQ006",
        )
        assert violations == []

    def test_fstring_prefix_checked(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/obs/bad.py",
            "def f(registry, name):\n"
            '    registry.timer(f"Profile kernel {name}").record(0.1)\n',
            "CLQ006",
        )
        assert rule_ids(violations) == ["CLQ006"]

    def test_fstring_namespace_prefix_is_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/obs/good.py",
            "def f(registry, name):\n"
            '    registry.timer(f"span.{name}").record(0.1)\n',
            "CLQ006",
        )
        assert violations == []

    def test_dynamic_metric_name_is_trusted(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/good.py",
            "def f(registry, name):\n"
            "    registry.counter(name).inc()\n",
            "CLQ006",
        )
        assert violations == []

    def test_bare_span_call_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from ..obs import span\n"
            "def f():\n"
            '    span("seed")\n',
            "CLQ006",
        )
        assert rule_ids(violations) == ["CLQ006"]

    def test_span_as_context_manager_is_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/good.py",
            "from ..obs import span\n"
            "def f():\n"
            '    with span("seed"):\n'
            "        pass\n"
            '    with span("stream.batch") as batch_span:\n'
            "        return batch_span\n",
            "CLQ006",
        )
        assert violations == []

    def test_bad_span_name_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/bad.py",
            "from ..obs import span\n"
            "def f():\n"
            '    with span("Seed Phase"):\n'
            "        pass\n",
            "CLQ006",
        )
        assert rule_ids(violations) == ["CLQ006"]

    def test_test_code_is_exempt(self, tmp_path):
        violations = check_source(
            tmp_path,
            "tests/test_whatever.py",
            'def test_x(registry):\n    registry.counter("hits").inc()\n',
            "CLQ006",
        )
        assert violations == []

    def test_suppression_comment_silences(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/bad.py",
            "def f(registry):\n"
            '    registry.counter("hits").inc()  # cluseq: ignore[CLQ006]\n',
            "CLQ006",
        )
        assert violations == []


# -- CLI / meta ---------------------------------------------------------------


class TestCliAndMeta:
    def test_repo_passes_all_rules(self):
        """The shipped package must be invariant-clean (the CI gate)."""
        checker = Checker()
        violations, files_checked = checker.check_targets(
            [REPO_ROOT / "src" / "repro"]
        )
        assert files_checked > 30
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_exit_codes(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(items=[]):\n    return items\n")
        env_cwd = str(REPO_ROOT)
        dirty = subprocess.run(
            [sys.executable, "-m", "tools.checkers", str(bad)],
            capture_output=True,
            text=True,
            cwd=env_cwd,
        )
        assert dirty.returncode == 1
        assert "CLQ004" in dirty.stdout
        clean = subprocess.run(
            [sys.executable, "-m", "tools.checkers", "src/repro"],
            capture_output=True,
            text=True,
            cwd=env_cwd,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.checkers", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0
        for rule_id in ("CLQ001", "CLQ002", "CLQ003", "CLQ004", "CLQ005"):
            assert rule_id in proc.stdout

    def test_select_restricts_rules(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        # CLQ004 violation only; selecting CLQ001 must pass.
        bad.write_text("def f(items=[]):\n    return items\n")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.checkers",
                "--select",
                "CLQ001",
                str(bad),
            ],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
