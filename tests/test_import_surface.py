"""What importing the package loads, and how scipy's HiGHS core is loaded.

The library imports only the scipy it calls: the LP wrapper loads
``scipy.optimize._highspy._core`` without running
``scipy/optimize/__init__.py``, and ``splu`` / ``nnls`` are imported
where they are used.  Each check runs in a fresh interpreter, because
the test session itself has long since imported all of scipy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.optimize import linprog

REPO_ROOT = Path(__file__).resolve().parents[1]
LEDGER_WORKLOADS = REPO_ROOT / "benchmarks" / "ledger" / "workloads.py"

#: scipy subpackages no solve / serve / control path needs
UNUSED_SCIPY = ("scipy.optimize", "scipy.sparse.linalg", "scipy.linalg",
                "scipy.stats")


def _run(code: str) -> str:
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _ledger_repro_imports() -> list[str]:
    tree = ast.parse(LEDGER_WORKLOADS.read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names
                         if a.name.split(".")[0] == "repro")
    return sorted(names)


def test_ledger_imports_load_no_unused_scipy():
    modules = _ledger_repro_imports()
    assert "repro.core.api" in modules and "repro.serve" in modules
    code = (f"import sys\n"
            f"import {', '.join(modules)}\n"
            f"print(sorted(set({UNUSED_SCIPY!r}) & set(sys.modules)))\n")
    assert _run(code) == "[]"


@pytest.mark.parametrize("first, second", [
    ("repro.optimize.linprog", "scipy.optimize"),
    ("scipy.optimize", "repro.optimize.linprog"),
])
def test_one_highs_module_in_either_import_order(first, second):
    code = (f"import {first}, {second}\n"
            "import repro.optimize.linprog as lp, scipy.optimize as so\n"
            "from scipy.optimize._highspy import _core\n"
            "res = so.linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])\n"
            "print(_core is lp.highs, res.status, res.x.tolist())\n")
    assert _run(code) == "True 0 [0.0, 1.0]"


def test_sparse_model_imports_splu_on_first_build():
    code = ("import sys\n"
            "import numpy as np\n"
            "from repro.thermal.heatflow import HeatFlowModel\n"
            "before = 'scipy.sparse.linalg' in sys.modules\n"
            "alpha = np.asarray([[0.0, 1.0], [1.0, 0.0]])\n"
            "HeatFlowModel(alpha, np.asarray([0.5, 0.5]), n_crac=1,\n"
            "              backend='dense')\n"
            "dense = 'scipy.sparse.linalg' in sys.modules\n"
            "HeatFlowModel(alpha, np.asarray([0.5, 0.5]), n_crac=1,\n"
            "              backend='sparse')\n"
            "print(before, dense, 'scipy.sparse.linalg' in sys.modules)\n")
    assert _run(code) == "False False True"


def test_missing_highs_core_names_the_floor(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, linprog._HIGHS_CORE)
    with pytest.raises(ImportError) as exc:
        linprog._load_highs_core(str(tmp_path))
    assert "scipy.optimize._highspy._core" in str(exc.value)
    assert "scipy>=1.15" in str(exc.value)
    assert exc.value.name == "scipy.optimize._highspy._core"


def test_loaded_highs_core_is_reused(tmp_path):
    assert linprog._load_highs_core(str(tmp_path)) is linprog.highs
