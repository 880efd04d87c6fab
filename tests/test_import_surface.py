"""What importing the package loads, and how scipy's HiGHS core is loaded.

The library imports only the scipy it calls: the LP wrapper loads
``scipy.optimize._highspy._core`` without running
``scipy/optimize/__init__.py`` and hands HiGHS its rows without
``scipy.sparse``, which only the sparse thermal backend and the zonal
Stage 1 import.  The sparse backend loads scipy's SuperLU extension by
itself, through the same loader, rather than ``scipy.sparse.linalg``;
``nnls`` is imported where it is used.
Each check runs in a fresh interpreter, because the test session itself
has long since imported all of scipy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_ledger_imports_load_no_scipy_sparse():
    code = (f"import sys\n"
            f"import {', '.join(_ledger_repro_imports())}\n"
            "print('scipy.sparse' in sys.modules)\n")
    assert _run(code) == "False"


def test_dense_solve_loads_no_scipy_sparse():
    # the interference LP, the three stages and the baseline of a dense
    # room all reach HiGHS without scipy.sparse
    code = ("import sys\n"
            "from repro.core.api import SolveRequest, solve\n"
            "from repro.experiments import (PAPER_SET_1, generate_scenario,\n"
            "                               scaled_down)\n"
            "sc = generate_scenario(scaled_down(PAPER_SET_1, 20), 20120521)\n"
            "res = solve(SolveRequest(sc.datacenter, sc.workload, sc.p_const))\n"
            "print(res.reward_rate > 0, 'scipy.sparse' in sys.modules)\n")
    assert _run(code) == "True False"


@pytest.mark.parametrize("build", [
    "HeatFlowModel(np.asarray([[0.0, 1.0], [1.0, 0.0]]),\n"
    "              np.asarray([0.5, 0.5]), n_crac=1, backend='sparse')",
    "attach_zonal_thermal(build_datacenter(n_nodes=40, n_crac=2,\n"
    "                     rng=np.random.default_rng(7)))",
], ids=["sparse_backend", "zonal"])
def test_sparse_builds_load_scipy_sparse(build):
    code = ("import sys\n"
            "import numpy as np\n"
            "from repro.datacenter import build_datacenter\n"
            "from repro.thermal.heatflow import HeatFlowModel\n"
            "from repro.thermal.sparse import attach_zonal_thermal\n"
            "before = 'scipy.sparse' in sys.modules\n"
            f"{build}\n"
            "print(before, 'scipy.sparse' in sys.modules)\n")
    assert _run(code) == "False True"


def test_issparse_without_scipy_sparse():
    code = ("import sys\n"
            "import numpy as np\n"
            "from repro.optimize.linprog import issparse\n"
            "before = issparse(np.eye(2)), 'scipy.sparse' in sys.modules\n"
            "import scipy.sparse as sp\n"
            "print(*before, issparse(sp.csr_matrix(np.eye(2))),\n"
            "      issparse(np.eye(2)))\n")
    assert _run(code) == "False False True False"


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
    # the factorization loads the SuperLU extension alone: neither
    # scipy.sparse.linalg nor scipy.linalg comes with it
    code = ("import sys\n"
            "import numpy as np\n"
            "from repro.thermal.heatflow import HeatFlowModel\n"
            "superlu = 'scipy.sparse.linalg._dsolve._superlu'\n"
            "before = superlu in sys.modules\n"
            "alpha = np.asarray([[0.0, 1.0], [1.0, 0.0]])\n"
            "HeatFlowModel(alpha, np.asarray([0.5, 0.5]), n_crac=1,\n"
            "              backend='dense')\n"
            "dense = superlu in sys.modules\n"
            "HeatFlowModel(alpha, np.asarray([0.5, 0.5]), n_crac=1,\n"
            "              backend='sparse')\n"
            "print(before, dense, superlu in sys.modules,\n"
            "      'scipy.sparse.linalg' in sys.modules,\n"
            "      'scipy.linalg' in sys.modules)\n")
    assert _run(code) == "False False True False False"


def test_superlu_factor_solves_as_splu():
    sp = pytest.importorskip("scipy.sparse")
    from scipy.sparse.linalg import splu

    from repro.thermal.heatflow import _splu

    rng = np.random.default_rng(3)
    dense = np.eye(40) - 0.2 * rng.random((40, 40)) * (rng.random((40, 40))
                                                        < 0.15)
    matrix = sp.csc_matrix(dense)
    rhs = rng.random((40, 3))
    ours, ref = _splu(matrix), splu(matrix)
    for trans in ("N", "T"):
        assert (ours.solve(rhs, trans=trans) == ref.solve(rhs,
                                                           trans=trans)).all()


def test_missing_highs_core_names_the_floor(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, linprog._HIGHS_CORE)
    with pytest.raises(ImportError) as exc:
        linprog._load_extension(linprog._HIGHS_CORE, str(tmp_path))
    assert "scipy.optimize._highspy._core" in str(exc.value)
    assert "scipy>=1.15" in str(exc.value)
    assert exc.value.name == "scipy.optimize._highspy._core"


def test_loaded_highs_core_is_reused(tmp_path):
    assert linprog._load_extension(linprog._HIGHS_CORE,
                                   str(tmp_path)) is linprog.highs
